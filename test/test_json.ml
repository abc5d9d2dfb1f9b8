(* The canonical JSON printer and the total reader behind every
   BENCH_*.json report and every [npra ... --json] payload. *)

open Npra_core

let test name f = Alcotest.test_case name `Quick f
let str = Alcotest.string

let json =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Json.to_string v)) ( = )

let inline v =
  (* a non-object prints inline, followed by the closing newline *)
  let s = Json.to_string v in
  String.sub s 0 (String.length s - 1)

let printer_tests =
  [
    test "strings escape quote, backslash and control characters" (fun () ->
        Alcotest.check str "escapes" {|"a\"b\\c\u000ad\u0001e"|}
          (inline (String "a\"b\\c\nd\001e"));
        Alcotest.check str "utf-8 passes through" "\"caf\xc3\xa9\""
          (inline (String "caf\xc3\xa9")));
    test "Float keeps its decimal places" (fun () ->
        Alcotest.check str "4 places" "0.5000" (inline (Float (4, 0.5)));
        Alcotest.check str "2 places rounds" "3.14" (inline (Float (2, 3.14159)));
        Alcotest.check str "0 places has no point" "1234568"
          (inline (Float (0, 1234567.8)));
        Alcotest.check str "negative" "-2.50" (inline (Float (2, -2.5))));
    test "non-finite floats print as null" (fun () ->
        List.iter
          (fun x -> Alcotest.check str (string_of_float x) "null" (inline (Float (3, x))))
          [ Float.nan; Float.infinity; Float.neg_infinity ]);
    test "empty containers" (fun () ->
        Alcotest.check str "list" "[]" (inline (List []));
        Alcotest.check str "object" "{}" (inline (Obj []));
        Alcotest.check str "top-level empty object" "{}\n" (Json.to_string (Obj []));
        Alcotest.check str "nested"
          "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": {\"d\": [[], {}]}\n}\n"
          (Json.to_string
             (Obj
                [ ("a", List []); ("b", Obj []);
                  ("c", Obj [ ("d", List [ List []; Obj [] ]) ]) ])));
    test "golden layout" (fun () ->
        Alcotest.check str "layout"
          "{\n\
          \  \"benchmark\": \"x\",\n\
          \  \"quick\": true,\n\
          \  \"cells\": [\n\
          \    {\"n\": 1, \"xs\": [1, 2], \"p\": null},\n\
          \    {\"n\": 2, \"xs\": [], \"p\": {\"r\": 0.25}}\n\
          \  ],\n\
          \  \"totals\": {\"n\": 3, \"ok\": false}\n\
           }\n"
          (Json.to_string
             (Obj
                [
                  ("benchmark", String "x");
                  ("quick", Bool true);
                  ( "cells",
                    List
                      [
                        Obj [ ("n", Int 1); ("xs", List [ Int 1; Int 2 ]); ("p", Null) ];
                        Obj
                          [ ("n", Int 2); ("xs", List []);
                            ("p", Obj [ ("r", Float (2, 0.25)) ]) ];
                      ] );
                  ("totals", Obj [ ("n", Int 3); ("ok", Bool false) ]);
                ])));
  ]

(* Values the printer reproduces exactly: a Float holds a value already
   rounded to its digits (at least one, since Float (0, x) prints as an
   integer and reads back as Int). *)
let gen_value =
  let open QCheck.Gen in
  let float =
    map2
      (fun d x -> Json.Float (d, float_of_string (Printf.sprintf "%.*f" d x)))
      (int_range 1 6) (float_range (-1e6) 1e6)
  in
  let key = string_size ~gen:printable (int_range 0 6) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) int;
        float;
        map (fun s -> Json.String s) (string_size ~gen:char (int_range 0 12));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 4) (pair key (self (n / 4)))) );
             ])

let arb_value = QCheck.make ~print:Json.to_string gen_value

let no_raise s = match Json.parse s with Ok _ | Error _ -> true

let reader_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"qcheck: parse (to_string v) = Ok v"
         arb_value (fun v -> Json.parse (Json.to_string v) = Ok v));
    test "Float (0, x) reads back as Int" (fun () ->
        Alcotest.(check (result json str))
          "int" (Ok (Int 42)) (Json.parse (Json.to_string (Float (0, 42.)))));
    test "the reader takes escapes, exponents and whitespace" (fun () ->
        Alcotest.(check (result json str))
          "value"
          (Ok
             (Obj
                [ ("s", String "\t\xc3\xa9\xf0\x9f\x98\x80/");
                  ("e", Float (1, 1.5e3)); ("i", Int (-7)) ]))
          (Json.parse
             " {\"s\" : \"\\t\\u00e9\\ud83d\\ude00\\/\",\r\n \"e\": 1.5e3, \"i\": -7 } "));
    test "truncated or garbage input is an Error" (fun () ->
        let doc =
          Json.to_string
            (Obj [ ("a", List [ Int 1; String "x\"y" ]); ("b", Float (2, 0.5)) ])
        in
        for i = 0 to String.length doc - 2 do
          if Result.is_ok (Json.parse (String.sub doc 0 i)) then
            Alcotest.failf "the first %d bytes parsed" i
        done;
        List.iter
          (fun s ->
            match Json.parse s with
            | Ok v -> Alcotest.failf "%S parsed as %s" s (Json.to_string v)
            | Error _ -> ())
          [ ""; "nul"; "[1,]"; "{\"a\" 1}"; "{1: 2}"; "\"\\x\""; "\"\\ud800\"";
            "\"a\nb\""; "1 2"; "-"; "1."; "[1"; "tru"; String.make 10_000 '[' ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000 ~name:"qcheck: parse never raises"
         QCheck.(string_gen_of_size Gen.(int_range 0 40) (Gen.oneofl
           [ '{'; '}'; '['; ']'; '"'; '\\'; ':'; ','; '-'; '.'; 'e'; '1'; '0';
             'u'; 'n'; 't'; ' '; 'a' ]))
         no_raise);
  ]

let suite = [ ("json.print", printer_tests); ("json.read", reader_tests) ]
