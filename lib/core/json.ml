(* The one JSON value type every BENCH_*.json report and every
   [npra ... --json] payload is built from, with one canonical printer
   and a small total reader. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printer ---- *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec inline = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float (d, x) ->
    if Float.is_finite x then Printf.sprintf "%.*f" (max 0 d) x else "null"
  | String s -> quote s
  | List items -> "[" ^ String.concat ", " (List.map inline items) ^ "]"
  | Obj members -> "{" ^ String.concat ", " (List.map member members) ^ "}"

and member (k, v) = quote k ^ ": " ^ inline v

(* The layout rule: a top-level object puts one member per line, and a
   top-level member holding a non-empty array puts one element per
   line; everything below that prints inline. *)
let to_string = function
  | Obj (_ :: _ as members) ->
    let top = function
      | k, List (_ :: _ as items) ->
        quote k ^ ": [\n    " ^ String.concat ",\n    " (List.map inline items) ^ "\n  ]"
      | m -> member m
    in
    "{\n  " ^ String.concat ",\n  " (List.map top members) ^ "\n}\n"
  | v -> inline v ^ "\n"

(* ---- reader ---- *)

exception Fail of string

let max_depth = 512

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Fail (Printf.sprintf "at byte %d: %s" !pos what)) in
  (* NUL stands for the end of input: it is invalid wherever it appears *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let eat c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let rec ws () = if String.contains " \t\r\n" (peek ()) then (incr pos; ws ()) in
  let word w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then (pos := !pos + l; v)
    else fail "invalid literal"
  in
  let hex () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if h = "" || not (String.for_all is_hex h) then fail "invalid \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char b c
        | 'b' | 'f' | 'n' | 'r' | 't' ->
          Buffer.add_char b
            (List.assoc c
               [ ('b', '\b'); ('f', '\012'); ('n', '\n'); ('r', '\r'); ('t', '\t') ])
        | 'u' ->
          let hi = hex () in
          if hi land 0xFC00 = 0xDC00 then fail "unpaired surrogate";
          let code =
            if hi land 0xFC00 <> 0xD800 then hi
            else begin
              word "\\u" ();
              let lo = hex () in
              if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
              0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
            end
          in
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | _ -> fail "invalid escape");
        go ()
      | c when c < ' ' -> fail "unterminated string or control character"
      | c -> incr pos; Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while match peek () with '0' .. '9' -> true | _ -> false do incr pos done;
      if !pos = d then fail "expected a digit";
      !pos - d
    in
    if peek () = '-' then incr pos;
    ignore (digits ());
    let places = if peek () = '.' then (incr pos; digits ()) else 0 in
    if peek () = 'e' || peek () = 'E' then begin
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      ignore (digits ())
    end;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (places, float_of_string text)
  in
  let items close item =
    ws ();
    if peek () = close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | ',' -> incr pos; more acc
        | c when c = close -> incr pos; List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      more []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    ws ();
    match peek () with
    | 'n' -> word "null" Null
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | '"' -> String (str ())
    | '-' | '0' .. '9' -> number ()
    | '[' -> incr pos; List (items ']' (fun () -> value (depth + 1)))
    | '{' ->
      incr pos;
      let member () =
        ws ();
        let k = str () in
        ws ();
        eat ':';
        (k, value (depth + 1))
      in
      Obj (items '}' member)
    | _ -> fail "expected a value"
  in
  match
    let v = value 0 in
    ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg
