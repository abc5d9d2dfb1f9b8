(* A small deterministic slice of the fuzzing harness runs in the test
   suite, so the never-crash contract is checked on every `dune runtest`
   — the full 12k-input sweep lives in `bench fuzz`. *)

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "fuzz.harness",
      [
        test "300 fuzz inputs: no crashes, no hangs" (fun () ->
            let stats = Npra_fuzz.Fuzz.run ~seed:7 ~count:300 () in
            check Alcotest.int "inputs" 300 stats.Npra_fuzz.Fuzz.inputs;
            check Alcotest.int "crashes" 0 stats.Npra_fuzz.Fuzz.crashes;
            check Alcotest.int "hangs" 0 stats.Npra_fuzz.Fuzz.hangs;
            check Alcotest.bool "ok" true (Npra_fuzz.Fuzz.ok stats);
            (* the pristine corpus members must make it through the
               whole pipeline, not just be rejected *)
            check Alcotest.bool "some inputs accepted" true
              (stats.Npra_fuzz.Fuzz.accepted > 0);
            check Alcotest.bool "some inputs rejected" true
              (stats.Npra_fuzz.Fuzz.rejected > 0));
        test "run_input classifies a pristine kernel as accepted" (fun () ->
            let src =
              "  movi v0, 3\ntop:\n  add v0, v0, 1\n  bne v0, 10, top\n  halt\n"
            in
            match Npra_fuzz.Fuzz.run_input Npra_fuzz.Fuzz.Asm src with
            | Npra_fuzz.Fuzz.Accepted -> ()
            | o ->
              Alcotest.failf "expected Accepted, got %s"
                (Npra_fuzz.Fuzz.outcome_name o));
        test "run_input converts infinite loops into budget stops" (fun () ->
            let src = "spin:\n  br spin\n  halt\n" in
            match Npra_fuzz.Fuzz.run_input Npra_fuzz.Fuzz.Asm src with
            | Npra_fuzz.Fuzz.Budget_stopped _ -> ()
            | o ->
              Alcotest.failf "expected Budget_stopped, got %s"
                (Npra_fuzz.Fuzz.outcome_name o));
        test "stats serialise to JSON" (fun () ->
            let stats = Npra_fuzz.Fuzz.run ~seed:3 ~count:60 () in
            let json = Npra_core.Json.to_string (Npra_fuzz.Fuzz.to_json stats) in
            check Alcotest.bool "mentions crashes field" true
              (let n = String.length json in
               let needle = "\"crashes\"" in
               let m = String.length needle in
               let rec go i =
                 i + m <= n && (String.sub json i m = needle || go (i + 1))
               in
               go 0));
        test "the JSON payload does not depend on the slowest input's time"
          (fun () ->
            let stats = Npra_fuzz.Fuzz.run ~seed:3 ~count:60 () in
            let json s = Npra_core.Json.to_string (Npra_fuzz.Fuzz.to_json s) in
            check Alcotest.string "slowest_s 0 vs 9.5"
              (json { stats with Npra_fuzz.Fuzz.slowest_s = 0. })
              (json { stats with Npra_fuzz.Fuzz.slowest_s = 9.5 }));
      ] );
  ]
