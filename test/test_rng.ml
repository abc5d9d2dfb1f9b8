(* Golden pins for the repo-wide xorshift generator.

   The exact values below were captured from the pre-refactor copies of
   the generator (Arrival, Chaos.schedule, Pipeline.xorshift) before
   they were deduplicated into Npra_core.Rng. If any of these tests
   fail, committed BENCH_*.json files are no longer reproducible — fix
   the generator, never the pins. *)

open Npra_core
open Npra_workloads
open Npra_traffic

let il = Alcotest.(list int)

(* -- stream form: raw state words ---------------------------------- *)

let test_stream_words () =
  let take seed n =
    let g = Rng.create ~seed in
    List.init n (fun _ -> Rng.next g)
  in
  (* seed 0 escapes to the raw (unmasked) golden-ratio constant *)
  Alcotest.check il "seed 0" (take 0 4) [ 613369369; 244615135; 239285736; 727331703 ];
  Alcotest.check il "seed 1" (take 1 4) [ 270369; 67634689; 362555589; 712331367 ]

(* -- stream form through Arrival ----------------------------------- *)

let test_arrival_streams () =
  Alcotest.check il "uniform seed 1"
    (Arrival.take ~seed:1 (Workload.Uniform { period = 50 }) 8)
    [ 17; 67; 117; 167; 217; 267; 317; 367 ];
  Alcotest.check il "poisson seed 7"
    (Arrival.take ~seed:7 (Workload.Poisson { mean_period = 40 }) 8)
    [ 100; 104; 105; 140; 176; 209; 306; 442 ];
  Alcotest.check il "bursty seed 3"
    (Arrival.take ~seed:3
       (Workload.Bursty { on_cycles = 100; off_cycles = 200; period = 20 })
       8)
    [ 5; 25; 45; 65; 85; 300; 320; 340 ]

(* -- stream form through Chaos.schedule ---------------------------- *)

let event_name = function
  | Chaos.Crash _ -> "crash"
  | Hang { stall = Permanent; _ } -> "hang"
  | Hang { stall = Transient _; _ } -> "transient-hang"
  | Storm _ -> "storm"
  | Flood _ -> "flood"

let test_chaos_schedule () =
  let spec =
    { Chaos.crashes = 1; permanent_hangs = 1; transient_hangs = 1; storms = 1; floods = 1 }
  in
  let ch = Chaos.schedule ~seed:42 ~engines:3 ~threads:4 ~duration:40_000 spec in
  let got =
    List.map
      (fun ev ->
        Fmt.str "%s e%d @%d" (event_name ev) (Chaos.event_engine ev)
          (Chaos.event_at ev))
      ch.Chaos.events
  in
  Alcotest.(check (list string))
    "schedule seed 42"
    [
      "hang e2 @16415"; "storm e0 @18108"; "transient-hang e2 @19631";
      "crash e0 @24092"; "flood e1 @25432";
    ]
    got

(* -- pure form: Rng.step / permutation ----------------------------- *)

let test_pure_step () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check int) (Fmt.str "xorshift %d" s) want (Rng.step s))
    [
      (0, 747046425); (1, 270369); (42, 11355432); (123456789, 790011721);
      (0x3FFFFFFF, 1006632991); (max_int, 1006632991);
    ]

let test_permutation () =
  Alcotest.check il "perm seed 1 n 8"
    (Array.to_list (Rng.permutation ~seed:1 8))
    [ 5; 7; 2; 6; 0; 3; 4; 1 ];
  Alcotest.check il "perm seed 2 n 5"
    (Array.to_list (Rng.permutation ~seed:2 5))
    [ 0; 1; 4; 2; 3 ]

(* -- the workload copy stays byte-compatible too ------------------- *)

let test_workload_words () =
  Alcotest.check il "random_words seed 5"
    (Workload.random_words ~seed:5 6)
    [ 1351845; 338173445; 65833937; 128201178; 1027806133; 13769167 ]

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "golden stream words" `Quick test_stream_words;
        Alcotest.test_case "golden arrival streams" `Quick test_arrival_streams;
        Alcotest.test_case "golden chaos schedule" `Quick test_chaos_schedule;
        Alcotest.test_case "golden pure step" `Quick test_pure_step;
        Alcotest.test_case "golden permutation" `Quick test_permutation;
        Alcotest.test_case "golden workload words" `Quick test_workload_words;
      ] );
  ]
