(* Every acceptance check of the committed BENCH_*.json reports stays
   live: each committed report passes its check, and flipping the one
   field an assertion reads makes the check name that failure. *)

open Npra_core
module Checks = Npra_bench.Checks

let test name f = Alcotest.test_case name `Quick f

let committed file =
  let path = Filename.concat ".." file in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: %s" path msg

(* [set "a.0.b" v j] replaces member b of element 0 of member a. *)
let set path v j =
  let rec go keys j =
    match (keys, j) with
    | [], _ -> v
    | k :: rest, Json.Obj members ->
      if not (List.mem_assoc k members) then Alcotest.failf "no member %s" path;
      Json.Obj (List.map (fun (k', x) -> (k', if k' = k then go rest x else x)) members)
    | k :: rest, List items ->
      let i = int_of_string k in
      if i >= List.length items then Alcotest.failf "no element %s" path;
      Json.List (List.mapi (fun i' x -> if i' = i then go rest x else x) items)
    | _ -> Alcotest.failf "cannot descend into %s" path
  in
  go (String.split_on_char '.' path) j

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let reports =
  [
    ("BENCH_adapt.json", Checks.adapt);
    ("BENCH_chaos.json", Checks.chaos);
    ("BENCH_chip.json", Checks.chip);
    ("BENCH_dataflow.json", Checks.dataflow);
    ("BENCH_faults.json", Checks.faults);
    ("BENCH_fuzz.json", Checks.fuzz);
    ("BENCH_portfolio.json", Checks.portfolio);
    ("BENCH_simspeed.json", Checks.simspeed);
    ("BENCH_throughput.json", Checks.throughput);
  ]

let committed_pass =
  List.map
    (fun (file, check) ->
      test (file ^ " passes its check") (fun () ->
          Alcotest.(check (list string))
            "no failures" [] (Checks.apply check (committed file))))
    reports

(* (report, check, field, new value, text the failure must name) *)
let flips =
  let open Json in
  [
    (* adapt: cell ok, adaptive >= static, hysteresis bound, all_ok *)
    ("BENCH_adapt.json", Checks.adapt, "matrix.1.ok", Bool false,
     "phase-shift: cell not ok");
    ("BENCH_adapt.json", Checks.adapt,
     "matrix.0.adaptive.critical_served", Int 200,
     "adaptive served 200 critical packets, static 245");
    ("BENCH_adapt.json", Checks.adapt, "matrix.2.rebalances", Int 99,
     "99 re-balances exceed the hysteresis bound");
    ("BENCH_adapt.json", Checks.adapt, "all_ok", Bool false,
     "all_ok is false");
    (* chip: cell ok, fold conservation, equal offered traffic,
       balanced >= fixed, chain SLO and queue bound, all_ok *)
    ("BENCH_chip.json", Checks.chip, "cells.0.ok", Bool false,
     "shard: cell not ok");
    ("BENCH_chip.json", Checks.chip,
     "cells.0.fixed.conservation", Bool false, "fixed fold lost packets");
    ("BENCH_chip.json", Checks.chip,
     "cells.0.balanced.conservation", Bool false,
     "balanced fold lost packets");
    ("BENCH_chip.json", Checks.chip,
     "cells.0.fixed.threads.2.offered", Int 0,
     "shard: fixed and balanced folds offered different traffic");
    ("BENCH_chip.json", Checks.chip,
     "cells.0.balanced_critical_served", Int 6000,
     "balanced served 6000 critical packets, fixed 6689");
    ("BENCH_chip.json", Checks.chip,
     "cells.1.run.conservation", Bool false, "chaos fold lost packets");
    ("BENCH_chip.json", Checks.chip,
     "cells.2.chain.conservation", Bool false,
     "chain-l2l3fwd: chain lost packets");
    ("BENCH_chip.json", Checks.chip, "cells.3.chain.slo_ok", Bool false,
     "chain-wraps: missed its p99 SLO");
    ("BENCH_chip.json", Checks.chip, "cells.2.chain.max_queue", Int 999,
     "queue depth 999 exceeds capacity");
    ("BENCH_chip.json", Checks.chip, "all_ok", Bool false,
     "all_ok is false");
    (* chaos: every cell ok and conserving *)
    ("BENCH_chaos.json", Checks.chaos, "matrix.3.ok", Bool false,
     "cell not ok");
    ("BENCH_chaos.json", Checks.chaos,
     "matrix.0.conservation", Bool false,
     "fwd-mix/none: packet conservation broken");
    (* dataflow: dense >= reference on every kernel of a full run *)
    ("BENCH_dataflow.json", Checks.dataflow,
     "speedup_dense_over_reference.md5", Float (2, 0.9),
     "dense dataflow is 0.90x on md5");
    ("BENCH_dataflow.json", Checks.dataflow,
     "speedup_dense_over_reference.synthetic10k", Float (2, 2.9),
     "dense dataflow is 2.90x on synthetic10k (< 3.0x)");
    (* simspeed: per-kernel soa >= legacy, sweep, armed and rate floors, ok;
       the pool gates are tested below *)
    ("BENCH_simspeed.json", Checks.simspeed,
     "engines.kernels.0.soa_cps", Float (0, 1000.),
     "md5: soa 1000 c/s below legacy");
    ("BENCH_simspeed.json", Checks.simspeed,
     "engines.sweep.soa_over_legacy", Float (3, 5.5),
     "soa/legacy sweep ratio 5.50 below floor 6.30");
    ("BENCH_simspeed.json", Checks.simspeed,
     "engines.sweep.trap_over_off", Float (3, 0.51),
     "armed/off sweep ratio 0.51 below floor 0.62");
    ("BENCH_simspeed.json", Checks.simspeed,
     "engines.sweep.soa_cps", Float (0, 1000.),
     "soa sweep rate 1000 c/s below floor");
    ("BENCH_simspeed.json", Checks.simspeed, "ok", Bool false,
     "ok is false");
    (* the reports whose gates lived only in the binaries *)
    ("BENCH_faults.json", Checks.faults,
     "kernels.0.faults.2.detected", Bool false,
     "md5: injected shift_block went undetected");
    ("BENCH_faults.json", Checks.faults,
     "kernels.1.clean_sentinel_silent", Bool false,
     "the sentinel trapped on the clean system");
    ("BENCH_fuzz.json", Checks.fuzz, "crashes", Int 2, "2 inputs crashed");
    ("BENCH_fuzz.json", Checks.fuzz, "hangs", Int 1, "1 inputs hung");
    ("BENCH_portfolio.json", Checks.portfolio,
     "kernels.0.never_loses", Bool false,
     "md5: the portfolio winner scores worse");
    ("BENCH_throughput.json", Checks.throughput,
     "mixes.1.pressure.balanced.threads.2.served", Int 0,
     "S2: balanced served fewer critical-thread packets (0)");
    ("BENCH_throughput.json", Checks.throughput,
     "mixes.0.offered.fixed.engines.1.fault", String "sentinel trap",
     "S1 offered.fixed engine 1: sentinel trap");
    (* a missing member is a named failure, not an exception *)
    ("BENCH_chaos.json", Checks.chaos, "matrix", Int 0,
     "malformed report: matrix: not an array");
  ]

let fails_naming check expect r =
  let failures = Checks.apply check r in
  if not (List.exists (fun m -> contains m expect) failures) then
    Alcotest.failf "expected a failure naming %S, got [%s]" expect
      (String.concat "; " failures)

let flip_tests =
  List.map
    (fun (file, check, path, v, expect) ->
      test (Fmt.str "%s: %s" file expect) (fun () ->
          fails_naming check expect (set path v (committed file))))
    flips

let dataflow_needs_every_program =
  test "BENCH_dataflow.json: a report without md5 fails" (fun () ->
      let r = committed "BENCH_dataflow.json" in
      let path = "speedup_dense_over_reference" in
      match Checks.value r path with
      | Json.Obj speedups ->
        fails_naming Checks.dataflow "no member speedup_dense_over_reference.md5"
          (set path (Json.Obj (List.remove_assoc "md5" speedups)) r)
      | _ -> Alcotest.failf "%s is not an object" path)

let dataflow_quick_is_exempt =
  test "quick dataflow reports skip the speedup floor" (fun () ->
      let r =
        committed "BENCH_dataflow.json"
        |> set "speedup_dense_over_reference.md5" (Json.Float (2, 0.9))
        |> fun j ->
        match j with
        | Json.Obj members -> Json.Obj (("quick", Bool true) :: members)
        | _ -> Alcotest.fail "not an object"
      in
      Alcotest.(check (list string)) "no failures" [] (Checks.apply Checks.dataflow r))

(* The simspeed pool gates: jobs-1/jobs-2 identity in every mode, the
   jobs-2 speedup floor in full reports from hosts with two or more
   domains only. *)
let simspeed_pool_gates =
  let payload ~quick ~domains ~speedup ~identical =
    committed "BENCH_simspeed.json"
    |> set "quick" (Json.Bool quick)
    |> set "pool.domains" (Json.Int domains)
    |> set "pool.speedup_jobs2" (Json.Float (3, speedup))
    |> set "pool.identical_at_jobs1_and_jobs2" (Json.Bool identical)
  in
  [
    test "simspeed: a jobs-1/jobs-2 mismatch fails in every mode" (fun () ->
        List.iter
          (fun quick ->
            fails_naming Checks.simspeed
              "shard matrix differs between jobs 1 and jobs 2"
              (payload ~quick ~domains:2 ~speedup:1.5 ~identical:false))
          [ false; true ]);
    test "simspeed: a 0.9x jobs-2 speedup fails a full report on 2 domains"
      (fun () ->
        fails_naming Checks.simspeed "speedup 0.90x on 2 domains below floor 1.00x"
          (payload ~quick:false ~domains:2 ~speedup:0.9 ~identical:true));
    test "simspeed: the quick armed/off floor catches per-quad read checks"
      (fun () ->
        let quick ratio =
          payload ~quick:true ~domains:2 ~speedup:1.5 ~identical:true
          |> set "engines.sweep.trap_over_off" (Json.Float (3, ratio))
        in
        Alcotest.(check (list string)) "0.61 passes quick" []
          (Checks.apply Checks.simspeed (quick 0.61));
        fails_naming Checks.simspeed "armed/off sweep ratio 0.51 below floor 0.60"
          (quick 0.51));
    test "simspeed: a 0.9x speedup passes a quick report or a 1-domain host"
      (fun () ->
        List.iter
          (fun (quick, domains) ->
            Alcotest.(check (list string))
              (Fmt.str "quick %b, %d domains" quick domains)
              []
              (Checks.apply Checks.simspeed
                 (payload ~quick ~domains ~speedup:0.9 ~identical:true)))
          [ (true, 2); (false, 1) ]);
  ]

let suite =
  [
    ( "bench.checks",
      committed_pass @ flip_tests
      @ [ dataflow_needs_every_program; dataflow_quick_is_exempt ]
      @ simspeed_pool_gates );
  ]
