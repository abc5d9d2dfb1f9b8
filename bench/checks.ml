(* The acceptance checks of every BENCH_*.json report.

   Each check reads the report as JSON and returns one message per
   failed assertion, so the same function gates a fresh run (the bench
   binary exits 1 on any message) and a committed report
   (`bench NAME --check FILE`). A member that is missing or has the
   wrong type raises [Malformed]; {!apply} turns that into a message. *)

open Npra_core

exception Malformed of string

let malformed fmt = Fmt.kstr (fun m -> raise (Malformed m)) fmt
let find j k = match j with Json.Obj members -> List.assoc_opt k members | _ -> None

(* [get what conv j "a.b.c"] is member c of member b of member a of [j],
   read by [conv]. *)
let get what conv j path =
  let v =
    List.fold_left
      (fun v k -> match find v k with Some v -> v | None -> malformed "no member %s" path)
      j (String.split_on_char '.' path)
  in
  match conv v with Some x -> x | None -> malformed "%s: not %s" path what

let value = get "a value" Option.some
let int = get "an integer" (function Json.Int n -> Some n | _ -> None)
let bool = get "a boolean" (function Json.Bool b -> Some b | _ -> None)
let str = get "a string" (function Json.String s -> Some s | _ -> None)
let list = get "an array" (function Json.List l -> Some l | _ -> None)

let num =
  get "a number" (function
    | Json.Int n -> Some (float_of_int n)
    | Float (_, x) -> Some x
    | _ -> None)

let require ok fmt = Fmt.kstr (fun m -> if ok then [] else [ m ]) fmt
let apply check j = try check j with Malformed m -> [ "malformed report: " ^ m ]
let each r path f = List.concat_map f (list r path)

(* The report's own "ok" member records whether [gates] passed when it
   was written. *)
let with_ok gates r = gates r @ require (bool r "ok") "ok is false"

(* ---- the reports ---- *)

let all_ok r = require (bool r "all_ok") "all_ok is false"

let adapt r =
  all_ok r
  @ each r "matrix" (fun c ->
        let name = str c "scenario" and rebalances = int c "rebalances" in
        let static = int c "static.critical_served"
        and adaptive = int c "adaptive.critical_served" in
        require (bool c "ok") "%s: cell not ok" name
        @ require (adaptive >= static)
            "%s: adaptive served %d critical packets, static %d" name adaptive static
        @ require (rebalances <= int c "bound")
            "%s: %d re-balances exceed the hysteresis bound %d" name rebalances
            (int c "bound"))

let chip r =
  all_ok r
  @ each r "cells" (fun c ->
        let name = str c "name" in
        let conserved path what =
          require (bool c (path ^ ".conservation")) "%s: %s lost packets" name what
        in
        require (bool c "ok") "%s: cell not ok" name
        @
        match str c "kind" with
        | "shard" ->
          let fixed = int c "fixed_critical_served"
          and balanced = int c "balanced_critical_served" in
          (* both folds draw their arrivals from the same seeds, so the
             allocation must not change what is offered *)
          let offered run =
            List.map (fun t -> int t "offered") (list c (run ^ ".threads"))
          in
          conserved "fixed" "fixed fold" @ conserved "balanced" "balanced fold"
          @ require
              (offered "fixed" = offered "balanced")
              "%s: fixed and balanced folds offered different traffic (%d vs %d \
               packets)"
              name (int c "fixed.offered") (int c "balanced.offered")
          @ require (balanced >= fixed)
              "%s: balanced served %d critical packets, fixed %d" name balanced fixed
        | "shard-chaos" -> conserved "run" "chaos fold"
        | "chain" ->
          let depth = int c "chain.max_queue" and cap = int c "chain.queue_capacity" in
          conserved "chain" "chain"
          @ require (bool c "chain.slo_ok") "%s: missed its p99 SLO" name
          @ require (depth <= cap) "%s: queue depth %d exceeds capacity %d" name depth cap
        | kind -> [ Fmt.str "%s: unknown cell kind %S" name kind ])

let chaos r =
  all_ok r
  @ each r "matrix" (fun c ->
        let name = str c "mix" ^ "/" ^ str c "scenario" in
        require (bool c "conservation") "%s: packet conservation broken" name
        @ require (bool c "ok") "%s: cell not ok (delivered %.4f, bound %.4f)" name
            (num c "delivered") (num c "bound"))

(* A dataflow report times every registry kernel and the
   10k-instruction synthetic program; a missing one is malformed. Dense
   liveness must beat the Reg.Set reference on every program, and by 3x
   on the synthetic one, in full runs only: quick quotas are too short
   to time reliably. A report without a "quick" member is a full-mode
   report. *)
let dataflow r =
  let open Npra_workloads in
  let quick = find r "quick" = Some (Json.Bool true) in
  List.concat_map
    (fun program ->
      let s = num r ("speedup_dense_over_reference." ^ program) in
      let floor = if program = "synthetic10k" then 3.0 else 1.0 in
      require (quick || s >= floor) "dense dataflow is %.2fx on %s (< %.1fx)" s
        program floor)
    (List.map (fun spec -> spec.Workload.id) Registry.all @ [ "synthetic10k" ])

let faults r =
  require (bool r "all_detected") "all_detected is false"
  @ each r "kernels" (fun k ->
        let name = str k "kernel" in
        require (bool k "clean_sentinel_silent")
          "%s: the sentinel trapped on the clean system" name
        @ each k "faults" (fun f ->
              require ((not (bool f "applied")) || bool f "detected")
                "%s: injected %s went undetected" name (str f "fault")))

let fuzz r =
  require (int r "crashes" = 0) "%d inputs crashed" (int r "crashes")
  @ require (int r "hangs" = 0) "%d inputs hung" (int r "hangs")

let portfolio r =
  require (bool r "never_loses_all") "never_loses_all is false"
  @ each r "kernels" (fun k ->
        require (bool k "never_loses")
          "%s: the portfolio winner scores worse than the fallback chain"
          (str k "kernel"))

(* Under saturation the balanced allocation must serve at least as many
   critical-thread packets as the fixed partition, and no engine of any
   run may fault. *)
let throughput_gates r =
  each r "mixes" (fun m ->
      let name = str m "mix" and crit = int m "critical" in
      let served run =
        match List.nth_opt (list m (run ^ ".threads")) crit with
        | Some t -> int t "served"
        | None -> malformed "%s: no thread %d in %s" name crit run
      in
      List.concat_map
        (fun run ->
          each m (run ^ ".engines") (fun e ->
              match value e "fault" with
              | Json.Null -> []
              | _ ->
                [ Fmt.str "%s %s engine %d: %s" name run (int e "engine")
                    (str e "fault") ]))
        [ "pressure.fixed"; "pressure.balanced"; "offered.fixed"; "offered.balanced" ]
      @ require (served "pressure.balanced" >= served "pressure.fixed")
          "%s: balanced served fewer critical-thread packets (%d) than the fixed \
           partition (%d) under saturation"
          name (served "pressure.balanced") (served "pressure.fixed"))

let throughput = with_ok throughput_gates

(* The simspeed floors. soa must match legacy on every kernel and the
   shard matrix must be byte-identical at jobs 1 and jobs 2 in every
   mode; the sweep-wide soa/legacy and armed/off ratio floors drop to
   sanity bounds in quick mode, whose quotas are too short to defend
   the full-mode ratios. The armed/off floors hold the sentinel's cost:
   on a 2-core host a register-file copy at every context switch read
   about 0.23 in both modes, a read check on every register-touching
   quad about 0.51 in both modes, and guarded bursts, which check reads
   only when a register they may read has a foreign owner, 0.73-0.74,
   so both bounds catch a return to per-quad read checks. The absolute
   rate floor applies to full runs only, and so does the jobs-2 speedup
   floor, on hosts with at least two domains: a quick run times a
   single pair. *)
let floor_soa_over_legacy = 6.3
let floor_soa_over_legacy_quick = 1.0
let floor_trap_over_off = 0.62
let floor_trap_over_off_quick = 0.6
let floor_soa_cps = 2_000_000.
let floor_speedup_jobs2 = 1.0

let simspeed_ratio_floor ~quick =
  if quick then floor_soa_over_legacy_quick else floor_soa_over_legacy

let trap_ratio_floor ~quick =
  if quick then floor_trap_over_off_quick else floor_trap_over_off

let simspeed_floors r =
  let quick = bool r "quick" in
  let ratio_floor = simspeed_ratio_floor ~quick
  and trap_floor = trap_ratio_floor ~quick in
  let sweep = num r "engines.sweep.soa_over_legacy"
  and trap = num r "engines.sweep.trap_over_off"
  and soa = num r "engines.sweep.soa_cps"
  and domains = int r "pool.domains"
  and speedup = num r "pool.speedup_jobs2" in
  each r "engines.kernels" (fun k ->
      require (num k "soa_cps" >= num k "legacy_cps")
        "%s: soa %.0f c/s below legacy %.0f c/s" (str k "name") (num k "soa_cps")
        (num k "legacy_cps"))
  @ require (sweep >= ratio_floor) "soa/legacy sweep ratio %.2f below floor %.2f" sweep
      ratio_floor
  @ require (trap >= trap_floor) "armed/off sweep ratio %.2f below floor %.2f" trap
      trap_floor
  @ require (quick || soa >= floor_soa_cps) "soa sweep rate %.0f c/s below floor %.0f" soa
      floor_soa_cps
  @ require
      (quick || domains < 2 || speedup >= floor_speedup_jobs2)
      "jobs-2 shard matrix speedup %.2fx on %d domains below floor %.2fx" speedup
      domains floor_speedup_jobs2
  @ require (bool r "pool.identical_at_jobs1_and_jobs2")
      "shard matrix differs between jobs 1 and jobs 2"

let simspeed = with_ok simspeed_floors
