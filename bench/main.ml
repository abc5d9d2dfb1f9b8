(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§9) and writes the BENCH_*.json reports. Per-phase wall
   clock comes from [perfbench/run.py --trace 1], not from here.

   Usage:
     dune exec bench/main.exe              every subcommand
     dune exec bench/main.exe table1       one experiment
     dune exec bench/main.exe -- dataflow --json BENCH_dataflow.json

   Flags (the shared spec in Cli):
     --json PATH   overrides the selected subcommand's JSON output
                   path; valid only when the selection contains exactly
                   one JSON-writing subcommand
     --check FILE  applies the selected subcommand's checks to a report
                   already on disk instead of running it
     --quick       a short dataflow timing quota and short traffic
                   runs, for CI
     --seed N      replayable seed for the randomised harnesses; each
                   keeps its historical default when absent
     --jobs N      worker domains (default 1) for faults, fuzz,
                   throughput, portfolio and chip's shards; the other
                   subcommands run in one domain. Results are
                   deterministic: only the wall_clock block of the JSON
                   reports depends on N

   Absolute cycle numbers come from our machine model, not the IXP1200
   Developer Workbench, so EXPERIMENTS.md compares shapes and ratios
   against the paper, not raw values. *)

open Npra_cfg
open Npra_regalloc
open Npra_workloads
open Npra_core
open Npra_bench

(* ------------------------------------------------------------------ *)
(* Experiment reproduction.                                            *)

let run_table1 () =
  Report.print (Experiments.table1_report (Experiments.table1 ()));
  Fmt.pr
    "@.paper: 11 benchmarks, ~10%% CTX instructions, MinR/MinPR below \
     MaxR/MaxPR.@."

let run_fig14 () =
  let rows = Experiments.fig14 () in
  Report.print (Experiments.fig14_report rows);
  Fmt.pr "@.average total register saving: %.1f%% (paper: ~24%%)@."
    (Experiments.fig14_average rows)

let run_table2 () =
  Report.print (Experiments.table2_report (Experiments.table2 ()));
  Fmt.pr "@.paper: move overhead mostly within 10%% of code size.@."

let run_table3 () =
  let rows = Experiments.table3 () in
  Report.print (Experiments.table3_report rows);
  Fmt.pr
    "@.paper: 18-24%% speed-up for critical threads (md5, wraps), 1-4%% \
     degradation for the others.@.";
  List.iter
    (fun row ->
      List.iter
        (fun t ->
          if t.Experiments.change_pct < -5. then
            Fmt.pr "  %-12s speed-up %.1f%%@." t.Experiments.t3_name
              (100.
              *. ((t.Experiments.cyc_spill /. t.Experiments.cyc_sharing) -. 1.)))
        row.Experiments.threads)
    rows

(* ------------------------------------------------------------------ *)
(* Ablation: design choices called out in DESIGN.md.                   *)

(* Ablation 1: how much of Figure 14's saving comes from sharing versus
   merely balancing private blocks (all registers a thread uses counted
   private)? *)
let ablation_sharing () =
  Fmt.pr "@.== Ablation: shared registers vs private-only balancing ==@.";
  Fmt.pr "%-12s  %9s  %9s  %9s@." "benchmark" "4*chaitin" "balanced"
    "no-shared";
  List.iter
    (fun r ->
      match r.Experiments.f14_data with
      | None ->
        Fmt.pr "%-12s  (infeasible: %s)@." r.f14_name
          (Option.value r.f14_note ~default:"")
      | Some d ->
        (* no-shared: every register a thread touches must be private *)
        Fmt.pr "%-12s  %9d  %9d  %9d@." r.f14_name d.partitioned_demand
          d.shared_demand
          (4 * (d.pr + d.sr)))
    (Experiments.fig14 ())

(* Ablation 2: register-file size sweep — where does the balanced
   allocator stop fitting, and how does move cost grow as the file
   shrinks? The mix uses the kernels whose estimated upper bounds sit
   well above their pressure floors (drr, the forwarding halves), so the
   squeeze region where splitting pays for registers is visible. *)
let ablation_nreg () =
  Fmt.pr
    "@.== Ablation: register-file size sweep (drr + l2l3fwd rx/tx + url) ==@.";
  let sys =
    Registry.system
      (List.map Registry.find_exn [ "drr"; "l2l3fwd_rx"; "l2l3fwd_tx"; "url" ])
  in
  let progs = List.map Webs.rename sys.progs in
  Fmt.pr "%6s  %8s  %8s@." "nreg" "fits" "moves";
  List.iter
    (fun nreg ->
      match Inter.allocate ~nreg progs with
      | Ok inter -> Fmt.pr "%6d  %8s  %8d@." nreg "yes" (Inter.total_moves inter)
      | Error (`Infeasible _) -> Fmt.pr "%6d  %8s  %8s@." nreg "no" "-")
    [ 64; 56; 52; 50; 48; 46; 45; 44; 43; 42 ]

(* Ablation 3: static move count versus the loop-depth-weighted dynamic
   estimate at the Table-2 operating point. A move weighs 10^loop-depth
   (capped at 4) of its edge's source instruction. *)
let weighted_move_count ctx depth_of_instr =
  List.fold_left
    (fun acc ((p, _), _, _, _) ->
      let rec pow10 k = if k <= 0 then 1 else 10 * pow10 (k - 1) in
      acc + pow10 (min (depth_of_instr p) 4))
    0 (Context.crossing_moves ctx)

let ablation_cost () =
  Fmt.pr "@.== Ablation: static vs weighted move placement (table 2 point) ==@.";
  Fmt.pr "%-12s  %8s  %10s@." "benchmark" "#moves" "dyn-weight";
  List.iter
    (fun id ->
      let w = Registry.instantiate (Registry.find_exn id) ~slot:0 in
      let prog = Webs.rename w.Workload.prog in
      let loops = Loops.compute prog in
      let ctx = Context.create prog in
      let ctx, b = Estimate.run ctx in
      let target_pr = b.Estimate.min_pr in
      let target_sr = max 0 (b.Estimate.min_r - target_pr) in
      match
        Intra.reduce_to ctx ~pr:b.Estimate.max_pr ~r:b.Estimate.max_r
          ~target_pr ~target_sr
      with
      | None -> ()
      | Some red ->
        Fmt.pr "%-12s  %8d  %10d@." id red.Intra.cost
          (weighted_move_count red.Intra.ctx (Loops.depth loops)))
    [ "md5"; "fir2dim"; "l2l3fwd_rx"; "l2l3fwd_tx"; "wraps_tx" ]

(* Ablation 4: memory-latency sweep — how the headline Table-3 speedup
   scales with the cost of a memory access. Spills hurt in proportion to
   the latency they add, so the balanced allocator's advantage should
   grow with it (SRAM ~20 cycles on the IXP1200; SDRAM ~40). *)
let ablation_latency () =
  Fmt.pr "@.== Ablation: memory latency sweep (md5 x2 + fir2dim x2) ==@.";
  let { Registry.workloads; progs; mem_image; spill_bases } =
    Registry.system
      (List.map Registry.find_exn [ "md5"; "md5"; "fir2dim"; "fir2dim" ])
  in
  let iters = List.map (fun w -> w.Workload.iters) workloads in
  let base = Pipeline.baseline ~nreg:128 ~spill_bases progs in
  let bal = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
  Fmt.pr "%8s  %12s  %12s  %9s@." "latency" "md5(spill)" "md5(share)"
    "speedup";
  List.iter
    (fun mem_latency ->
      let config = { Npra_sim.Machine.default_config with mem_latency } in
      let cyc progs =
        let report =
          Npra_sim.Machine.report
            (Npra_sim.Machine.run ~config ~mem_image progs)
        in
        List.nth (Pipeline.cycles_per_iteration report iters) 0
      in
      let a = cyc base.Pipeline.base_programs
      and b = cyc bal.Pipeline.programs in
      Fmt.pr "%8d  %12.1f  %12.1f  %8.1f%%@." mem_latency a b
        (100. *. ((a /. b) -. 1.)))
    [ 5; 10; 20; 40; 80 ]

let run_ablation () =
  ablation_sharing ();
  ablation_nreg ();
  ablation_cost ();
  ablation_latency ()

(* ------------------------------------------------------------------ *)
(* Dataflow engine benchmark: dense bitset liveness vs the Reg.Set     *)
(* reference oracle, on every workload kernel plus a ~10k-instruction  *)
(* synthetic program. Writes the BENCH_dataflow.json trajectory file.  *)

(* The shared flags arrive pre-parsed in a {!Cli.opts}: --quick, --seed
   (each randomised harness keeps its historical default when absent)
   and --jobs (each pool task is one whole run, and the pool contract
   keeps every report identical at any job count; only the wall_clock
   member changes). *)
let pool (o : Cli.opts) = Npra_par.Pool.create ~jobs:o.Cli.jobs ()

type df_case = { df_name : string; median_ns : float; samples : int }

let median = function
  | [] -> Float.nan
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nanoseconds per run of each Bechamel sample of [test]. *)
let per_run_ns ~quick test =
  let open Bechamel in
  let quota = Time.second (if quick then 0.001 else 0.1) in
  let cfg = Benchmark.cfg ~limit:(if quick then 1 else 40) ~quota ~kde:None () in
  let raws = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let label = Measure.label Toolkit.Instance.monotonic_clock in
  Hashtbl.fold
    (fun _ b acc ->
      Array.fold_left
        (fun acc raw ->
          let runs = Measurement_raw.run raw in
          if runs > 0. then (Measurement_raw.get ~label raw /. runs) :: acc
          else acc)
        acc b.Benchmark.lr)
    raws []

let dataflow_programs () =
  let kernels =
    List.map
      (fun spec ->
        ( spec.Workload.id,
          (Registry.instantiate spec ~slot:0).Workload.prog ))
      Registry.all
  in
  kernels @ [ ("synthetic10k", Synthetic.large ~size:10_000 ()) ]

let run_dataflow (o : Cli.opts) =
  Fmt.pr "@.== Dataflow: dense bitset engine vs Reg.Set reference ==@.";
  let open Bechamel in
  Fmt.pr "%-24s %14s %14s %9s@." "program" "dense ns" "reference ns" "speedup";
  let cases, speedups =
    List.fold_left
      (fun (cases, speedups) (id, prog) ->
        let test name f = Test.make ~name (Staged.stage f) in
        let dense_name = Fmt.str "liveness-dense:%s" id
        and reference_name = Fmt.str "liveness-reference:%s" id in
        let dense_test = test dense_name (fun () -> Npra_cfg.Liveness.compute prog)
        and reference_test =
          test reference_name (fun () -> Npra_cfg.Liveness.compute_reference prog)
        in
        (* The engines take turns over five short runs each, so a slow
           spell on a shared host lands on both alike: timed one after
           the other in 0.5 s runs, the same build read small kernels
           anywhere from 0.76x to 1.69x. Each engine's figure is the
           median of its per-run medians. *)
        let runs =
          List.init 5 (fun _ ->
              let d = per_run_ns ~quick:o.Cli.quick dense_test in
              (d, per_run_ns ~quick:o.Cli.quick reference_test))
        in
        let case name samples =
          { df_name = name; median_ns = median (List.map median samples);
            samples = List.length (List.concat samples) }
        in
        let dense = case dense_name (List.map fst runs)
        and reference = case reference_name (List.map snd runs) in
        let speedup = reference.median_ns /. dense.median_ns in
        Fmt.pr "%-24s %14.1f %14.1f %8.2fx@." id dense.median_ns
          reference.median_ns speedup;
        (cases @ [ dense; reference ], speedups @ [ (id, speedup) ]))
      ([], []) (dataflow_programs ())
  in
  let case c =
    Json.Obj
      [ ("name", String c.df_name); ("median_ns_per_run", Float (1, c.median_ns));
        ("samples", Int c.samples) ]
  in
  Json.Obj
    [ ("benchmark", String "dataflow"); ("unit", String "ns/run");
      ("quick", Bool o.Cli.quick); ("cases", List (List.map case cases));
      ( "speedup_dense_over_reference",
        Obj (List.map (fun (id, s) -> (id, Json.Float (2, s))) speedups) ) ]

(* ------------------------------------------------------------------ *)
(* Fault-injection detection matrix: every (kernel x fault) cell        *)
(* through static Verify and the sentinel-armed simulator. Writes       *)
(* BENCH_faults.json and fails the process if any injected fault goes   *)
(* undetected — the robustness gate CI leans on.                        *)

let run_faults (o : Cli.opts) =
  let specs =
    if o.Cli.quick then
      (* a light smoke subset; wraps_rx exercises the Chaitin fallback *)
      List.filter
        (fun s -> List.mem s.Workload.id [ "crc32"; "url"; "wraps_rx" ])
        Registry.all
    else Registry.all
  in
  Fmt.pr "@.== Fault injection: static verify + runtime sentinel (%d jobs) ==@."
    o.Cli.jobs;
  let m = Npra_fault.Driver.run ~pool:(pool o) ?seed:o.Cli.seed ~specs () in
  Fmt.pr "%a" Npra_fault.Driver.pp m;
  Npra_fault.Driver.to_json m

(* ------------------------------------------------------------------ *)
(* Never-crash fuzzing: random bytes, mutated kernels and round-trips   *)
(* through the total frontends and the full pipeline. Writes            *)
(* BENCH_fuzz.json and fails the process on any uncaught exception,     *)
(* any wall-clock hang, or any seeded crasher that is not rejected      *)
(* with structured diagnostics.                                         *)

let run_fuzz (o : Cli.opts) =
  let open Npra_fuzz in
  let count = if o.Cli.quick then 1_500 else 12_000 in
  Fmt.pr
    "@.== Fuzz: never-crash contract over both frontends (%d inputs, %d jobs) \
     ==@."
    count o.Cli.jobs;
  let stats =
    Fuzz.run ~pool:(pool o) ~seed:(Option.value o.Cli.seed ~default:42) ~count ()
  in
  Fmt.pr "inputs          %8d@." stats.Fuzz.inputs;
  Fmt.pr "  rejected      %8d  (structured diagnostics)@." stats.Fuzz.rejected;
  Fmt.pr "  accepted      %8d  (allocated, verified, simulated)@."
    stats.Fuzz.accepted;
  Fmt.pr "  alloc failed  %8d  (degradation chain exhausted)@."
    stats.Fuzz.alloc_failed;
  Fmt.pr "  verify failed %8d@." stats.Fuzz.verify_failed;
  Fmt.pr "  budget stops  %8d  (cycle limit / deadlock, structured)@."
    stats.Fuzz.budget_stopped;
  Fmt.pr "crashes         %8d@." stats.Fuzz.crashes;
  Fmt.pr "hangs           %8d  (slowest input %.3fs)@." stats.Fuzz.hangs
    stats.Fuzz.slowest_s;
  List.iter
    (fun (lang, src, exn) ->
      Fmt.epr "CRASH [%s]: %s@.  input: %s@." (Fuzz.lang_name lang) exn src)
    stats.Fuzz.crash_reports;
  Fuzz.to_json stats

(* The seeded crasher corpus is a fixed property of the frontends, not
   of a fuzz run, so it gates every fuzz report alongside its counters. *)
let unrejected_crashers () =
  List.map
    (fun (lang, src, why) ->
      Fmt.str "crasher not rejected [%s]: %s; input: %S"
        (Npra_fuzz.Fuzz.lang_name lang) why src)
    (Npra_fuzz.Fuzz.crashers_rejected ())

(* ------------------------------------------------------------------ *)
(* Packet-traffic throughput: the paper's headline claim, measured as   *)
(* sustained packets/cycle instead of cycles/iteration. Each Table-3    *)
(* mix runs twice — fixed-partition Chaitin vs the balanced allocator,  *)
(* from the same Pipeline entry points — under byte-identical traffic   *)
(* on a bank of micro-engines. Writes BENCH_throughput.json and fails   *)
(* the process if any engine faults (sentinel trap or drained           *)
(* deadlock), or if the balanced allocation serves fewer critical-      *)
(* thread packets than the spilling baseline under saturation.          *)

type mix = { mix_name : string; mix_ids : string list; critical : int }

(* The Table-3 scenarios; [critical] is the register-starved thread the
   paper speeds up (md5, md5, wraps_tx). *)
let throughput_mixes =
  [
    { mix_name = "S1"; critical = 0;
      mix_ids = [ "md5"; "md5"; "fir2dim"; "fir2dim" ] };
    { mix_name = "S2"; critical = 2;
      mix_ids = [ "l2l3fwd_rx"; "l2l3fwd_tx"; "md5"; "md5" ] };
    { mix_name = "S3"; critical = 1;
      mix_ids = [ "wraps_rx"; "wraps_tx"; "fir2dim"; "frag" ] };
  ]

type mix_result = {
  r_mix : mix;
  r_provenance : Npra_core.Pipeline.stage;
  r_duration : int;
  r_pressure_fixed : Npra_traffic.Metrics.run_metrics;
  r_pressure_bal : Npra_traffic.Metrics.run_metrics;
  r_offered_fixed : Npra_traffic.Metrics.run_metrics;
  r_offered_bal : Npra_traffic.Metrics.run_metrics;
}

let ts_of r i = List.nth (Npra_traffic.Metrics.thread_summaries r) i
let served_of r i = (ts_of r i).Npra_traffic.Metrics.ts_served
let service_of r i = (ts_of r i).Npra_traffic.Metrics.ts_mean_service

(* Throughput change of thread [i], balanced over fixed, in percent
   (positive = balanced serves more packets). *)
let change_pct fixed bal i =
  let b = served_of fixed i and s = served_of bal i in
  if b = 0 then 0. else 100. *. ((float_of_int s /. float_of_int b) -. 1.)

let service_speedup_pct fixed bal i =
  let b = service_of fixed i and s = service_of bal i in
  if s = 0. then 0. else 100. *. ((b /. s) -. 1.)

let run_throughput_mix ~pool ~quick ~seed ~engines mix =
  let open Npra_traffic in
  let sys, traffic =
    Registry.traffic_system (List.map Registry.find_exn mix.mix_ids)
  in
  let base, bal =
    Pipeline.contenders ~pool ~nreg:128 ~spill_bases:sys.spill_bases sys.progs
  in
  let bal =
    match bal with
    | Ok b -> b
    | Error trail ->
      Fmt.epr "THROUGHPUT FAILURE: %s: every allocation stage failed:@.%a@."
        mix.mix_name
        Fmt.(list ~sep:(any "@.") Pipeline.pp_diagnostic)
        trail;
      exit 1
  in
  (* Solo per-packet service time of each baseline program calibrates
     the saturation regime and the run length — both therefore
     deterministic. *)
  let solo = Arrival.solo_service sys base.Pipeline.base_programs in
  let max_solo = List.fold_left max 1 solo in
  let duration = (if quick then 25 else 120) * max_solo in
  let run (progs, specs) =
    Dispatch.run ~engines ~sentinel:`Trap ~refresh:(Registry.refresh sys ~seed)
      ~seed ~duration ~specs ~mem_image:sys.mem_image progs
  in
  (* Saturation: uniform arrivals at twice each thread's solo service
     rate, so queues never run dry and served packets measure service
     speed. Offered: the registry's per-kernel models (uniform, Poisson,
     bursty), the realistic regime for drops and latency tails. *)
  let pressure_specs =
    List.map2
      (fun s t ->
        { t with Workload.arrival = Workload.Uniform { period = max 1 (s / 2) } })
      solo traffic
  in
  (* the four runs are independent whole runs: one pool task each *)
  let runs =
    Array.of_list
      (Npra_par.Pool.map_list pool run
         [ (base.Pipeline.base_programs, pressure_specs);
           (bal.Pipeline.programs, pressure_specs);
           (base.Pipeline.base_programs, traffic);
           (bal.Pipeline.programs, traffic) ])
  in
  {
    r_mix = mix;
    r_provenance = bal.Pipeline.provenance;
    r_duration = duration;
    r_pressure_fixed = runs.(0);
    r_pressure_bal = runs.(1);
    r_offered_fixed = runs.(2);
    r_offered_bal = runs.(3);
  }

let throughput_mix_json r =
  let crit = r.r_mix.critical and fixed = r.r_pressure_fixed and bal = r.r_pressure_bal in
  let pair f b =
    Npra_traffic.Metrics.(Json.Obj [ ("fixed", json f); ("balanced", json b) ])
  in
  let coresident =
    List.filter (fun i -> i <> crit) (List.init (List.length r.r_mix.mix_ids) Fun.id)
  in
  Json.Obj
    [ ("mix", String r.r_mix.mix_name);
      ("kernels", List (List.map (fun id -> Json.String id) r.r_mix.mix_ids));
      ("critical", Int crit); ("critical_kernel", String (List.nth r.r_mix.mix_ids crit));
      ("provenance", String (Fmt.str "%a" Pipeline.pp_stage r.r_provenance));
      ("duration", Int r.r_duration);
      ("critical_speedup_pct", Float (2, change_pct fixed bal crit));
      ("critical_service_speedup_pct", Float (2, service_speedup_pct fixed bal crit));
      ( "coresident_change_pct",
        List (List.map (fun i -> Json.Float (2, change_pct fixed bal i)) coresident) );
      ("pressure", pair fixed bal); ("offered", pair r.r_offered_fixed r.r_offered_bal) ]

let run_throughput (o : Cli.opts) =
  let open Npra_traffic in
  let seed = Option.value o.Cli.seed ~default:1 in
  let engines = if o.Cli.quick then 2 else 3 in
  Fmt.pr
    "@.== Throughput: balanced vs fixed-partition under packet traffic \
     (%d engines, seed %d, %d jobs) ==@."
    engines seed o.Cli.jobs;
  let results =
    List.map
      (run_throughput_mix ~pool:(pool o) ~quick:o.Cli.quick ~seed ~engines)
      throughput_mixes
  in
  List.iter
    (fun r ->
      let crit = r.r_mix.critical in
      Fmt.pr "@.-- %s (%s), critical %s, %d cycles [%a] --@." r.r_mix.mix_name
        (String.concat "+" r.r_mix.mix_ids)
        (List.nth r.r_mix.mix_ids crit)
        r.r_duration Npra_core.Pipeline.pp_stage r.r_provenance;
      Fmt.pr "saturation, fixed partition:@.%a" Metrics.pp r.r_pressure_fixed;
      Fmt.pr "saturation, balanced:@.%a" Metrics.pp r.r_pressure_bal;
      Fmt.pr "offered traffic, fixed partition:@.%a" Metrics.pp
        r.r_offered_fixed;
      Fmt.pr "offered traffic, balanced:@.%a" Metrics.pp r.r_offered_bal;
      Fmt.pr
        "critical thread %s: throughput %+.1f%%, service time speedup \
         %+.1f%% (paper: 18-24%% speedup)@."
        (List.nth r.r_mix.mix_ids crit)
        (change_pct r.r_pressure_fixed r.r_pressure_bal crit)
        (service_speedup_pct r.r_pressure_fixed r.r_pressure_bal crit);
      List.iteri
        (fun i id ->
          if i <> crit then
            Fmt.pr "  co-resident %-12s throughput %+.1f%% (paper: -1..-4%%)@."
              id
              (change_pct r.r_pressure_fixed r.r_pressure_bal i))
        r.r_mix.mix_ids)
    results;
  let members =
    [ ("benchmark", Json.String "throughput"); ("seed", Int seed);
      ("engines", Int engines); ("quick", Bool o.Cli.quick);
      ("mixes", List (List.map throughput_mix_json results)) ]
  in
  let ok = Checks.apply Checks.throughput_gates (Obj members) = [] in
  Json.Obj (members @ [ ("ok", Bool ok) ])

(* ------------------------------------------------------------------ *)
(* Portfolio race: the parallel strategy slate vs the sequential       *)
(* fallback chain on every registry kernel. Writes                     *)
(* BENCH_portfolio.json (deterministic payload + wall_clock block) and *)
(* exits non-zero if the portfolio ever scores worse than the chain.   *)

let run_portfolio (o : Cli.opts) =
  let seed = Option.value o.Cli.seed ~default:1 in
  Fmt.pr
    "@.== Portfolio: strategy race vs the fallback chain (seed %d, %d \
     jobs%s) ==@."
    seed o.Cli.jobs
    (if o.Cli.quick then ", quick" else "");
  let rows =
    Experiments.portfolio_rows ~pool:(pool o) ~quick:o.Cli.quick ~seed ()
  in
  Report.print (Experiments.portfolio_report rows);
  Experiments.portfolio_json ~seed ~quick:o.Cli.quick rows

(* ------------------------------------------------------------------ *)
(* The seeded matrices of the fabric drivers, each run under --seed    *)
(* (default 42) and --quick; only chip's shards take --jobs:           *)
(*   chaos — kernel mixes x injected fault schedules through the        *)
(*     dispatcher's watchdog; every cell completes, conserves           *)
(*     packets and delivers above its degradation floor;                *)
(*   adapt — every shifting-traffic scenario with the allocation        *)
(*     frozen vs the Adapt control loop; adaptive serves >= static      *)
(*     within the hysteresis bound, conserving packets;                 *)
(*   chip — sharded dispatch over the tiered memory hierarchy plus      *)
(*     inter-engine chains; conservation, SLOs, the offered floor, the  *)
(*     same offered traffic under both allocations and balanced >=      *)
(*     fixed on the critical thread.                                    *)

let run_matrix title run pp to_json (o : Cli.opts) =
  let seed = Option.value o.Cli.seed ~default:42 in
  Fmt.pr "@.== %s (seed %d%s) ==@." title seed
    (if o.Cli.quick then ", quick" else "");
  let m = run o ~seed ~quick:o.Cli.quick in
  Fmt.pr "%a" pp m;
  to_json m

let run_chaos =
  Npra_fault.Chaosdriver.(
    run_matrix "Chaos: engine failure injection, watchdog quarantine, re-dispatch"
      (fun _ ~seed ~quick -> run ~seed ~quick ()) pp to_json)

let run_adapt =
  Npra_fault.Adaptdriver.(
    run_matrix "Adapt: metrics-driven re-balancing vs a frozen allocation"
      (fun _ ~seed ~quick -> run ~seed ~quick ()) pp to_json)

let run_chip =
  Npra_chip.Driver.(
    run_matrix "Chip: sharded dispatch, tiered memory, inter-engine chains"
      (fun o ~seed ~quick -> run ~pool:(pool o) ~seed ~quick ()) pp to_json)

(* ------------------------------------------------------------------ *)

let () =
  let report name run check =
    Cli.Report { Cli.name; json_default = Fmt.str "BENCH_%s.json" name; run; check }
  in
  Cli.main
    [
      Text ("table1", run_table1);
      Text ("fig14", run_fig14);
      Text ("table2", run_table2);
      Text ("table3", run_table3);
      Text ("ablation", run_ablation);
      report "dataflow" run_dataflow Checks.dataflow;
      report "faults" run_faults Checks.faults;
      report "fuzz" run_fuzz (fun r -> Checks.fuzz r @ unrejected_crashers ());
      report "throughput" run_throughput Checks.throughput;
      report "portfolio" run_portfolio Checks.portfolio;
      report "chaos" run_chaos Checks.chaos;
      report "adapt" run_adapt Checks.adapt;
      report "chip" run_chip Checks.chip;
      report "simspeed" Simspeed.run Checks.simspeed;
    ]
    (List.tl (Array.to_list Sys.argv))
