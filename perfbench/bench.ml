(* The benchmark driver.

     bench --workload compile|squeeze|chip|fabric --seed N --seconds S
           --trace 0|1

   --trace 0 sets the workload up five times (reporting the median as
   setup_s), then runs its seeded operation stream in a closed loop for
   S seconds from a cleared allocation cache and a compacted heap,
   checks every output, and prints the end-to-end metrics.

   --trace 1 runs a fixed number of operations, each untraced and then
   replayed layer by layer under the span recorder, and prints the
   per-layer metrics; the per-layer table and a Chrome trace-event file
   are written to perfbench/out.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. Any failed check makes the
   exit code 1. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("op_ms_p50", "ms");
    ("op_ms_tail", "ms");
    ("ops_per_s", "1/s");
    ("sim_mcycles_per_s", "Mcycles/s");
  ]

let per_layer =
  [
    ("asm.parse_ms", "ms");
    ("asm.kinstr_per_s", "kinstr/s");
    ("cfg.webs_ms", "ms");
    ("regalloc.context_ms", "ms");
    ("regalloc.estimate_ms", "ms");
    ("regalloc.inter_reduce_ms", "ms");
    ("regalloc.inter_reductions", "count");
    ("regalloc.ms_per_reduction", "ms");
    ("regalloc.chaitin_ms", "ms");
    ("regalloc.chaitin_mixes", "count");
    ("regalloc.rewrite_ms", "ms");
    ("regalloc.verify_ms", "ms");
    ("regalloc.demand_regs", "regs");
    ("regalloc.moves", "count");
    ("regalloc.spilled_ranges", "count");
    ("machine.generated_kcycles", "kcycles");
    ("pipeline.cache_hits", "count");
    ("pipeline.cache_misses", "count");
    ("pipeline.unattributed_share", "ratio");
    ("machine.solo_mcycles_per_s", "Mcycles/s");
    ("machine.solo_mcycles_per_s_trap", "Mcycles/s");
    ("shard.run_ms", "ms");
    ("shard.critical_served_gain_pct", "%");
    ("dispatch.run_ms", "ms");
    ("dispatch.overhead_ratio", "ratio");
    ("dispatch.delivered_fraction", "ratio");
    ("dispatch.redispatched", "count");
    ("chain.run_ms", "ms");
    ("chain.served", "count");
    ("chain.p99_cycles", "cycles");
    ("refresh.ms", "ms");
    ("refresh.calls", "count");
    ("adapt.controller_ms", "ms");
    ("adapt.controller_calls", "count");
    ("adapt.rebalances", "count");
    ("adapt.cache_hits", "count");
    ("chaos.injected", "count");
    ("watchdog.fired", "count");
    ("pool.speedup_jobs2", "x");
    ("pool.steals", "count");
    ("gc.minor_mwords", "Mwords");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace.attributed_share", "ratio");
    ("trace.overhead_pct", "%");
  ]

(* name, set-up, operations replayed by the traced run *)
let workloads =
  [
    ("compile", Wl_compile.setup ~squeeze:false, 30);
    ("squeeze", Wl_compile.setup ~squeeze:true, 12);
    ("chip", Wl_sim.chip_setup, 16);
    ("fabric", Wl_sim.fabric_setup, 16);
  ]

(* Every digit as measured; a value left undefined by failed operations
   (no sample to divide by) prints as 0 to keep the line valid JSON. *)
let json_number x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string name)
          (json_number v) (Trace.json_string unit))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

type tally = {
  mutable ops : int;
  mutable failed_ops : int;
  mutable times : float list;  (* newest first *)
  mutable refs : float list;  (* reference time before each operation *)
  mutable sims : (float * float) list;  (* simulated cycles, host seconds *)
  mutable gc : Stats.gc;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let tally () =
  { ops = 0; failed_ops = 0; times = []; refs = []; sims = [];
    gc = { Stats.minor_words = 0.; minor = 0; major = 0 };
    cache_hits = 0; cache_misses = 0 }

(* Runs operation [i] untraced under the clock and returns it; its
   check runs later, in [settle], outside the timed window. End-to-end
   runs time the host reference just before it (see [Stats.calibrate]). *)
let run_one ?(clock = Stats.cpu) ?(reference = false) (inst : Common.instance) t i =
  if reference then t.refs <- Stats.reference_s () :: t.refs;
  let c0 = Npra_core.Pipeline.cache_stats () in
  let g0 = Stats.gc_now () in
  let t0 = clock () in
  let op = inst.Common.run_op i in
  let dt = clock () -. t0 in
  let d = Stats.gc_delta g0 (Stats.gc_now ()) in
  let c1 = Npra_core.Pipeline.cache_stats () in
  t.cache_hits <- t.cache_hits + c1.Npra_core.Pipeline.hits - c0.Npra_core.Pipeline.hits;
  t.cache_misses <-
    t.cache_misses + c1.Npra_core.Pipeline.misses - c0.Npra_core.Pipeline.misses;
  t.gc <-
    { Stats.minor_words = t.gc.Stats.minor_words +. d.Stats.minor_words;
      minor = t.gc.Stats.minor + d.Stats.minor;
      major = t.gc.Stats.major + d.Stats.major };
  t.times <- dt :: t.times;
  t.ops <- t.ops + 1;
  op

(* Checks an operation's outputs, counting it failed when any check
   fails, then collects the heap so every operation starts from the
   same small live set — as every [npra] invocation starts from a fresh
   process — instead of paying the previous one's garbage. *)
let settle c t (op : Common.op) =
  let before = c.Common.failed in
  let cycles, sim_s = op.Common.verify c in
  if c.Common.failed > before then t.failed_ops <- t.failed_ops + 1;
  t.sims <- (op.Common.cycles +. cycles, op.Common.sim_s +. sim_s) :: t.sims;
  Gc.full_major ()

let report_failures c =
  List.iter (fun f -> Printf.printf "check failed: %s\n" f) (List.rev c.Common.failures)

(* One set-up from the same state every time: an empty allocation cache
   and a compacted heap. *)
let setup_once setup ~seed =
  Stats.quiesce ();
  let t0 = Stats.cpu () in
  let inst = setup ~seed in
  (Stats.cpu () -. t0, inst)

let end_to_end_run name setup ~seed ~seconds =
  (* five set-ups, each rescaled by the median of three reference runs
     just before it *)
  let runs =
    List.init 5 (fun _ ->
        let refs = List.init 3 (fun _ -> Stats.reference_s ()) in
        let s, inst = setup_once setup ~seed in
        (s *. (Stats.reference_ms /. 1e3) /. Stats.median refs, s, inst))
  in
  let setup_s = Stats.median (List.map (fun (s, _, _) -> s) runs) in
  let _, _, inst = List.nth runs 4 in
  let c = Common.checks () in
  let t = tally () in
  Stats.quiesce ();
  let deadline = Stats.now () +. seconds in
  while Stats.now () < deadline do
    settle c t (run_one ~reference:true inst t t.ops)
  done;
  let raw = Array.of_list (List.rev t.times) in
  let refs = Array.of_list (List.rev t.refs) in
  let ref_med = Stats.median (Array.to_list refs) in
  let times_ms = List.map (fun s -> 1e3 *. s) (Array.to_list (Stats.calibrate raw refs)) in
  let busy = List.fold_left ( +. ) 0. times_ms /. 1e3 in
  let pct = inst.Common.tail_pct in
  let tail, beyond = Stats.tail ~design:pct times_ms in
  let sims = Array.of_list (List.rev t.sims) in
  let sum a = Array.fold_left ( +. ) 0. a in
  let cycles = sum (Array.map fst sims) in
  let raw_rate = cycles /. sum (Array.map snd sims) /. 1e6 in
  let sim_rate = cycles /. sum (Stats.calibrate (Array.map snd sims) refs) /. 1e6 in
  Printf.printf
    "%s: seed %d, %d operations, %d checks, %d failed\n\
    \  measured: p50 %.2f ms, %.3f Mcycles/s, reference %.3f ms (median)\n\
    \  at reference speed: p50 %.2f ms, p%g %.2f ms (%d samples beyond), \
     %.2f ops/s, %.3f Mcycles/s\n"
    name seed t.ops c.Common.attempted c.Common.failed
    (1e3 *. Stats.median (Array.to_list raw)) raw_rate (1e3 *. ref_med)
    (Stats.median times_ms) pct tail beyond
    (float_of_int t.ops /. busy) sim_rate;
  report_failures c;
  let metrics =
    [
      ("setup_s", setup_s);
      ("peak_rss_mb", Stats.peak_rss_mb ());
      ("op_ms_p50", Stats.median times_ms);
      ("op_ms_tail", tail);
      ("ops_per_s", float_of_int t.ops /. busy);
      ("sim_mcycles_per_s", sim_rate);
    ]
  in
  let correct = c.Common.failed = 0 in
  result_line ~correct ~attempted:t.ops ~failed:t.failed_ops
    (List.map (fun (n, u) -> (n, u, List.assoc n metrics)) end_to_end);
  correct

let out_dir = Filename.concat "perfbench" "out"

let traced_run name setup ~ops ~seed =
  let _, inst = setup_once setup ~seed in
  let c = Common.checks () in
  let t = tally () in
  let tr = Trace.create () in
  (* one discarded untraced pass fills the allocation cache the
     operations share; then each operation runs untraced and traced back
     to back, in alternating order, so both see the same host
     conditions and cache state and the difference is the recorder's
     own cost *)
  Stats.quiesce ();
  for i = 0 to ops - 1 do
    ignore ((inst.Common.run_op i).Common.verify (Common.checks ()))
  done;
  Gc.full_major ();
  for i = 0 to ops - 1 do
    let op =
      if i mod 2 = 0 then begin
        let op = run_one ~clock:Stats.now inst t i in
        inst.Common.trace tr i;
        op
      end
      else begin
        inst.Common.trace tr i;
        run_one ~clock:Stats.now inst t i
      end
    in
    settle c t op
  done;
  let untraced_s = List.fold_left ( +. ) 0. t.times in
  let layers =
    inst.Common.layers tr ~untraced_s
      ~untraced_cycles:(List.fold_left (fun a (cy, _) -> a +. cy) 0. t.sims)
      ~ops c
    @ [
        ("pipeline.cache_hits", float_of_int t.cache_hits);
        ("pipeline.cache_misses", float_of_int t.cache_misses);
        ("gc.minor_mwords", t.gc.Stats.minor_words /. 1e6);
        ("gc.minor_collections", float_of_int t.gc.Stats.minor);
        ("gc.major_collections", float_of_int t.gc.Stats.major);
      ]
  in
  let value n = Option.value (List.assoc_opt n layers) ~default:0. in
  Common.check c
    (value "trace.attributed_share" >= 0.95)
    (fun () ->
      Printf.sprintf "layers cover only %.3f of the traced time"
        (value "trace.attributed_share"));
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let stem = Filename.concat out_dir (Printf.sprintf "%s-seed%d" name seed) in
  Trace.write_chrome tr ~path:(stem ^ ".trace.json") ~workload:name;
  let traced_s = Trace.total_of tr "op" in
  let table = Buffer.create 4096 in
  Printf.bprintf table "%s: seed %d, %d operations, untraced %.1f ms, traced %.1f ms\n"
    name seed ops (1e3 *. untraced_s) (1e3 *. traced_s);
  Printf.bprintf table "%-34s %14s  %s\n" "layer (self time)" "ms" "share";
  List.iter
    (fun (layer, s) ->
      Printf.bprintf table "%-34s %14.2f  %5.1f%%\n" layer (1e3 *. s)
        (100. *. s /. traced_s))
    (Trace.layer_self tr);
  Printf.bprintf table "\n%-34s %14s  %s\n" "metric" "value" "unit";
  List.iter
    (fun (n, u) -> Printf.bprintf table "%-34s %14.4f  %s\n" n (value n) u)
    per_layer;
  let oc = open_out (stem ^ ".layers.txt") in
  Buffer.output_buffer oc table;
  close_out oc;
  print_string (Buffer.contents table);
  Printf.printf "trace: %s.trace.json\n" stem;
  report_failures c;
  let correct = c.Common.failed = 0 in
  result_line ~correct ~attempted:t.ops ~failed:t.failed_ops
    (List.map (fun (n, u) -> (n, u, value n)) per_layer);
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME compile|squeeze|chip|fabric");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench";
  match List.find_opt (fun (n, _, _) -> n = !workload) workloads with
  | None ->
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "bench: --trace takes 0 or 1";
    exit 2
  | Some (name, setup, ops) ->
    let ok =
      if !trace = 1 then traced_run name setup ~ops ~seed:!seed
      else end_to_end_run name setup ~seed:!seed ~seconds:!seconds
    in
    exit (if ok then 0 else 1)
