(* The [chip] and [fabric] workloads: the allocated system under packet
   traffic.

   [chip] is the sharded full chip on the legacy independent-engine
   Dispatch path: the md5+crc32+url+route mix on the tiered
   scratch/SRAM/SDRAM hierarchy under saturating traffic, with the
   fixed-partition and the balanced allocation (both built at set-up)
   each run through [Shard.run] with the sentinel off, so the batched
   struct-of-arrays engine does the work. One operation is one
   fixed/balanced pair on a fresh traffic seed.

   [fabric] is the slice-barrier path: [Dispatch.run] with a seeded
   chaos schedule (crash, transient hang, register storm, flood), the
   watchdog, shedding and an [Adapt] controller at 24 registers, with
   the sentinel trapping so machines take the per-step decoded path;
   then one rx -> classify -> tx [Chain.run]. One operation is one
   fabric run plus one chain run on a fresh seed. *)

open Npra_sim
open Npra_workloads
open Npra_traffic
open Npra_chip
module P = Npra_core.Pipeline

let instantiate ?(iters = 1) ids =
  let ws =
    List.mapi
      (fun slot id -> Registry.instantiate (Registry.find_exn id) ~slot ~iters)
      ids
  in
  ( ws,
    List.map (fun w -> w.Workload.prog) ws,
    List.concat_map (fun w -> w.Workload.mem_image) ws,
    List.map Workload.spill_base ws )

(* Per-packet input payload, a pure function of its arguments; the
   benchmark's own callback, timed apart from the simulator. *)
let payload ws ~seed =
  let ws = Array.of_list ws in
  fun ~engine ~thread ~seq ->
    let w = ws.(thread) in
    List.mapi
      (fun j v -> (Workload.input_base w + j, v))
      (Workload.random_words
         ~seed:(seed + (engine * 65537) + (thread * 257) + (seq * 13) + 1)
         8)

(* Library callbacks (payload refresh, the adaptive controller) run
   bare in untraced runs; under the recorder each call is timed and
   billed to its layer and to the enclosing span. *)
let traced_callback tracer name f =
  match !tracer with
  | Some (tr, counters) -> Trace.callback tr (List.assoc name counters) f
  | None -> f ()

let attach tracer tr =
  tracer :=
    Some
      (tr, List.map (fun n -> (n, Trace.counter tr n)) [ "refresh"; "adapt.controller" ])

let engine_cycles (m : Metrics.run_metrics) =
  List.fold_left
    (fun a e -> a + e.Metrics.em_report.Machine.total_cycles)
    0 m.Metrics.rm_engines

let shard_cycles (s : Shard.t) =
  List.fold_left (fun a r -> a + engine_cycles r.Shard.sr_metrics) 0 s.Shard.c_runs

(* Standalone simulator speed on [ids], allocated into [nreg] registers
   at 24 main-loop iterations, with [Machine.run_until] outside any
   dispatcher: the solo rate the Dispatch overhead ratios are based on.
   Repeats for at least 0.2 s of host time; simulated Mcycles/s. *)
let solo_rate ~config ~sentinel ~nreg ids =
  let _, progs, mem_image, spill_bases = instantiate ~iters:24 ids in
  let b = P.balanced_exn ~nreg ~spill_bases progs in
  let cycles =
    (Machine.report
       (Machine.run ~config ~engine:`Soa ~sentinel ~mem_image b.P.programs))
      .Machine.total_cycles
  in
  let rec go reps spent =
    if spent >= 0.2 then float_of_int (cycles * reps) /. spent /. 1e6
    else begin
      let m = Machine.create ~config ~engine:`Soa ~sentinel ~mem_image b.P.programs in
      let t0 = Stats.now () in
      ignore (Machine.run_until m ~horizon:max_int);
      go (reps + 1) (spent +. (Stats.now () -. t0))
    end
  in
  go 0 0.

let ms s = 1e3 *. s

(* The traced replay must reproduce the untraced run byte for byte. *)
let check_replay c name ~ops digests replayed =
  for i = 0 to ops - 1 do
    Common.check c
      (Hashtbl.find_opt digests i = Hashtbl.find_opt replayed i)
      (fun () -> Printf.sprintf "%s op %d: traced replay differs from the untraced run" name i)
  done

(* ---- chip ---- *)

let chip_mix = [ "md5"; "crc32"; "url"; "route" ]
let chip_critical = 0
let chip_engines = 16
let chip_shards = 4
let chip_duration = 90_000

let chip_digest f b = Digest.string (Shard.to_json f ^ Shard.to_json b)

let chip_setup ~seed =
  let ws, progs, mem_image, spill_bases = instantiate chip_mix in
  let base, bal = P.contenders ~nreg:128 ~spill_bases progs in
  let fixed = base.P.base_programs in
  let balanced = (Result.get_ok bal).P.programs in
  (* saturating arrivals, calibrated on each baseline program's solo
     service time: twice what the engines can serve *)
  let specs =
    List.map2
      (fun prog w ->
        let m =
          Machine.run
            ~config:{ Driver.chip_machine_config with max_cycles = 100_000_000 }
            ~engine:`Soa ~mem_image:w.Workload.mem_image [ prog ]
        in
        let solo =
          match
            (List.hd (Machine.report m).Machine.thread_reports).Machine.completion
          with
          | Some c -> max 1 c
          | None -> 1
        in
        {
          Workload.arrival = Workload.Uniform { period = max 1 (solo / 4) };
          queue_capacity = 8;
          per_packet_iters = 1;
        })
      fixed ws
  in
  let tracer = ref None in
  let run ?(pool = Npra_par.Pool.sequential) ?(engines = chip_engines)
      ?(shards = chip_shards) ?(duration = chip_duration) ~seed progs =
    let refresh = payload ws ~seed in
    Shard.run ~pool ~sentinel:`Off ~machine_config:Driver.chip_machine_config
      ~refresh:(fun ~engine ~thread ~seq ->
        traced_callback tracer "refresh" (fun () -> refresh ~engine ~thread ~seq))
      ~seed ~engines ~shards ~duration ~specs ~mem_image progs
  in
  let pair ~seed = (run ~seed fixed, run ~seed balanced) in
  ignore (pair ~seed:1);
  let crit = Hashtbl.create 64 in
  let digests = Hashtbl.create 64 and replayed = Hashtbl.create 64 in
  let check_pair c i (f, b) =
    List.iter
      (fun (name, s) ->
        Common.check c (Shard.conservation_ok s) (fun () ->
            Fmt.str "chip op %d (%s): packet conservation broken" i name);
        let faults =
          List.concat_map
            (fun r -> Metrics.faults r.Shard.sr_metrics)
            s.Shard.c_runs
        in
        Common.check c (faults = []) (fun () ->
            Fmt.str "chip op %d (%s): %d engine faults without injection" i
              name (List.length faults)))
      [ ("fixed", f); ("balanced", b) ];
    Hashtbl.replace crit i
      (Shard.served_of_thread f chip_critical, Shard.served_of_thread b chip_critical);
    Hashtbl.replace digests i (chip_digest f b)
  in
  let run_op i =
    let t0 = Stats.cpu () in
    let f, b = pair ~seed:(Stats.derive seed 5 i) in
    {
      Common.cycles = float_of_int (shard_cycles f + shard_cycles b);
      sim_s = Stats.cpu () -. t0;
      verify =
        (fun c ->
          check_pair c i (f, b);
          (0., 0.));
    }
  in
  let trace tr i =
    attach tracer tr;
    let s = Stats.derive seed 5 i in
    let f, b =
      Trace.span tr ~op:i "op" (fun () ->
          let f = Trace.span tr ~op:i "shard.run" (fun () -> run ~seed:s fixed) in
          (f, Trace.span tr ~op:i "shard.run" (fun () -> run ~seed:s balanced)))
    in
    tracer := None;
    Hashtbl.replace replayed i (chip_digest f b)
  in
  let layers tr ~untraced_s ~untraced_cycles ~ops c =
    check_replay c "chip" ~ops digests replayed;
    let fixed_crit = ref 0 and bal_crit = ref 0 in
    for i = 0 to ops - 1 do
      let f, b = Hashtbl.find crit i in
      fixed_crit := !fixed_crit + f;
      bal_crit := !bal_crit + b
    done;
    let solo =
      solo_rate ~config:Driver.chip_machine_config ~sentinel:`Off ~nreg:128
        chip_mix
    in
    (* pool probe: one larger chip, three times each at 1 and at 2
       worker domains (alternating); the metrics must be byte-identical,
       only wall clock may differ *)
    let domains = min 2 (Domain.recommended_domain_count ()) in
    let pool2 = Npra_par.Pool.create ~jobs:domains () in
    let pool_run pool =
      let t0 = Stats.now () in
      let s =
        run ~pool ~engines:32 ~shards:8 ~duration:120_000 ~seed:(Stats.derive seed 7 0)
          balanced
      in
      (Stats.now () -. t0, Shard.to_json s)
    in
    let runs =
      List.init 3 (fun _ -> (pool_run Npra_par.Pool.sequential, pool_run pool2))
    in
    List.iter
      (fun ((_, j1), (_, j2)) ->
        Common.check c (j1 = j2) (fun () ->
            Fmt.str "chip: Shard.run metrics differ between 1 and %d domains" domains))
      runs;
    let t1 = Stats.median (List.map (fun ((t, _), _) -> t) runs) in
    let t2 = Stats.median (List.map (fun (_, (t, _)) -> t) runs) in
    let steals = Npra_par.Pool.steal_count pool2 in
    let self = Trace.layer_self tr in
    let layer name = ms (Option.value (List.assoc_opt name self) ~default:0.) in
    let refresh_s, refresh_calls = Trace.callback_stats tr "refresh" in
    let traced = ms (Trace.total_of tr "op") in
    let untraced = ms untraced_s in
    [
      ("shard.run_ms", layer "shard.run");
      ("dispatch.overhead_ratio", solo /. (untraced_cycles /. untraced_s /. 1e6));
      ("refresh.ms", ms refresh_s);
      ("refresh.calls", float_of_int refresh_calls);
      ("machine.solo_mcycles_per_s", solo);
      ( "shard.critical_served_gain_pct",
        100. *. float_of_int (!bal_crit - !fixed_crit)
        /. float_of_int (max 1 !fixed_crit) );
      ("pool.speedup_jobs2", if domains >= 2 then t1 /. t2 else 1.);
      ("pool.steals", float_of_int steals);
      ("trace.attributed_share", (layer "shard.run" +. ms refresh_s) /. traced);
      ("trace.overhead_pct", 100. *. ((traced /. untraced) -. 1.));
    ]
  in
  { Common.tail_pct = 90.; run_op; trace; layers }

(* ---- fabric ---- *)

(* The adaptive matrix's mix: at 24 registers the balanced chain lands
   on the Chaitin floor, so every re-balance toward the hot port changes
   what it can serve. *)
let fabric_mix = [ "crc32"; "frag"; "url"; "route" ]
let fabric_nreg = 24
let fabric_engines = 8
let fabric_duration = 100_000
let chain_duration = 40_000

let faults_spec =
  {
    Chaos.quiet with
    Chaos.crashes = 1;
    transient_hangs = 1;
    storms = 1;
    floods = 1;
  }

(* One rx -> classify -> tx family from the registry's role tags, with
   the arrival period calibrated to ~80% of a measured capacity. *)
let chain_config () =
  let _, rx, tx = List.hd (Registry.chain_families ()) in
  let cls = List.hd (Registry.by_role Workload.Classify) in
  let stage kernel =
    { Chain.st_kernel = kernel; st_width = 2; st_threads = 4; st_iters = 1 }
  in
  let cfc =
    {
      Chain.cf_stages = [ stage rx; stage cls; stage tx ];
      cf_arrival = Workload.Uniform { period = 32 };
      cf_sources = 4;
      cf_queue_capacity = 16;
      cf_quantum = 2;
      cf_slo_p99 = max_int;
    }
  in
  let cal = 20_000 in
  let probe =
    Chain.run ~machine_config:Driver.chip_machine_config ~seed:7919
      ~duration:cal cfc
  in
  let rate = float_of_int probe.Chain.ch_served /. float_of_int (2 * cal) in
  let period =
    if rate <= 0. then 1_000
    else max 1 (int_of_float (Float.ceil (4. /. (0.8 *. rate))))
  in
  { cfc with Chain.cf_arrival = Workload.Uniform { period } }

(* Hot/cold ports as in the adaptive matrix; which port runs hot is
   drawn per operation, so the controller has a different critical
   thread to find. *)
let fabric_specs ~hot =
  List.init 4 (fun t ->
      {
        Workload.arrival = Workload.Uniform { period = (if t = hot then 60 else 2600) };
        queue_capacity = 8;
        per_packet_iters = 1;
      })

let injected_engines (sched : Chaos.t) =
  List.filter_map
    (function
      | Chaos.Flood _ -> None
      | ev -> Some (Chaos.event_engine ev))
    sched.Chaos.events

let fabric_digest m ch = Digest.string (Metrics.to_json m ^ Chain.to_json ch)

let count_trail f (m : Metrics.run_metrics) =
  List.length (List.filter f m.Metrics.rm_trail)

type fabric_out = {
  fo_delivered : float;
  fo_p99 : int;
  fo_served : int;
  fo_rebalances : int;
  fo_cache_hits : int;
  fo_injected : int;
  fo_watchdog : int;
  fo_redispatched : int;
}

let fabric_setup ~seed =
  let ws, progs, mem_image, spill_bases = instantiate fabric_mix in
  let bal = P.balanced_exn ~nreg:fabric_nreg ~spill_bases progs in
  let cfc = chain_config () in
  let tracer = ref None in
  let sched_of s =
    Chaos.schedule ~seed:s ~engines:fabric_engines ~threads:4
      ~duration:fabric_duration faults_spec
  in
  let adapt_config =
    {
      Adapt.default_config with
      Adapt.nreg = fabric_nreg;
      spill_bases = Some spill_bases;
      window = 2;
      min_dwell = 3;
    }
  in
  let fabric ~seed =
    let adapt = Adapt.create ~config:adapt_config progs in
    let controller = Adapt.controller adapt in
    let refresh = payload ws ~seed in
    let m =
      Dispatch.run ~engines:fabric_engines ~sentinel:`Trap
        ~chaos:(sched_of seed) ~watchdog:Dispatch.default_watchdog
        ~shed:{ Dispatch.quantum = 4; burst = 12 }
        ~controller:(fun obs ->
          traced_callback tracer "adapt.controller" (fun () -> controller obs))
        ~refresh:(fun ~engine ~thread ~seq ->
          traced_callback tracer "refresh" (fun () -> refresh ~engine ~thread ~seq))
        ~seed ~duration:fabric_duration
        ~specs:(fabric_specs ~hot:(seed mod 4))
        ~mem_image bal.P.programs
    in
    (m, adapt)
  in
  let chain ~seed =
    Chain.run ~machine_config:Driver.chip_machine_config ~seed
      ~duration:chain_duration cfc
  in
  ignore (fabric ~seed:1);
  ignore (chain ~seed:1);
  let outs = Hashtbl.create 64 in
  let digests = Hashtbl.create 64 and replayed = Hashtbl.create 64 in
  let check_op c i ~seed (m, adapt) (ch : Chain.t) =
    Common.check c (Metrics.conservation_ok m) (fun () ->
        Fmt.str "fabric op %d: packet conservation broken" i);
    let allowed = injected_engines (sched_of seed) in
    let stray =
      List.filter
        (fun e ->
          match e.Metrics.em_fault with
          | None -> false
          | Some (Metrics.Drain_deadlock _) -> true
          | Some _ -> not (List.mem e.Metrics.em_engine allowed))
        m.Metrics.rm_engines
    in
    Common.check c (stray = []) (fun () ->
        Fmt.str "fabric op %d: %d engine faults beyond the injected ones" i
          (List.length stray));
    let slices = fabric_duration / 1024 in
    Common.check c
      (Adapt.rebalance_count adapt
       <= Adapt.max_rebalances ~slices ~min_dwell:adapt_config.Adapt.min_dwell
      && Adapt.alloc_failures adapt = 0)
      (fun () -> Fmt.str "fabric op %d: controller broke its hysteresis bound" i);
    Common.check c
      (Chain.conservation_ok ch && ch.Chain.ch_max_queue <= ch.Chain.ch_queue_capacity)
      (fun () -> Fmt.str "fabric op %d: chain conservation or queue bound broken" i);
    let trail f = count_trail f m in
    Hashtbl.replace digests i (fabric_digest m ch);
    Hashtbl.replace outs i
      {
        fo_delivered = Metrics.delivered_fraction m;
        fo_p99 =
          (match ch.Chain.ch_e2e with Some p -> p.Metrics.p99 | None -> 0);
        fo_served = ch.Chain.ch_served;
        fo_rebalances = Adapt.rebalance_count adapt;
        fo_cache_hits =
          List.length (List.filter (fun s -> s.Adapt.sw_cache_hit) (Adapt.swaps adapt));
        fo_injected = trail (function Metrics.Injected _ -> true | _ -> false);
        fo_watchdog = trail (function Metrics.Watchdog_fired _ -> true | _ -> false);
        fo_redispatched = trail (function Metrics.Redispatched _ -> true | _ -> false);
      }
  in
  let run_op i =
    let seed = Stats.derive seed 6 i in
    let t0 = Stats.cpu () in
    let ((m, _) as fa) = fabric ~seed in
    let sim_s = Stats.cpu () -. t0 in
    let ch = chain ~seed in
    {
      Common.cycles = float_of_int (engine_cycles m);
      sim_s;
      verify =
        (fun c ->
          check_op c i ~seed fa ch;
          (0., 0.));
    }
  in
  let trace tr i =
    attach tracer tr;
    let seed = Stats.derive seed 6 i in
    let (m, _), ch =
      Trace.span tr ~op:i "op" (fun () ->
          let fa = Trace.span tr ~op:i "dispatch.run" (fun () -> fabric ~seed) in
          (fa, Trace.span tr ~op:i "chain.run" (fun () -> chain ~seed)))
    in
    tracer := None;
    Hashtbl.replace replayed i (fabric_digest m ch)
  in
  let layers tr ~untraced_s ~untraced_cycles ~ops c =
    check_replay c "fabric" ~ops digests replayed;
    let sum f =
      let a = ref 0 in
      for i = 0 to ops - 1 do
        a := !a + f (Hashtbl.find outs i)
      done;
      float_of_int !a
    in
    let delivered =
      List.init ops (fun i -> (Hashtbl.find outs i).fo_delivered)
    in
    let p99s = List.init ops (fun i -> float_of_int (Hashtbl.find outs i).fo_p99) in
    let solo_trap =
      solo_rate ~config:Machine.default_config ~sentinel:`Trap ~nreg:fabric_nreg
        fabric_mix
    in
    let self = Trace.layer_self tr in
    let layer name = ms (Option.value (List.assoc_opt name self) ~default:0.) in
    let ctl_s, ctl_calls = Trace.callback_stats tr "adapt.controller" in
    let refresh_s, refresh_calls = Trace.callback_stats tr "refresh" in
    let traced = ms (Trace.total_of tr "op") in
    let untraced = ms untraced_s in
    let attributed =
      layer "dispatch.run" +. layer "chain.run" +. ms ctl_s +. ms refresh_s
    in
    [
      ("dispatch.run_ms", layer "dispatch.run");
      ( "dispatch.overhead_ratio",
        solo_trap /. (untraced_cycles /. untraced_s /. 1e6) );
      ("machine.solo_mcycles_per_s_trap", solo_trap);
      ("chain.run_ms", layer "chain.run");
      ("chain.served", sum (fun o -> o.fo_served));
      ("chain.p99_cycles", Stats.median p99s);
      ("dispatch.delivered_fraction", Stats.median delivered);
      ("refresh.ms", ms refresh_s);
      ("refresh.calls", float_of_int refresh_calls);
      ("adapt.controller_ms", ms ctl_s);
      ("adapt.controller_calls", float_of_int ctl_calls);
      ("adapt.rebalances", sum (fun o -> o.fo_rebalances));
      ("adapt.cache_hits", sum (fun o -> o.fo_cache_hits));
      ("chaos.injected", sum (fun o -> o.fo_injected));
      ("watchdog.fired", sum (fun o -> o.fo_watchdog));
      ("dispatch.redispatched", sum (fun o -> o.fo_redispatched));
      ("trace.attributed_share", attributed /. traced);
      ("trace.overhead_pct", 100. *. ((traced /. untraced) -. 1.));
    ]
  in
  { Common.tail_pct = 90.; run_op; trace; layers }
