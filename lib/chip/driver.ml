(* The chip-scale scenario matrix behind `bench chip` and `npra chip`.

   Four scenario families, all on the tiered scratch/SRAM/SDRAM memory
   hierarchy:

   - shard: a >= 64-engine sharded run (16 engines quick) of a
     four-kernel mix under saturating traffic, executed twice from the
     same seeds — fixed-partition Chaitin vs the balanced allocator —
     so the chip-level fold must conserve packets exactly on both and
     the balanced allocation must serve at least as many
     critical-thread packets as the fixed one. The full-size run must
     offer at least a million packets.
   - shard-chaos: a smaller sharded run with an independent fault
     schedule per shard (crash + transient hang + flood), shedding on;
     conservation must survive the chaos fold.
   - chain-*: one rx -> classify -> tx chain per registry chain family
     (classify kernels drawn round-robin from the Classify role), with
     a p99 end-to-end SLO and the bounded-queue invariant checked.

   Everything is a pure function of (seed, quick): cells run one after
   another, and the pool runs the shards of the two shard cells; the
   chain cells run in the calling domain. *)

open Npra_sim
open Npra_workloads
open Npra_traffic
module Json = Npra_core.Json

(* The chip memory map: a small fast scratch window, SRAM covering the
   first two instance slots, SDRAM behind. Kernels on slots >= 2 pay
   SDRAM latency for their tables and spill areas. *)
let chip_tiers =
  Memory.scratch_sram_sdram ~scratch_words:256 ~sram_words:1792
    ~scratch_latency:6 ~sram_latency:20 ~sdram_latency:45

let chip_machine_config =
  { Dispatch.default_machine_config with tiers = Some chip_tiers }

(* ---- the shard mix ---- *)

(* md5 is the register-starved critical thread (paper Table 3); the
   three co-residents keep the mix realistic without exploding solo
   service time. *)
let shard_mix = [ "md5"; "crc32"; "url"; "route" ]
let shard_critical = 0

let build_contenders ids =
  let sys = Registry.system ~iters:1 (List.map Registry.find_exn ids) in
  let base, bal =
    Npra_core.Pipeline.contenders ~nreg:128 ~spill_bases:sys.spill_bases
      sys.progs
  in
  let bal =
    match bal with
    | Ok b -> b
    | Error trail ->
      Fmt.failwith "chip: every allocation stage failed:@.%a"
        Fmt.(list ~sep:(any "@.") Npra_core.Pipeline.pp_diagnostic)
        trail
  in
  (sys, base.Npra_core.Pipeline.base_programs, bal.Npra_core.Pipeline.programs)

(* Overload x2 past saturation: offered measures the stream, served
   measures service speed, and queue-full drops absorb the difference
   under exact conservation. *)
let pressure_specs solo =
  List.map
    (fun s ->
      {
        Workload.arrival = Workload.Uniform { period = max 1 (s / 4) };
        queue_capacity = 8;
        per_packet_iters = 1;
      })
    solo

type shard_cell = {
  sc_name : string;
  sc_mix : string list;
  sc_critical : int;
  sc_fixed : Shard.t;
  sc_balanced : Shard.t;
  sc_min_offered : int;
  sc_ok : bool;
}

type chaos_cell = { cc_name : string; cc_run : Shard.t; cc_ok : bool }
type chain_cell = { nc_name : string; nc_chain : Chain.t; nc_ok : bool }

type cell =
  | Shard_cell of shard_cell
  | Chaos_cell of chaos_cell
  | Chain_cell of chain_cell

let cell_ok = function
  | Shard_cell c -> c.sc_ok
  | Chaos_cell c -> c.cc_ok
  | Chain_cell c -> c.nc_ok

let run_shard_cell ~pool ~seed ~quick =
  let engines = if quick then 16 else 64 in
  let shards = if quick then 4 else 8 in
  let min_offered = if quick then 50_000 else 1_000_000 in
  let sys, fixed_progs, bal_progs = build_contenders shard_mix in
  (* the solo service times under the chip hierarchy calibrate the
     saturating arrival periods *)
  let solo = Arrival.solo_service ~config:chip_machine_config sys fixed_progs in
  let specs = pressure_specs solo in
  (* Duration sized from the offered rate (packets per million cycles
     on one engine) so the run clears [min_offered] with ~15% headroom. *)
  let per_engine_rate =
    List.fold_left
      (fun acc sp ->
        match sp.Workload.arrival with
        | Workload.Uniform { period } -> acc + (1_000_000 / period)
        | _ -> acc)
      0 specs
  in
  let duration =
    max 20_000
      (min_offered * 115 / 100 * 1_000_000 / (max 1 (engines * per_engine_rate)))
  in
  let refresh = Registry.refresh sys ~seed in
  let run progs =
    Shard.run ~pool ~sentinel:`Off ~machine_config:chip_machine_config ~refresh
      ~seed ~engines ~shards ~duration ~specs ~mem_image:sys.mem_image progs
  in
  let fixed = run fixed_progs in
  let balanced = run bal_progs in
  let ok =
    Shard.conservation_ok fixed
    && Shard.conservation_ok balanced
    && (Shard.totals balanced).Shard.t_offered >= min_offered
    && Shard.served_of_thread balanced shard_critical
       >= Shard.served_of_thread fixed shard_critical
  in
  Shard_cell
    {
      sc_name = "shard";
      sc_mix = shard_mix;
      sc_critical = shard_critical;
      sc_fixed = fixed;
      sc_balanced = balanced;
      sc_min_offered = min_offered;
      sc_ok = ok;
    }

let run_chaos_cell ~pool ~seed ~quick =
  let engines = if quick then 8 else 16 in
  let shards = 4 in
  let duration = if quick then 30_000 else 60_000 in
  let sys, _fixed_progs, bal_progs = build_contenders shard_mix in
  let chaos_spec =
    { Chaos.quiet with Chaos.crashes = 1; transient_hangs = 1; floods = 1 }
  in
  let run =
    Shard.run ~pool ~sentinel:`Trap ~machine_config:chip_machine_config
      ~refresh:(Registry.refresh sys ~seed) ~chaos_spec
      ~shed:Dispatch.default_shed ~seed ~engines ~shards ~duration
      ~specs:(Chaos.headroom_specs (List.length bal_progs))
      ~mem_image:sys.mem_image bal_progs
  in
  Chaos_cell
    { cc_name = "shard-chaos"; cc_run = run; cc_ok = Shard.conservation_ok run }

(* Chain scenarios come from the registry's role tags: one cell per
   rx/tx family, classify kernels drawn round-robin from the Classify
   pool. The arrival period is calibrated to ~85% of the bottleneck
   stage's capacity — measured, deterministically, from each kernel's
   solo service time under the chip hierarchy — so the chain runs hot
   but stationary, and the p99 SLO (a multiple of the bottleneck solo
   time) detects starvation rather than tripping on the unbounded
   sojourns of a hopelessly oversubscribed queue. *)
let solo_of spec =
  let sys = Registry.system ~iters:1 [ spec ] in
  let base =
    Npra_core.Pipeline.baseline ~nreg:128 ~spill_bases:sys.spill_bases sys.progs
  in
  List.hd
    (Arrival.solo_service ~config:chip_machine_config sys
       base.Npra_core.Pipeline.base_programs)

let chain_configs ~quick =
  let classify = Registry.by_role Workload.Classify in
  let n = List.length classify in
  let sources = 4 in
  List.mapi
    (fun i (family, rx, tx) ->
      let cls = List.nth classify (i mod max 1 n) in
      let stage kernel width threads =
        {
          Chain.st_kernel = kernel;
          st_width = width;
          st_threads = threads;
          st_iters = 1;
        }
      in
      let stages =
        [ stage rx 2 4; stage cls (if quick then 2 else 4) 4; stage tx 2 4 ]
      in
      let solo_sum =
        List.fold_left (fun acc st -> acc + solo_of st.Chain.st_kernel) 0 stages
      in
      ( Fmt.str "chain-%s" family,
        {
          Chain.cf_stages = stages;
          (* placeholder; run_chain_cell calibrates the real period *)
          cf_arrival = Workload.Uniform { period = 32 };
          cf_sources = sources;
          cf_queue_capacity = 16;
          cf_quantum = 2;
          cf_slo_p99 = 6 * solo_sum;
        } ))
    (Registry.chain_families ())

(* Static solo-time estimates of chain capacity are ~2x optimistic —
   hardware threads share one issue pipeline and only overlap memory
   stalls, and the upper slots sit in SDRAM — so the real service rate
   is measured: a short probe run at a saturating arrival rate, then
   the scenario's period is set for ~80% of the measured capacity. The
   probe is a pure function of the seed, so the calibrated scenario
   still replays exactly. *)
let calibrate_period ~seed cfc =
  let cal_dur = 20_000 in
  let probe =
    Chain.run ~machine_config:chip_machine_config ~seed:(seed + 7919)
      ~duration:cal_dur cfc
  in
  (* served over duration + full drain budget: a conservative (low)
     rate estimate, so the real run lands at or below 80% load. *)
  let rate = float_of_int probe.Chain.ch_served /. float_of_int (2 * cal_dur) in
  if rate <= 0. then 1_000
  else
    max 1
      (int_of_float
         (Float.ceil (float_of_int cfc.Chain.cf_sources /. (0.8 *. rate))))

let run_chain_cell ~seed ~quick (name, cfc) =
  let duration = if quick then 40_000 else 150_000 in
  let period = calibrate_period ~seed cfc in
  let cfc = { cfc with Chain.cf_arrival = Workload.Uniform { period } } in
  let chain =
    Chain.run ~machine_config:chip_machine_config ~seed ~duration cfc
  in
  let ok =
    Chain.conservation_ok chain
    && chain.Chain.ch_slo_ok
    && chain.Chain.ch_max_queue <= chain.Chain.ch_queue_capacity
  in
  Chain_cell { nc_name = name; nc_chain = chain; nc_ok = ok }

(* ---- the matrix ---- *)

type matrix = { m_seed : int; m_quick : bool; m_cells : cell list }

let scenario_names ~quick =
  [ "shard"; "shard-chaos" ] @ List.map fst (chain_configs ~quick)

let run_scenario ?(pool = Npra_par.Pool.sequential) ?(seed = 42)
    ?(quick = false) name =
  if name = "shard" then Some (run_shard_cell ~pool ~seed ~quick)
  else if name = "shard-chaos" then Some (run_chaos_cell ~pool ~seed ~quick)
  else
    List.find_opt (fun (n, _) -> n = name) (chain_configs ~quick)
    |> Option.map (run_chain_cell ~seed ~quick)

let run ?(pool = Npra_par.Pool.sequential) ?(seed = 42) ?(quick = false) () =
  let cells =
    List.filter_map
      (fun name -> run_scenario ~pool ~seed ~quick name)
      (scenario_names ~quick)
  in
  { m_seed = seed; m_quick = quick; m_cells = cells }

let all_ok m = List.for_all cell_ok m.m_cells

(* (critical kernel, fixed served, balanced served) from the shard cell,
   if present. *)
let balanced_vs_fixed m =
  List.find_map
    (function
      | Shard_cell c ->
        Some
          ( List.nth c.sc_mix c.sc_critical,
            Shard.served_of_thread c.sc_fixed c.sc_critical,
            Shard.served_of_thread c.sc_balanced c.sc_critical )
      | _ -> None)
    m.m_cells

(* ---- rendering ---- *)

let pp_cell ppf = function
  | Shard_cell c ->
    let tf = Shard.totals c.sc_fixed and tb = Shard.totals c.sc_balanced in
    Fmt.pf ppf
      "-- %s: %s (critical %s), %d engines / %d shards, min offered %d --@."
      c.sc_name
      (String.concat "+" c.sc_mix)
      (List.nth c.sc_mix c.sc_critical)
      c.sc_fixed.Shard.c_engines c.sc_fixed.Shard.c_shards c.sc_min_offered;
    Fmt.pf ppf "fixed partition:@.%a" Shard.pp c.sc_fixed;
    Fmt.pf ppf "balanced:@.%a" Shard.pp c.sc_balanced;
    Fmt.pf ppf
      "critical thread: balanced served %d vs fixed %d (offered %d/%d)@.%s@."
      (Shard.served_of_thread c.sc_balanced c.sc_critical)
      (Shard.served_of_thread c.sc_fixed c.sc_critical)
      tb.Shard.t_offered tf.Shard.t_offered
      (if c.sc_ok then "ok" else "FAILED")
  | Chaos_cell c ->
    Fmt.pf ppf "-- %s --@.%a%s@." c.cc_name Shard.pp c.cc_run
      (if c.cc_ok then "ok" else "FAILED")
  | Chain_cell c ->
    Fmt.pf ppf "-- %s --@.%a%s@." c.nc_name Chain.pp c.nc_chain
      (if c.nc_ok then "ok" else "FAILED")

let pp ppf m =
  Fmt.pf ppf "chip matrix: %d cells, seed %d%s@." (List.length m.m_cells)
    m.m_seed
    (if m.m_quick then ", quick" else "");
  List.iter (fun c -> Fmt.pf ppf "%a@." pp_cell c) m.m_cells;
  Fmt.pf ppf "all ok: %b@." (all_ok m)

let cell_json = function
  | Shard_cell c ->
    Json.Obj
      [ ("name", String c.sc_name); ("kind", String "shard");
        ("mix", List (List.map (fun k -> Json.String k) c.sc_mix));
        ("critical", Int c.sc_critical);
        ("critical_kernel", String (List.nth c.sc_mix c.sc_critical));
        ("min_offered", Int c.sc_min_offered);
        ("fixed_critical_served", Int (Shard.served_of_thread c.sc_fixed c.sc_critical));
        ( "balanced_critical_served",
          Int (Shard.served_of_thread c.sc_balanced c.sc_critical) );
        ("fixed", Shard.json c.sc_fixed); ("balanced", Shard.json c.sc_balanced);
        ("ok", Bool c.sc_ok) ]
  | Chaos_cell c ->
    Json.Obj
      [ ("name", String c.cc_name); ("kind", String "shard-chaos");
        ("run", Shard.json c.cc_run); ("ok", Bool c.cc_ok) ]
  | Chain_cell c ->
    Json.Obj
      [ ("name", String c.nc_name); ("kind", String "chain");
        ("chain", Chain.json c.nc_chain); ("ok", Bool c.nc_ok) ]

let to_json m =
  let bvf =
    match balanced_vs_fixed m with
    | Some (kernel, fixed, balanced) ->
      [ ( "balanced_vs_fixed",
          Json.Obj
            [ ("critical_kernel", String kernel); ("fixed_served", Int fixed);
              ("balanced_served", Int balanced); ("ok", Bool (balanced >= fixed)) ] ) ]
    | None -> []
  in
  Json.Obj
    ([ ("benchmark", Json.String "chip"); ("seed", Int m.m_seed);
       ("quick", Bool m.m_quick); ("all_ok", Bool (all_ok m)) ]
    @ bvf
    @ [ ("cells", List (List.map cell_json m.m_cells)) ])
