(* Adaptive-vs-static matrix: shifting traffic regimes, each run twice.

   Every scenario builds one four-kernel system, allocates it once with
   the unweighted balanced pipeline, then runs the same deterministic
   traffic twice: once with that allocation frozen (static — the
   paper's offline answer) and once with the {!Npra_traffic.Adapt}
   controller re-balancing registers toward whichever thread the
   windowed metrics say is critical (adaptive). Both runs share seed,
   arrival streams and fault schedule, so the only difference is the
   control loop.

   The register file is deliberately tight (24 registers for four
   kernels, against the seeded experiments' 128) so the allocator is
   under genuine pressure and the weights have something to move:
   a re-balance hands the critical thread a larger share of the
   partition, its spill code disappears, and its per-packet service
   path visibly shortens.

   A cell passes when (1) the adaptive run serves at least as many
   packets on the scenario's designated critical threads as the static
   run, (2) the re-balance count respects the hysteresis bound
   {!Npra_traffic.Adapt.max_rebalances}, and (3) both runs conserve
   packets exactly. The chaos-composed cell checks the controller and
   the PR-7 fault fabric stay out of each other's way: re-balances keep
   landing on the surviving engine. *)

open Npra_workloads
open Npra_core
open Npra_traffic

let engines = 2
let nreg = 24
let ids = [ "crc32"; "frag"; "url"; "route" ]

type scenario = {
  sc_name : string;
  sc_shifting : bool;  (* shifting-mix cells must show adaptive >= static *)
  sc_ids : string list;  (* kernel mix, slot order *)
  sc_critical : int list;  (* threads whose service the scenario is about *)
  sc_specs : duration:int -> Workload.traffic_spec list;
  sc_chaos : duration:int -> seed:int -> Chaos.t option;
}

let spec arrival = { Workload.arrival; queue_capacity = 8; per_packet_iters = 1 }

(* At [nreg = 24] the balanced chain lands on the Chaitin floor, whose
   equal split spills the big kernels hard; [hot] then offers packets
   several times faster than the spill-laden service path can retire
   them, so the critical port runs saturated and every register the
   re-balance wins back converts directly into served packets. *)
let hot = 60
let cold = 2600

let no_chaos ~duration:_ ~seed:_ = None

(* t0 clearly critical throughout: the control cell — one early
   re-balance toward t0, then quiet. *)
let steady_skew =
  {
    sc_name = "steady-skew";
    sc_shifting = true;
    sc_ids = ids;
    sc_critical = [ 0 ];
    sc_specs =
      (fun ~duration:_ ->
        [
          spec (Workload.Uniform { period = hot });
          spec (Workload.Uniform { period = cold });
          spec (Workload.Uniform { period = cold });
          spec (Workload.Uniform { period = cold });
        ]);
    sc_chaos = no_chaos;
  }

(* Bursty on-off phase shift: t0 is hot for the first half, t1 for the
   second. The controller must follow the phase across the boundary. *)
let phase_shift_specs ~duration =
  let half = duration / 2 in
  [
    spec (Workload.Bursty { on_cycles = half; off_cycles = half; period = hot });
    spec
      (Workload.Windowed
         {
           from_cycle = half;
           until_cycle = duration;
           inner = Workload.Uniform { period = hot };
         });
    spec (Workload.Uniform { period = cold });
    spec (Workload.Uniform { period = cold });
  ]

let phase_shift =
  {
    sc_name = "phase-shift";
    sc_shifting = true;
    sc_ids = ids;
    sc_critical = [ 0; 1 ];
    sc_specs = phase_shift_specs;
    sc_chaos = no_chaos;
  }

(* Mix churn: t2's stream leaves the mix at the midpoint and t3's
   joins in its place; t0/t1 idle along underneath. *)
let mix_churn =
  {
    sc_name = "mix-churn";
    sc_shifting = true;
    (* the churning slots carry the two spill-heaviest kernels, so the
       regime shift moves real register pressure between threads *)
    sc_ids = [ "route"; "frag"; "crc32"; "url" ];
    sc_critical = [ 2; 3 ];
    sc_specs =
      (fun ~duration ->
        [
          spec (Workload.Uniform { period = cold });
          spec (Workload.Uniform { period = cold });
          spec
            (Workload.Windowed
               {
                 from_cycle = 0;
                 until_cycle = duration / 2;
                 inner = Workload.Uniform { period = hot };
               });
          spec
            (Workload.Windowed
               {
                 from_cycle = duration / 2;
                 until_cycle = duration;
                 inner = Workload.Uniform { period = hot };
               });
        ]);
    sc_chaos = no_chaos;
  }

(* Adversarial flood on a thread that is NOT critical: the controller
   scores on legitimate losses only, so the flood must not stampede it
   away from t0. *)
let flood_noncrit =
  {
    sc_name = "flood-noncrit";
    sc_shifting = false;
    sc_ids = ids;
    sc_critical = [ 0 ];
    sc_specs =
      (fun ~duration:_ ->
        [
          spec (Workload.Uniform { period = hot });
          spec (Workload.Uniform { period = cold });
          spec (Workload.Uniform { period = cold });
          spec (Workload.Uniform { period = cold });
        ]);
    sc_chaos =
      (fun ~duration ~seed ->
        Some
          (Chaos.of_events ~seed
             [
               Chaos.Flood
                 {
                   engine = 0;
                   thread = 3;
                   at = duration / 3;
                   duration = duration / 3;
                   period = 40;
                 };
             ]));
  }

(* Phase shift with an engine crash at the midpoint: the controller
   must keep re-balancing the surviving engine and never fight the
   watchdog over the dead one. *)
let chaos_shift =
  {
    sc_name = "chaos-shift";
    sc_shifting = true;
    sc_ids = ids;
    sc_critical = [ 0; 1 ];
    sc_specs = phase_shift_specs;
    sc_chaos =
      (fun ~duration ~seed ->
        Some
          (Chaos.of_events ~seed
             [ Chaos.Crash { engine = 1; at = duration / 2 } ]));
  }

let scenarios =
  [ steady_skew; phase_shift; mix_churn; flood_noncrit; chaos_shift ]

type run_result = {
  r_offered : int;
  r_served : int;
  r_dropped : int;
  r_thread_served : int array;  (* per thread, summed over engines *)
  r_crit_served : int;  (* served on the designated critical threads *)
  r_conservation : bool;
}

type cell = {
  c_scenario : string;
  c_shifting : bool;
  c_critical : int list;
  c_static : run_result;
  c_adaptive : run_result;
  c_rebalances : int;
  c_bound : int;  (* hysteresis bound on re-balances for this run *)
  c_swaps : Adapt.swap_record list;
  c_alloc_failures : int;
  c_trail : Metrics.trail_event list;  (* adaptive run's trail *)
  c_ok : bool;
}

type matrix = {
  m_seed : int;
  m_duration : int;
  m_engines : int;
  m_nreg : int;
  m_window : int;
  m_min_dwell : int;
  m_cells : cell list;
}

let result_of sc (m : Metrics.run_metrics) =
  let summaries = Metrics.thread_summaries m in
  let nthd = List.length summaries in
  let thread_served = Array.make nthd 0 in
  List.iter
    (fun (ts : Metrics.thread_summary) ->
      thread_served.(ts.Metrics.ts_thread) <- ts.Metrics.ts_served)
    summaries;
  {
    r_offered = Metrics.total_offered m;
    r_served = Metrics.total_served m;
    r_dropped = Metrics.total_dropped m;
    r_thread_served = thread_served;
    r_crit_served =
      List.fold_left (fun a i -> a + thread_served.(i)) 0 sc.sc_critical;
    r_conservation = Metrics.conservation_ok m;
  }

let adapt_config ~quick ~spill_bases =
  {
    Adapt.default_config with
    Adapt.nreg;
    spill_bases = Some spill_bases;
    (* quick runs have half the slices; halve the window and dwell so
       the controller still sees every regime of the shortened run *)
    window = (if quick then 2 else 4);
    min_dwell = (if quick then 3 else 6);
  }

let run_cell ~seed ~duration ~quick sc =
  let sys = Registry.system ~iters:1 (List.map Registry.find_exn sc.sc_ids) in
  let bal =
    Pipeline.balanced_exn ~nreg ~spill_bases:sys.spill_bases sys.progs
  in
  let specs = sc.sc_specs ~duration in
  let chaos = sc.sc_chaos ~duration ~seed:(seed + 17) in
  let run ?controller () =
    Dispatch.run ~engines ~sentinel:`Trap ?chaos
      ~watchdog:Dispatch.default_watchdog ?controller ~seed ~duration ~specs
      ~mem_image:sys.mem_image bal.Pipeline.programs
  in
  let m_static = run () in
  let cfg = adapt_config ~quick ~spill_bases:sys.spill_bases in
  let adapt = Adapt.create ~config:cfg sys.progs in
  let m_adaptive = run ~controller:(Adapt.controller adapt) () in
  let slices = duration / 1024 in
  let bound = Adapt.max_rebalances ~slices ~min_dwell:cfg.Adapt.min_dwell in
  let st = result_of sc m_static in
  let ad = result_of sc m_adaptive in
  let rebalances = Adapt.rebalance_count adapt in
  {
    c_scenario = sc.sc_name;
    c_shifting = sc.sc_shifting;
    c_critical = sc.sc_critical;
    c_static = st;
    c_adaptive = ad;
    c_rebalances = rebalances;
    c_bound = bound;
    c_swaps = Adapt.swaps adapt;
    c_alloc_failures = Adapt.alloc_failures adapt;
    c_trail = m_adaptive.Metrics.rm_trail;
    c_ok =
      st.r_conservation && ad.r_conservation
      && rebalances <= bound
      && ad.r_crit_served >= st.r_crit_served;
  }

let run ?(seed = 42) ?(quick = false) () =
  let duration = if quick then 20_000 else 40_000 in
  let cells =
    List.map (run_cell ~seed ~duration ~quick) scenarios
  in
  {
    m_seed = seed;
    m_duration = duration;
    m_engines = engines;
    m_nreg = nreg;
    m_window = (if quick then 2 else 4);
    m_min_dwell = (if quick then 3 else 6);
    m_cells = cells;
  }

let scenario_names = List.map (fun sc -> sc.sc_name) scenarios

let run_scenario ?(seed = 42) ?(quick = false) name =
  match List.find_opt (fun sc -> sc.sc_name = name) scenarios with
  | None -> None
  | Some sc ->
    let duration = if quick then 20_000 else 40_000 in
    Some (run_cell ~seed ~duration ~quick sc)

let all_ok m = List.for_all (fun c -> c.c_ok) m.m_cells

let totals m =
  ( List.length m.m_cells,
    List.length (List.filter (fun c -> c.c_ok) m.m_cells) )

let critical_label l = String.concat "," (List.map string_of_int l)

let pp ppf m =
  let cells, ok = totals m in
  Fmt.pf ppf
    "adapt matrix: %d cells (%d ok), %d engines, nreg %d, duration %d, seed \
     %d@."
    cells ok m.m_engines m.m_nreg m.m_duration m.m_seed;
  Fmt.pf ppf "  %-14s %-6s %10s %10s %8s %8s  %s@." "scenario" "crit"
    "static" "adaptive" "rebal" "bound" "status";
  List.iter
    (fun c ->
      Fmt.pf ppf "  %-14s %-6s %10d %10d %8d %8d  %s@." c.c_scenario
        (critical_label c.c_critical)
        c.c_static.r_crit_served
        c.c_adaptive.r_crit_served c.c_rebalances c.c_bound
        (if c.c_ok then "ok"
         else if not (c.c_static.r_conservation && c.c_adaptive.r_conservation)
         then "CONSERVATION VIOLATED"
         else if c.c_rebalances > c.c_bound then "HYSTERESIS BOUND EXCEEDED"
         else "ADAPTIVE BELOW STATIC");
      List.iter (fun s -> Fmt.pf ppf "      %a@." Adapt.pp_swap s) c.c_swaps)
    m.m_cells

let run_json r =
  Json.Obj
    [ ("offered", Int r.r_offered); ("served", Int r.r_served);
      ("dropped", Int r.r_dropped);
      ( "thread_served",
        List (Array.to_list (Array.map (fun n -> Json.Int n) r.r_thread_served)) );
      ("critical_served", Int r.r_crit_served);
      ("conservation", Bool r.r_conservation) ]

let swap_json (s : Adapt.swap_record) =
  Json.Obj
    [ ("slice", Int s.Adapt.sw_slice); ("cycle", Int s.Adapt.sw_cycle);
      ("critical", Int s.Adapt.sw_critical);
      ("previous", match s.Adapt.sw_previous with None -> Null | Some p -> Int p);
      ("dwell", Int s.Adapt.sw_dwell);
      ("required_dwell", Int s.Adapt.sw_required_dwell);
      ("provenance", String s.Adapt.sw_provenance) ]

let cell_json c =
  Json.Obj
    [ ("scenario", String c.c_scenario); ("shifting", Bool c.c_shifting);
      ("critical", List (List.map (fun t -> Json.Int t) c.c_critical));
      ("static", run_json c.c_static); ("adaptive", run_json c.c_adaptive);
      ("rebalances", Int c.c_rebalances); ("bound", Int c.c_bound);
      ("alloc_failures", Int c.c_alloc_failures);
      ("swaps", List (List.map swap_json c.c_swaps));
      ( "trail",
        Metrics.trail_counts_json
          [ ("rebalance", "rebalance"); ("swap", "swap");
            ("watchdog_fired", "watchdog"); ("quarantined", "quarantine") ]
          c.c_trail );
      ("ok", Bool c.c_ok) ]

let to_json m =
  let cells, ok = totals m in
  Json.Obj
    [ ("seed", Int m.m_seed); ("duration", Int m.m_duration);
      ("engines", Int m.m_engines); ("nreg", Int m.m_nreg);
      ("window", Int m.m_window); ("min_dwell", Int m.m_min_dwell);
      ("cells", Int cells); ("cells_ok", Int ok); ("all_ok", Bool (all_ok m));
      ("matrix", List (List.map cell_json m.m_cells)) ]

(* Full replay view of one cell: both runs side by side, every
   committed decision, and the fabric trail events the adaptive run
   emitted (re-balances, hot-swaps, and any fault traffic around
   them). *)
let pp_cell ppf c =
  Fmt.pf ppf "scenario %s (critical threads: %s)@." c.c_scenario
    (critical_label c.c_critical);
  let line tag r =
    Fmt.pf ppf
      "  %-9s offered %5d served %5d (critical %4d) dropped %5d per-thread \
       [%a]%s@."
      tag r.r_offered r.r_served r.r_crit_served r.r_dropped
      Fmt.(array ~sep:(any ";") int)
      r.r_thread_served
      (if r.r_conservation then "" else "  CONSERVATION VIOLATED")
  in
  line "static:" c.c_static;
  line "adaptive:" c.c_adaptive;
  Fmt.pf ppf "  re-balances %d (hysteresis bound %d), refused allocations %d@."
    c.c_rebalances c.c_bound c.c_alloc_failures;
  if c.c_swaps <> [] then begin
    Fmt.pf ppf "  decisions:@.";
    List.iter (fun s -> Fmt.pf ppf "    %a@." Adapt.pp_swap s) c.c_swaps
  end;
  let interesting =
    List.filter
      (function
        | Metrics.Rebalanced _ | Metrics.Swapped _ | Metrics.Watchdog_fired _
        | Metrics.Quarantined _ | Metrics.Injected _ | Metrics.Fault_observed _
          ->
          true
        | _ -> false)
      c.c_trail
  in
  if interesting <> [] then begin
    Fmt.pf ppf "  trail:@.";
    List.iter
      (fun ev -> Fmt.pf ppf "    %a@." Metrics.pp_trail_event ev)
      interesting
  end;
  Fmt.pf ppf "  verdict: %s@."
    (if c.c_ok then "ok — adaptive never served below static"
     else "FAILED")
