(* System-level chaos matrix: kernel mixes × fault schedules.

   Each cell allocates a four-kernel system with the balanced pipeline,
   offers it deterministic traffic on three engines, injects one fault
   scenario, and checks the fabric's contract: no abort, exact packet
   conservation, goodput above the degradation floor. Arrival periods
   are deliberately set well below saturation (about a third of the
   offered load the registry's Table-3 operating point uses) so that a
   healthy cell delivers essentially everything and the floor measures
   fault degradation, not queueing loss. *)

open Npra_workloads
open Npra_core
open Npra_traffic

(* A named fault mix handed to [Chaos.schedule], plus whether the cell
   runs with the overload-shedding credit enabled: none, crash, hang,
   transient-hang, storm, flood, overload-shed. *)
type scenario = { sc_name : string; sc_spec : Chaos.spec; sc_shed : bool }

let scenarios =
  let q = Chaos.quiet in
  [
    { sc_name = "none"; sc_spec = q; sc_shed = false };
    { sc_name = "crash"; sc_spec = { q with Chaos.crashes = 1 }; sc_shed = false };
    { sc_name = "hang"; sc_spec = { q with Chaos.permanent_hangs = 1 }; sc_shed = false };
    {
      sc_name = "transient-hang";
      sc_spec = { q with Chaos.transient_hangs = 1 };
      sc_shed = false;
    };
    { sc_name = "storm"; sc_spec = { q with Chaos.storms = 1 }; sc_shed = false };
    { sc_name = "flood"; sc_spec = { q with Chaos.floods = 1 }; sc_shed = false };
    {
      sc_name = "overload-shed";
      sc_spec = { q with Chaos.floods = 2 };
      sc_shed = true;
    };
  ]

type cell = {
  c_mix : string;
  c_scenario : string;
  c_offered : int;
  c_served : int;
  c_drops : Metrics.drops;
  c_residual : int;
  c_surviving : int;
  c_delivered : float;
  c_bound : float;
  c_conservation : bool;
  c_trail : Metrics.trail_event list;
  c_faults : (int * string) list;
  c_ok : bool;
}

type matrix = {
  m_seed : int;
  m_duration : int;
  m_engines : int;
  m_cells : cell list;
}

let engines = 3

let mixes =
  [
    ("fwd-mix", [ "crc32"; "frag"; "url"; "route" ]);
    ("deep-mix", [ "route"; "drr"; "url"; "crc32" ]);
  ]

let run_cell ~seed ~duration ~mix_index (mix_name, ids) sc =
  let sys = Registry.system ~iters:1 (List.map Registry.find_exn ids) in
  let progs =
    (Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases sys.progs)
      .Pipeline.programs
  in
  let nthreads = List.length progs in
  let cell_seed = seed + (mix_index * 7919) in
  let chaos =
    Chaos.schedule ~seed:(cell_seed + 131) ~engines ~threads:nthreads ~duration
      sc.sc_spec
  in
  let shed = if sc.sc_shed then Some Dispatch.default_shed else None in
  let m =
    Dispatch.run ~engines ~sentinel:`Trap ~chaos
      ~watchdog:Dispatch.default_watchdog ?shed ~seed:cell_seed ~duration
      ~specs:(Chaos.headroom_specs nthreads) ~mem_image:sys.mem_image progs
  in
  let surviving = Metrics.surviving_engines m in
  let delivered = Metrics.delivered_fraction m in
  let bound = float_of_int surviving /. float_of_int engines *. 0.9 in
  let conservation = Metrics.conservation_ok m in
  {
    c_mix = mix_name;
    c_scenario = sc.sc_name;
    c_offered = Metrics.total_offered m;
    c_served = Metrics.total_served m;
    c_drops = Metrics.total_drops m;
    c_residual = Metrics.total_residual m;
    c_surviving = surviving;
    c_delivered = delivered;
    c_bound = bound;
    c_conservation = conservation;
    c_trail = m.Metrics.rm_trail;
    c_faults = Metrics.faults m;
    c_ok = conservation && delivered >= bound;
  }

let run ?(seed = 42) ?(quick = false) () =
  let duration = if quick then 20_000 else 40_000 in
  let cells =
    List.concat
      (List.mapi
         (fun mix_index mix ->
           List.map (run_cell ~seed ~duration ~mix_index mix) scenarios)
         mixes)
  in
  { m_seed = seed; m_duration = duration; m_engines = engines; m_cells = cells }

let all_ok m = List.for_all (fun c -> c.c_ok) m.m_cells

let totals m =
  ( List.length m.m_cells,
    List.length (List.filter (fun c -> c.c_ok) m.m_cells) )

let pp ppf m =
  let cells, ok = totals m in
  Fmt.pf ppf
    "chaos matrix: %d cells (%d ok), %d engines, duration %d, seed %d@."
    cells ok m.m_engines m.m_duration m.m_seed;
  Fmt.pf ppf "  %-10s %-14s %8s %8s %8s %5s %9s %7s  %s@." "mix" "scenario"
    "offered" "served" "dropped" "surv" "delivered" "bound" "status";
  List.iter
    (fun c ->
      Fmt.pf ppf "  %-10s %-14s %8d %8d %8d %3d/%d %9.3f %7.3f  %s@." c.c_mix
        c.c_scenario c.c_offered c.c_served
        (Metrics.drops_total c.c_drops)
        c.c_surviving m.m_engines c.c_delivered c.c_bound
        (if c.c_ok then "ok"
         else if not c.c_conservation then "CONSERVATION VIOLATED"
         else "BELOW BOUND");
      List.iter
        (fun (e, msg) -> Fmt.pf ppf "      engine %d: %s@." e msg)
        c.c_faults)
    m.m_cells

let cell_json m c =
  Json.Obj
    [ ("mix", String c.c_mix); ("scenario", String c.c_scenario);
      ("offered", Int c.c_offered); ("served", Int c.c_served);
      ("drops", Metrics.drops_json c.c_drops); ("residual", Int c.c_residual);
      ("surviving", Int c.c_surviving); ("engines", Int m.m_engines);
      ("delivered", Float (4, c.c_delivered)); ("bound", Float (4, c.c_bound));
      ("conservation", Bool c.c_conservation);
      ( "trail",
        Metrics.trail_counts_json
          [ ("injected", "injected"); ("fault_observed", "fault");
            ("watchdog_fired", "watchdog"); ("redispatched", "redispatch");
            ("backoff", "backoff"); ("reset", "reset"); ("recovered", "recovered");
            ("quarantined", "quarantine") ]
          c.c_trail );
      ( "faults",
        List
          (List.map
             (fun (e, msg) -> Json.Obj [ ("engine", Int e); ("fault", String msg) ])
             c.c_faults) );
      ("ok", Bool c.c_ok) ]

let to_json m =
  let cells, ok = totals m in
  Json.Obj
    [ ("seed", Int m.m_seed); ("duration", Int m.m_duration);
      ("engines", Int m.m_engines); ("cells", Int cells); ("cells_ok", Int ok);
      ("all_ok", Bool (all_ok m)); ("matrix", List (List.map (cell_json m) m.m_cells)) ]
