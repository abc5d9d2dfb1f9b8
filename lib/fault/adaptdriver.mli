(** Adaptive-vs-static matrix: each shifting-traffic scenario runs the
    same system twice — allocation frozen (static) and re-balanced
    online by {!Npra_traffic.Adapt} (adaptive) — under identical seeds,
    arrival streams and fault schedules. A cell passes when the
    adaptive run serves at least as many packets on the scenario's
    designated critical threads, the re-balance count respects the
    hysteresis bound, and both runs conserve packets exactly. *)

type run_result = {
  r_offered : int;
  r_served : int;
  r_dropped : int;
  r_thread_served : int array;
  r_crit_served : int;
  r_conservation : bool;
}

type cell = {
  c_scenario : string;
  c_shifting : bool;
  c_critical : int list;
  c_static : run_result;
  c_adaptive : run_result;
  c_rebalances : int;
  c_bound : int;
  c_swaps : Npra_traffic.Adapt.swap_record list;
  c_alloc_failures : int;
  c_trail : Npra_traffic.Metrics.trail_event list;
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

val run : ?seed:int -> ?quick:bool -> unit -> matrix
(** Runs every scenario twice (static, adaptive) in the calling domain.
    [quick] halves the duration and the controller's window/dwell so
    the shortened run still crosses every traffic regime. *)

val scenario_names : string list
(** The scenarios in matrix order. *)

val run_scenario : ?seed:int -> ?quick:bool -> string -> cell option
(** Replay a single named scenario (static + adaptive); [None] when the
    name is not in {!scenario_names}. *)

val pp : matrix Fmt.t

val pp_cell : cell Fmt.t
(** Full replay view: both runs side by side, every committed decision,
    and the adaptive run's re-balance/hot-swap trail. *)

val cell_json : cell -> Npra_core.Json.t

val to_json : matrix -> Npra_core.Json.t
(** The BENCH_adapt.json payload, without its wall_clock member:
    per-cell static/adaptive counters, the full swap trail, the
    hysteresis bound, and [all_ok]. *)
