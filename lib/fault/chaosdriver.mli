(** System-level chaos matrix: kernel mixes × fault schedules.

    Where {!Driver} proves that a corrupted {e allocation} cannot slip
    through undetected, this driver proves that a failing {e engine}
    cannot take the fabric down: every cell runs a multi-engine traffic
    simulation under an injected fault schedule and checks, exactly,
    that the run completed without aborting, that every offered packet
    is accounted for (served, dropped for a recorded reason, or pending
    at a structured deadlock), and that goodput stayed above the
    degradation bound [(surviving / engines) × 0.9]. Cells are pure
    functions of [(seed, mix, scenario)], so the matrix — and its JSON
    — is byte-identical at any worker count. *)

open Npra_traffic

type cell = {
  c_mix : string;
  c_scenario : string;
  c_offered : int;
  c_served : int;
  c_drops : Metrics.drops;
  c_residual : int;
  c_surviving : int;
  c_delivered : float;  (** goodput fraction, flood traffic excluded *)
  c_bound : float;  (** the degradation floor this cell must meet *)
  c_conservation : bool;
  c_trail : Metrics.trail_event list;
  c_faults : (int * string) list;
  c_ok : bool;  (** conservation ∧ delivered ≥ bound *)
}

type matrix = {
  m_seed : int;
  m_duration : int;
  m_engines : int;
  m_cells : cell list;
}

val run : ?seed:int -> ?quick:bool -> unit -> matrix
(** Runs every (mix × scenario) cell in the calling domain, each cell a
    three-engine fabric simulation. [quick] halves the traffic
    duration. *)

val all_ok : matrix -> bool
val totals : matrix -> int * int  (** (cells, cells ok) *)

val pp : matrix Fmt.t
val to_json : matrix -> Npra_core.Json.t
(** The BENCH_chaos.json payload, without its wall_clock member. *)
