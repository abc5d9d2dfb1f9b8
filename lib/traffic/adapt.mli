(** Adaptive re-allocation: a {!Dispatch.controller} that watches
    per-thread traffic metrics at slice barriers, decides which thread
    is critical over a sliding window, and re-balances registers toward
    it by requesting a freshly weighted allocation from
    {!Npra_core.Pipeline.balanced} (the critical thread's move cost
    weighted 8, every other thread's 1; served through the
    content-addressed cache on repeated regimes). Hot-swaps happen only at packet boundaries —
    the dispatcher drains in-flight packets and {!Npra_sim.Machine}
    proves every register dead across the swap before it commits.

    Hysteresis makes the loop provably stable: the k-th re-balance
    requires [min_dwell * 2^k] quiet slices, so the total number of
    swaps in a run of [S] slices is at most
    [log2 (S / min_dwell + 1)] — see {!max_rebalances}. *)

type config = {
  nreg : int;  (** register file size passed to the pipeline *)
  spill_bases : int list option;
      (** per-thread spill areas (slot order); [None] uses the
          pipeline's slot-derived defaults *)
  window : int;  (** slices per scoring window *)
  min_dwell : int;
      (** slices that must pass before the first swap; the requirement
          doubles after every swap (exponential cool-down) *)
  margin_pct : int;
      (** a challenger must out-score the incumbent by this percentage *)
  min_score : int;
      (** absolute score floor below which no swap happens — filters
          the noise of a lone packet caught in service at a barrier *)
}

val default_config : config

val max_rebalances : slices:int -> min_dwell:int -> int
(** [max_rebalances ~slices ~min_dwell] is the hysteresis bound: the
    largest [k] such that [min_dwell * (2^k - 1) <= slices]. No run of
    [slices] slice barriers can re-balance more often, whatever the
    traffic does. *)

type swap_record = {
  sw_slice : int;
  sw_cycle : int;
  sw_critical : int;
  sw_previous : int option;
  sw_dwell : int;
  sw_required_dwell : int;
  sw_provenance : string;
  sw_cache_hit : bool;
      (** served from the process-wide allocation cache; it depends on
          what the process allocated before, so no trail, printer or
          report shows it *)
}
(** One committed re-balance decision, for trails and reports. *)

type t
(** Controller state; inspect it after {!Dispatch.run} returns. *)

val create : ?config:config -> Npra_ir.Prog.t list -> t
(** [create progs] builds a controller over the {e pre-allocation}
    entrant programs — each re-balance re-runs the pipeline on these
    with fresh weights. Raises [Invalid_argument] on an empty list. *)

val controller : t -> Dispatch.controller
(** The hook to pass as [Dispatch.run ~controller]. Decisions are pure
    functions of the observation stream, so runs are byte-identical at
    any worker-pool size. *)

val swaps : t -> swap_record list
(** Committed re-balances, oldest first. *)

val rebalance_count : t -> int
val alloc_failures : t -> int

val score : d_dropped:int -> d_served:int -> d_wait:int -> queue:int -> int
(** The windowed criticality score (exposed for tests): drops dominate,
    then standing queue depth, then mean wait over the window. *)

val pp_swap : swap_record Fmt.t
