(** Deterministic, seedable packet-arrival streams.

    Realises a {!Npra_workloads.Workload.arrival} model as a monotone
    sequence of arrival cycles, driven by an explicit seed through a
    xorshift generator and (for the Poisson approximation) a fixed-point
    table of exponential quantiles — no [Random], no run-time floats, so
    the same (seed, model) pair replays the identical stream on every
    platform. *)

open Npra_workloads

type t

val create : seed:int -> Workload.arrival -> t
(** A fresh stream; the first arrival carries a seed-derived phase so
    co-resident streams do not arrive in lockstep. *)

val peek : t -> int
(** The cycle of the next arrival, without consuming it. *)

val advance : t -> int
(** Consumes and returns the next arrival cycle. Arrival cycles are
    non-decreasing and, past the first, strictly increasing. *)

val take : seed:int -> Workload.arrival -> int -> int list
(** The first [n] arrival cycles of a fresh stream. *)

val exp_table : int array
(** The 256-entry fixed-point quantile table behind the Poisson model:
    entry [i] is [round(-ln((i+0.5)/256) * 1024)]. Exposed for tests. *)

val solo_service :
  ?config:Npra_sim.Machine.config ->
  Registry.system ->
  Npra_ir.Prog.t list ->
  int list
(** [solo_service sys progs] is the per-packet service time of each
    physical program of [progs], run alone on the memory image of the
    kernel in the same slot of [sys] under [config] (default
    {!Npra_sim.Machine.default_config}; its cycle budget is replaced by
    a hundred million). A thread that never completes counts as 1. This
    is the one calibration of saturating arrival periods; a chip run
    passes its tiered [config]. *)
