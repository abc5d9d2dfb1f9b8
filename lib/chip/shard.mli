(** Sharded dispatch: a chip's worth of micro-engines behind a seeded,
    deterministic hash spreader.

    [run] partitions [engines] global engines into [shards] shards —
    membership is {!spread}, a pure hash of (seed, engine index) — and
    runs the existing {!Npra_traffic.Dispatch} fabric once per shard
    with a shard-mixed seed. Shards share no mutable state, so each
    shard is one pool task and the whole chip run is
    byte-deterministic at any worker count. Per-shard metrics fold into
    chip totals with {e exact} packet conservation: offered = served +
    dropped + residual holds inside every shard and across the sum
    ({!conservation_ok}). *)

open Npra_ir
open Npra_sim
open Npra_workloads
open Npra_traffic

val spread : seed:int -> engines:int -> shards:int -> int array
(** [spread ~seed ~engines ~shards].(e) is the shard that global
    engine [e] lands on — a pure xorshift hash, stable across runs and
    platforms. @raise Invalid_argument if either count is < 1. *)

type shard_run = {
  sr_shard : int;
  sr_members : int list;  (** global engine indices routed here *)
  sr_seed : int;  (** the shard-mixed dispatcher seed *)
  sr_metrics : Metrics.run_metrics;
}

type t = {
  c_seed : int;
  c_engines : int;
  c_shards : int;
  c_duration : int;
  c_runs : shard_run list;
}

val run :
  ?pool:Npra_par.Pool.t ->
  ?sentinel:Machine.sentinel_mode ->
  ?machine_config:Machine.config ->
  ?refresh:(engine:int -> thread:int -> seq:int -> (int * int) list) ->
  ?chaos_spec:Chaos.spec ->
  ?shed:Dispatch.shed ->
  seed:int ->
  engines:int ->
  shards:int ->
  duration:int ->
  specs:Workload.traffic_spec list ->
  mem_image:(int * int) list ->
  Prog.t list ->
  t
(** Runs every shard. [machine_config] (typically carrying a
    {!Npra_sim.Memory.hierarchy}) and [refresh] pass straight through
    to each shard's dispatcher. [chaos_spec], when given, draws an
    independent fault schedule per shard from the shard seed, which
    turns on the dispatcher's default watchdog. An empty shard (the
    hash left it no engines) yields empty metrics. Machines run on the
    default {!Machine.engine}, which bursts every dispatched thread
    whether or not [sentinel] (default [`Trap]) is armed; armed, the
    burst checks the register accesses of its flagged quads. *)

type totals = {
  t_offered : int;
  t_served : int;
  t_drops : Metrics.drops;
  t_residual : int;
}

val totals : t -> totals

val conservation_ok : t -> bool
(** Every shard conserves packets {e and} the chip-level fold balances
    exactly: Σoffered = Σserved + Σdropped + Σresidual. *)

val served_of_thread : t -> int -> int
(** Chip-wide served packets of thread index [i]; 0 if unseen. *)

val json : t -> Npra_core.Json.t
(** One chip-level JSON object: totals, per-thread fold and per-shard
    detail (membership, seeds, conservation). *)

val to_json : t -> string
(** [json] in its canonical text. *)

val pp : t Fmt.t
