(** Metrics for a packet-traffic run: sustained throughput, per-thread
    IPC, exact latency percentiles, queue depth, structured drop
    accounting and the busy/idle/switch cycle breakdown — plus, for
    fabric runs, per-engine structured faults and the recovery trail
    (fault observed → watchdog fired → packets re-dispatched). All
    values are deterministic functions of the run, so equal seeds
    serialise to byte-identical JSON. *)

open Npra_sim

type pctls = { p50 : int; p95 : int; p99 : int; pmax : int }

val percentiles : int list -> pctls option
(** Exact nearest-rank percentiles; [None] on an empty sample. *)

(** Why arrivals were refused, split by policy decision. The old
    aggregate total survives as the derived {!drops_total} /
    [dropped] fields, so existing consumers keep working. *)
type drops = {
  queue_full : int;  (** bounded input queue had no room *)
  shed : int;  (** the deficit-round-robin credit policy refused it *)
  quarantine : int;
      (** lost to an engine quarantine: in-flight or queued packets
          that could not be re-dispatched onto a surviving engine *)
  flood : int;  (** a chaos-flood packet refused for either reason *)
}

val no_drops : drops
val drops_total : drops -> int
val add_drops : drops -> drops -> drops

type thread_metrics = {
  tm_thread : int;
  tm_name : string;
  offered : int;  (** arrivals, including dropped and flood packets *)
  served : int;  (** packets whose service completed *)
  drops : drops;  (** refusals by reason; total via {!drops_total} *)
  max_queue : int;  (** high-water mark of the input queue *)
  sum_wait : int;  (** cycles from arrival to service start *)
  sum_service : int;  (** cycles from service start to completion *)
  latencies : int list;  (** completion − arrival, per served packet *)
  flood_offered : int;  (** of [offered], chaos-flood packets *)
  flood_served : int;  (** of [served], chaos-flood packets *)
}

(** Structured per-engine failure. [Drain_deadlock] carries the same
    per-thread status detail as {!Npra_sim.Machine.stuck}, so a wedged
    drain names the engine {e and} the thread states instead of a bare
    fabric-level failure. *)
type engine_fault =
  | Engine_trap of { message : string }
      (** sentinel corruption or machine trap, rendered *)
  | Crash_injected of { at : int }  (** chaos crash *)
  | Hang_quarantined of { at : int; stalled_slices : int }
      (** the watchdog saw no retired instruction for this many slices
          and retries were exhausted *)
  | Drain_deadlock of {
      at : int;
      deadline : int;
      pending : int;
      threads : Machine.thread_status list;
    }

val fault_message : engine_fault -> string

type engine_metrics = {
  em_engine : int;
  em_threads : thread_metrics list;
  em_report : Machine.report;
  em_fault : engine_fault option;
  em_residual : int;
      (** packets still queued or in flight when the run ended — only
          nonzero on a drain deadlock *)
  em_live : bool;  (** false once quarantined or crashed *)
}

(** One step of the fabric's recovery story, in time order. *)
type trail_event =
  | Injected of { cycle : int; engine : int; what : string }
  | Fault_observed of { cycle : int; engine : int; what : string }
  | Watchdog_fired of { cycle : int; engine : int; stalled_slices : int }
  | Redispatched of { cycle : int; engine : int; packets : int; lost : int }
  | Backoff of {
      cycle : int;
      engine : int;
      until_cycle : int;
      retries_left : int;
    }
  | Reset of { cycle : int; engine : int }
  | Recovered of { cycle : int; engine : int }
  | Quarantined of { cycle : int; engine : int; reason : string }
  | Rebalanced of { cycle : int; slice : int; detail : string }
      (** a feedback controller requested a new allocation; [detail]
          carries the trigger metrics and allocation provenance.
          Fabric-wide, so the engine field renders as -1. *)
  | Swapped of { cycle : int; engine : int; detail : string }
      (** one engine hot-swapped onto the new allocation at a packet
          boundary *)

val pp_trail_event : trail_event Fmt.t

type run_metrics = {
  rm_duration : int;
  rm_seed : int;
  rm_engines : engine_metrics list;
  rm_trail : trail_event list;  (** empty when the watchdog is off *)
}

val total_offered : run_metrics -> int
val total_served : run_metrics -> int
val total_drops : run_metrics -> drops
val total_dropped : run_metrics -> int
val total_residual : run_metrics -> int
val total_flood_offered : run_metrics -> int

val delivered_fraction : run_metrics -> float
(** Goodput: served / offered over {e non-flood} packets only, so a
    chaos flood's junk traffic cannot mask (or fake) lost goodput.
    1.0 when nothing non-flood was offered. *)

val surviving_engines : run_metrics -> int
(** Engines still live (not quarantined) at the end of the run. *)

val conservation_ok : run_metrics -> bool
(** The fabric's packet-conservation invariant, exact:
    offered = served + every drop reason + residual. *)

val faults : run_metrics -> (int * string) list
(** (engine, rendered fault) for every faulted engine; empty on a
    clean run. *)

(** Per-thread-index aggregate across all engines (thread index [i]
    runs the same kernel on every engine). *)
type thread_summary = {
  ts_thread : int;
  ts_name : string;
  ts_offered : int;
  ts_served : int;
  ts_drops : drops;
  ts_dropped : int;  (** derived: {!drops_total} of [ts_drops] *)
  ts_max_queue : int;
  ts_mean_wait : float;
  ts_mean_service : float;
  ts_latency : pctls option;
  ts_instructions : int;
  ts_ipc : float;
}

val thread_summaries : run_metrics -> thread_summary list

val pp : run_metrics Fmt.t
val pp_pctls : pctls option Fmt.t

val pctls_json : pctls option -> Npra_core.Json.t
val drops_json : drops -> Npra_core.Json.t

val trail_counts_json : (string * string) list -> trail_event list -> Npra_core.Json.t
(** [trail_counts_json [(key, kind); ...] trail] is an object mapping
    each key to the number of [trail] events whose
    {!pp_trail_event} kind is [kind]. *)

val json : run_metrics -> Npra_core.Json.t
(** A complete JSON object (threads + engines + totals + trail). *)

val to_json : run_metrics -> string
(** [json] in its canonical text. *)
