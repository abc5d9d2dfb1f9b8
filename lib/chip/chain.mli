(** Inter-engine packet chains: rx → classify → tx stages on distinct
    engine banks, hand-off through bounded deficit-round-robin queues.

    Packets enter from seeded arrival streams, are served by one
    hardware thread per stage (every thread of a stage engine runs the
    stage's kernel on its own memory slot, allocated by the balanced
    pipeline), and hop to the next stage through bounded per-flow
    queues scheduled by a real deficit round robin — per-flow deficits,
    [quantum] credit per visit, packet cost = packet size, reset on
    empty: the discipline the drr kernel models in-register.

    Back-pressure is structural: a completed packet waits in its
    thread's one-deep out-slot until the downstream queue has room, and
    a thread with a pending out-slot takes no new work, so congestion
    propagates back to the ingress queues — the chain's only drop
    point. Conservation is exact: offered = served + dropped +
    residual. All hand-off happens at slice barriers, and between them
    the stage engines advance one after another in the calling domain,
    so a run is a pure function of its arguments; to run several
    chains at once, hand whole runs to a {!Npra_par.Pool}.

    Latency accounting: end-to-end samples are exact per served packet
    (tx completion cycle − true arrival cycle); per-stage samples run
    from boundary-queue entry to stage completion. A scenario passes
    its SLO iff it served at least one packet and the end-to-end p99 is
    within the bound. *)

open Npra_sim
open Npra_workloads

type stage_spec = {
  st_kernel : Workload.spec;
  st_width : int;  (** engines in this stage *)
  st_threads : int;  (** hardware threads (packets in flight) per engine *)
  st_iters : int;  (** kernel main-loop iterations per packet *)
}

type config = {
  cf_stages : stage_spec list;  (** packet order: rx first, tx last *)
  cf_arrival : Workload.arrival;  (** per ingress source *)
  cf_sources : int;  (** independent arrival streams *)
  cf_queue_capacity : int;  (** bound of every per-flow queue *)
  cf_quantum : int;  (** DRR credit granted per visit *)
  cf_slo_p99 : int;  (** end-to-end p99 latency bound, cycles *)
}

type stage_metrics = {
  sm_stage : int;
  sm_kernel : string;
  sm_role : string;
  sm_width : int;
  sm_threads : int;
  sm_handled : int;  (** packets that completed this stage *)
  sm_latency : Npra_traffic.Metrics.pctls option;
  sm_max_queue : int;  (** high-water of the boundary feeding it *)
}

type t = {
  ch_seed : int;
  ch_duration : int;
  ch_offered : int;
  ch_served : int;  (** packets that completed the whole chain *)
  ch_dropped : int;  (** ingress queue-full refusals *)
  ch_residual : int;  (** still queued or in flight at the end *)
  ch_stages : stage_metrics list;
  ch_e2e : Npra_traffic.Metrics.pctls option;
  ch_queue_capacity : int;
  ch_max_queue : int;  (** highest per-flow depth any boundary reached *)
  ch_slo_p99 : int;
  ch_slo_ok : bool;
}

val conservation_ok : t -> bool
(** offered = served + dropped + residual, exactly. *)

val run :
  ?machine_config:Machine.config ->
  seed:int ->
  duration:int ->
  config ->
  t
(** Runs the chain for [duration] cycles of arrivals, then drains
    in-flight packets for up to [max duration 10_000] more; whatever
    remains is [ch_residual]. [machine_config] (typically carrying a
    {!Npra_sim.Memory.hierarchy}) applies to every stage engine.
    Barriers fall every 256 cycles. Stage machines run on the default
    {!Machine.engine} with the sentinel armed: each dispatched thread
    runs in a burst, and the burst checks the register accesses of its
    flagged quads. Deterministic in every argument. *)

val json : t -> Npra_core.Json.t

val to_json : t -> string
(** [json] in its canonical text. *)

val pp : t Fmt.t
