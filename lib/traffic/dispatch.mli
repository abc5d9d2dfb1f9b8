(** Multi-micro-engine packet dispatcher, with a chaos-hardened fabric.

    Runs N {!Npra_sim.Machine} instances — micro-engines — under
    deterministic packet traffic on a shared global virtual clock.
    Thread [i] of every engine is a port: it has its own {!Arrival}
    stream and bounded input queue, sits parked until a packet is
    queued, serves exactly one packet per program run, and halts back
    into the dispatcher at the completion cycle.

    Engines advance slice-synchronously on the global clock, and every
    slice boundary is a sequential barrier that injects scheduled
    faults, checks per-engine progress (the watchdog), resets
    backed-off engines, refills shedding credits, and re-routes dead
    engines' arrivals onto survivors. A failed engine's in-flight and
    queued packets are re-dispatched round-robin across the surviving
    engines; bounded retries with slice-based backoff precede permanent
    quarantine. The run never aborts: it returns
    degraded-but-complete metrics whose recovery trail records fault →
    watchdog → re-dispatch → survival, and whose drop accounting
    conserves packets exactly ({!Metrics.conservation_ok}).

    Engines advance one after another in the calling domain. A run is a
    pure function of its arguments, so callers that want parallelism
    hand whole runs to a {!Npra_par.Pool} (the chip's [Shard] runs one
    dispatcher per shard that way). *)

open Npra_ir
open Npra_sim
open Npra_workloads

(** Per-engine progress watchdog. An engine that retires no
    instruction for [stall_slices] consecutive slice barriers {e while
    holding packets} is declared hung. Each of the
    first [retries] failures salvages its packets, re-dispatches them,
    and resets the engine after a backoff of
    [backoff_slices × retry-number] slices; the next failure after the
    retries are spent quarantines it permanently. *)
type watchdog = { stall_slices : int; retries : int; backoff_slices : int }

val default_watchdog : watchdog
(** 3 stalled slices to fire, 2 retries, 2-slice backoff unit. *)

(** Overload-shedding policy: a per-port deficit-round-robin credit.
    Every slice boundary adds [quantum] credits (capped at [burst]);
    admitting a packet costs one. An arrival with no credit is shed —
    an explicit, counted decision ({!Metrics.drops}) instead of a
    queue collapse. Re-dispatched packets bypass credits. *)
type shed = { quantum : int; burst : int }

val default_shed : shed
(** 4 credits per slice, capped at 12 — the policy every shedding run
    uses. *)

val default_machine_config : Machine.config
(** {!Machine.default_config} with [max_cycles] lifted to [max_int]: a
    traffic run ends at its duration and drain budget, not at a cycle
    limit. The default of {!run} and of [Chain.run]. *)

(** {1 Feedback controller}

    A controller closes the loop from traffic metrics back into the
    allocator: at every slice barrier it receives a cheap cumulative
    snapshot and may answer with a replacement program list (typically
    a fresh allocation biased toward the currently-critical thread —
    see {!Adapt}). The fabric then stops admitting packets on each live
    engine until it drains to a packet boundary, hot-swaps it there
    with {!Npra_sim.Machine.swap_image} (recorded as
    {!Metrics.Swapped}), and resumes. Backed-off engines pick the new
    allocation up at their reset; dead engines are untouched. Controller
    decisions, and therefore the whole adaptive run, are
    deterministic. *)

type obs_port = {
  op_served : int;  (** cumulative completions *)
  op_lost : int;
      (** legitimate-stream refusals only (queue-full, shed,
          quarantine); excludes flood-tagged packets so an adversarial
          flood cannot stampede a controller that scores on losses *)
  op_queue : int;  (** standing legit backlog (+1 if one is in service) *)
  op_sum_wait : int;  (** cumulative queue-wait cycles of served packets *)
}

type obs_engine = {
  oe_live : bool;
  oe_ports : obs_port array;
}

type observation = {
  o_now : int;  (** global cycle of this barrier *)
  o_slice : int;  (** barrier number *)
  o_engines : obs_engine array;
}

type decision = {
  d_progs : Prog.t list;  (** the allocation to deploy on every engine *)
  d_detail : string;  (** trigger metrics, recorded in the trail *)
}

type controller = observation -> decision option

val run :
  ?engines:int ->
  ?sentinel:Machine.sentinel_mode ->
  ?machine_config:Machine.config ->
  ?refresh:(engine:int -> thread:int -> seq:int -> (int * int) list) ->
  ?drain_budget:int ->
  ?chaos:Chaos.t ->
  ?watchdog:watchdog ->
  ?shed:shed ->
  ?controller:controller ->
  seed:int ->
  duration:int ->
  specs:Workload.traffic_spec list ->
  mem_image:(int * int) list ->
  Prog.t list ->
  Metrics.run_metrics
(** [run ~seed ~duration ~specs ~mem_image progs] simulates [engines]
    (default 1) micro-engines, each running [progs] (one thread per
    program, one [specs] entry per thread), under traffic generated for
    [duration] cycles, then drains in-flight packets for up to
    [drain_budget] more cycles (default [max duration 10_000]). An
    engine that cannot drain is reported as a structured
    {!Metrics.Drain_deadlock} — which engine, how many packets, which
    thread states — never an abort.

    [chaos] injects the schedule's faults at slice boundaries;
    [watchdog] governs hang detection and retry; [shed] enables the
    admission credit; [controller] closes the adaptive re-allocation
    loop. Passing any of [chaos]/[watchdog]/[controller] turns the
    watchdog on ({!default_watchdog} unless given). Without it a trap
    leaves the engine's fault and packets standing. The watchdog never
    changes a fault-free run: its metrics are the same either way.

    Past [duration] an engine advances only while it holds packets, so
    its clock stops at its last completion; a barrier that re-routes a
    packet onto such an engine first brings its clock up to the
    barrier's cycle, so no service starts before its re-route. An
    arrival before [duration] that an engine's last run stepped over is
    still offered once its clock passes [duration].

    Every machine runs on the default [`Soa] {!Machine.engine}, which
    bursts whether the sentinel is armed or not. An engine pauses for a
    busy port's arrival only near a slice end and admits the packet, in
    time order, at its next pause: admission is decided exactly as on
    time, so on a safe allocation [`Off] and [`Trap] runs produce the
    same metrics. When a trap ends a run, the arrivals it stepped over
    strictly before the trap cycle are admitted first, so the engine's
    queues hold exactly what had arrived by then.

    [refresh], when given, is called at each service start and returns
    [(address, value)] words poked into the engine's memory — the
    per-packet input payload; it must be a pure function of its
    arguments for runs to be reproducible. Slices are 1024 cycles: the
    granularity of the global-clock interleave and the watchdog's
    sampling period.

    [machine_config] defaults to {!default_machine_config}. Results are a pure function of every
    argument: identical calls produce identical metrics, byte for byte
    once serialised, also when the calls run on different domains.

    The programs are decoded once per run, into one
    {!Machine.image} that every engine and every backoff reset
    instantiates; each controller decision is decoded once, into the
    image every live engine hot-swaps to ({!Machine.swap_image}). *)

val run_image :
  ?engines:int ->
  ?refresh:(engine:int -> thread:int -> seq:int -> (int * int) list) ->
  ?drain_budget:int ->
  ?chaos:Chaos.t ->
  ?watchdog:watchdog ->
  ?shed:shed ->
  ?controller:controller ->
  seed:int ->
  duration:int ->
  specs:Workload.traffic_spec list ->
  mem_image:(int * int) list ->
  Machine.image ->
  Metrics.run_metrics
(** {!run} on a prebuilt image, whose config and sentinel mode the
    engines take; [run ~sentinel ~machine_config progs] is [run_image]
    on [Machine.image ~config:machine_config ~sentinel progs]. An image
    is immutable, so runs on different domains may share one (the chip's
    [Shard] does). *)
