(** Deterministic system-level fault schedules.

    A chaos schedule is a list of engine-level fault events — crash,
    hang, register storm, offered-load flood — each pinned to a virtual
    cycle. The dispatcher injects every event at the first slice
    boundary at or after its cycle, so a run under chaos is a pure
    function of [(seed, schedule)]: byte-reproducible at any worker
    count, on any platform. Schedules are built either
    explicitly ({!of_events}) or drawn from a {!spec} by the seeded,
    integer-only generator ({!schedule}). *)

(** How long a hang lasts: a [Transient] stall clears itself after the
    given number of cycles (a reset also clears it early); a
    [Permanent] one re-asserts after every engine reset, so the
    watchdog's bounded retries exhaust and the engine is quarantined. *)
type stall = Transient of int | Permanent

type event =
  | Crash of { engine : int; at : int }
      (** the engine dies instantly and permanently: not retryable *)
  | Hang of { engine : int; at : int; stall : stall }
      (** the engine stops retiring instructions at [at] — detectable
          only by the watchdog's progress counter *)
  | Storm of { engine : int; at : int; writes : int }
      (** scribbles up to [writes] owned registers
          ({!Npra_sim.Machine.scribble}); the sentinel traps at the
          first dependent read *)
  | Flood of {
      engine : int;
      thread : int;
      at : int;
      duration : int;
      period : int;
    }
      (** an extra [period]-spaced arrival stream on one port for
          [duration] cycles — overload, not breakage; refused flood
          packets are accounted under their own drop reason *)

val event_engine : event -> int
val event_at : event -> int
val pp_event : event Fmt.t

type t = { seed : int; events : event list }
(** [events] sorted by cycle, ties kept in construction order. *)

val of_events : ?seed:int -> event list -> t
(** Sorts the events by injection cycle (stable). [seed] (default 0)
    only feeds derived randomness — flood phases, storm scribbles. *)

(** A fault mix for the seeded generator: how many events of each kind
    to draw. *)
type spec = {
  crashes : int;
  permanent_hangs : int;
  transient_hangs : int;
  storms : int;
  floods : int;
}

val quiet : spec
(** All zeros. *)

val headroom_specs : int -> Npra_workloads.Workload.traffic_spec list
(** The traffic of a chaos fabric of [n] threads: thread [i] gets
    uniform arrivals every [1500 + 137 i] cycles (far below saturation,
    so a healthy run delivers essentially everything), an 8-deep queue
    and one iteration per packet — headroom for the packets a failed
    engine re-dispatches. *)

val schedule :
  seed:int -> engines:int -> threads:int -> duration:int -> spec -> t
(** Draws a schedule from [spec] with a xorshift generator: engines and
    ports uniformly, injection cycles in the middle half of [duration]
    (so every fault has traffic before and after it), transient stalls
    of [duration/6] cycles, storms of 64 writes, floods of
    [duration/3] cycles at an 8-cycle period. Integer-only. *)
