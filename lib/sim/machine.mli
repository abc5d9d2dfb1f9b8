(** Cycle-level model of one multithreaded processing unit.

    Follows the paper's architecture: non-preemptive threads over a
    shared register file, 1-cycle ALU/branch, long-latency memory
    operations that yield the PU (switch-on-issue, write-back at next
    dispatch — the transfer-register rule), voluntary [ctx_switch], and
    round-robin scheduling with a configurable switch cost.

    The optional {e corruption sentinel} enforces the paper's safety
    invariant dynamically: it tracks per-register ownership (last writer
    thread, write cycle and the writer's switch epoch) and traps — with
    a structured {!corruption} diagnostic — the moment a thread reads a
    register another thread overwrote across its switch. A switch costs
    the sentinel O(1): it only bumps the thread's epoch, and the value a
    thread held at its switch is recorded when a later write displaces
    it. On a safe allocation the sentinel never fires; on an unsafe one
    it replaces silent value corruption with a precise report. A read
    can trap only on a register the thread reads before writing it in
    the non-switch region it resumes in; an {!image} lists those
    registers per instruction, so an armed burst whose set holds no
    foreign-owned register runs with no read check at all.

    Programs are decoded once per program set into an immutable
    {!image}; {!create} builds one and instantiates it, and callers that
    run many machines on one program set (the traffic dispatcher, packet
    chains) build the image once and {!instantiate} it per machine.

    The entry point also decides whether a machine records its threads'
    store traces: {!create}, and so {!run}, records them for the
    differential tests; {!instantiate} records none, so the traffic
    engines do not cons one pair per store for their whole run. Every
    machine keeps each thread's [store_digest], an order-sensitive fold
    of its stores, so runs of instantiated machines can still be
    compared store for store. *)

open Npra_ir

type config = {
  nreg : int;
  mem_latency : int;
  ctx_switch_cost : int;
  max_cycles : int;  (** safety limit; exceeding it raises {!Stuck} *)
  tiers : Memory.hierarchy option;
      (** address-range latency classes (scratch/SRAM/SDRAM). [None]
          charges the flat [mem_latency] on every access — the classic
          machine — and [Some (Memory.flat ~latency:mem_latency)] is
          proven cycle-equal to it by the test suite. *)
}

val default_config : config
(** 128 GPRs, 20-cycle flat memory, 1-cycle switch — the paper's
    machine. *)

type t

(** A dynamically detected violation of the register-sharing
    discipline: thread [reader] read register [corrupt_reg], whose value
    it relied on across a context switch, after thread [clobberer]
    overwrote it at [clobber_cycle]. *)
type corruption = {
  corrupt_reg : int;
  reader : int;
  reader_name : string;
  clobberer : int;
  clobberer_name : string;
  clobber_cycle : int;
  read_cycle : int;
  victim_value : int option;
      (** the value the reader held there at its last switch, if it
          owned the register then *)
  observed_value : int;
}

type thread_state_view =
  | Runnable
  | Waiting of int  (** blocked on memory until the given cycle *)
  | Completed of int

type thread_status = {
  st_thread : int;
  st_name : string;
  st_pc : int;
  st_state : thread_state_view;
}

(** Why the machine could not make progress. [Deadlock] — every thread
    permanently parked (done, or blocked past the cycle budget) — is
    distinguished from [Cycle_limit], where a runnable
    thread consumed the whole budget. *)
type stuck =
  | Not_physical of { thread : string; reg : Reg.t }
  | Virtual_operand of { reg : Reg.t }
  | Out_of_file of { reg : int; nreg : int }
  | Cycle_limit of { limit : int; threads : thread_status list }
  | Deadlock of { limit : int; threads : thread_status list }

exception Stuck of stuck

exception Corruption of corruption
(** Raised by the sentinel ([`Trap] mode) at the corrupted read. *)

val pp_corruption : corruption Fmt.t
val pp_thread_status : thread_status Fmt.t
val pp_stuck : stuck Fmt.t

type sentinel_mode = [ `Off | `Trap ]
(** [`Trap] raises {!Corruption} at the first corrupted read; [`Off]
    leaves the sentinel disarmed. *)

type engine = [ `Legacy | `Soa ]
(** [`Soa] (the default) runs out of an {!image}: every program
    pre-decoded into a flat immutable int-array form — register operands
    resolved to file indices, branch targets to instruction indices —
    and every thread's code concatenated into machine-wide
    struct-of-arrays rows over the shared register row. The machine runs
    each dispatched thread in a batched burst — pc, clock and retired
    count in locals, ALU/condition evaluation inlined — until it yields
    the PU or the slice horizon arrives, with no per-instruction
    scheduler dispatch. Quads whose register accesses need checking are
    flagged at decode: every quad with a register operand outside the
    file, and with the sentinel armed, in the image's checked row, every
    quad that touches a register. The burst runs a flagged quad's
    accesses through the checked register accessors, so it traps on the
    same cycle and with the same machine state as [`Legacy]; unflagged
    quads pay no check. An armed burst runs the image's claim row
    instead — reads unchecked, writes claimed inline — whenever no
    register in the guard set of the quad it enters at
    ({!guard_set}) has a foreign owner, which proves no read in the
    burst can trap.

    [`Legacy] interprets {!Npra_ir.Instr.t} directly, one instruction at
    a time, under the same scheduler. It is the differential oracle for
    instruction semantics: the test suite proves the [`Soa] burst
    cycle-, trap- and report-equal to it (registry kernels, sentinel
    modes, chaos stall/scribble, tiered memory, bounded slices,
    hot-swaps), and golden digests pin the shared schedule. *)

type image
(** One program set, decoded once for a register-file size and sentinel
    mode: the code rows and the guard table. Immutable (but for each
    program's entry live-in set, kept in an atomic cell once a swap has
    asked for it), so any number of machines share one image, on any
    domain. *)

val image : ?config:config -> ?sentinel:sentinel_mode -> Prog.t list -> image
(** Decodes [progs] for [config] (default {!default_config}) and
    [sentinel] (default [`Off]). An armed image also carries the claim
    row and the guard table, and costs a dataflow pass per program.
    @raise Stuck ([Not_physical]) on a program with virtual registers. *)

val image_programs : image -> Prog.t list
val image_config : image -> config
val image_sentinel : image -> sentinel_mode

val guard_set : image -> thread:int -> pc:int -> int list
(** The registers, in ascending order, that thread [thread] may read
    before writing them from instruction [pc] up to the next segment
    end — a load, store, [ctx_switch], halt, or the fall off its code —
    along any path through branches and loops. Empty for a disarmed
    image. *)

val instantiate : ?mem_image:(int * int) list -> image -> t
(** A fresh machine running the image's programs, one thread each, under
    the image's config and sentinel mode, on the [`Soa] engine with no
    timeline. It records no store trace:
    every [store_trace] in its {!report} is [[]] ([store_count] and
    [store_digest] still cover the stores). *)

val create :
  ?config:config ->
  ?engine:engine ->
  ?mem_image:(int * int) list ->
  ?timeline:bool ->
  ?sentinel:sentinel_mode ->
  Prog.t list ->
  t
(** One thread per program; programs must be fully physical. [mem_image]
    preloads memory words (packet buffers, tables); [timeline] records
    scheduling events for {!pp_timeline} — the scheduler records them,
    so they cost nothing per instruction and the machine still bursts.
    [create ~config ~sentinel progs] runs as
    [instantiate (image ~config ~sentinel progs)], except that it records
    every thread's store trace for {!report}.
    @raise Stuck ([Not_physical]) on a program with virtual registers. *)

val memory : t -> Memory.t

type timeline_event =
  | Dispatched
  | Blocked_on_memory
  | Yielded
  | Halted

val timeline : t -> (int * int * timeline_event) list
(** (cycle, thread index, event), in time order; empty unless the
    machine was created with [~timeline:true]. *)

val pp_timeline : t Fmt.t
(** Renders the recorded events as per-dispatch run intervals. *)

val run :
  ?config:config ->
  ?engine:engine ->
  ?mem_image:(int * int) list ->
  ?timeline:bool ->
  ?sentinel:sentinel_mode ->
  Prog.t list ->
  t
(** Runs all threads to completion and returns the final machine.
    @raise Stuck on runaway execution, deadlock, virtual registers or
    out-of-file register indices.
    @raise Corruption when the sentinel (in [`Trap] mode) catches a read
    of a register another thread overwrote across a context switch. *)

(** {2 Bounded stepping}

    The re-entrant interface the packet-traffic dispatcher drives: a
    machine created with {!create} can be advanced in bounded slices,
    interleaved with other machines on a shared virtual clock, its
    completed threads parked and restarted between slices. Bounded runs
    never raise [Cycle_limit] or [Deadlock] — the horizon is the only
    budget — but register-file violations and sentinel traps still
    raise. *)

(** Why a bounded run returned: [`Horizon] — the clock reached the
    horizon with a thread still holding the PU; [`Idle] — no thread can
    run before the horizon (all completed or blocked past it), and the clock was advanced {e to} the horizon; [`Halted i] —
    thread [i] just executed [halt] (only with [~stop_on_halt:true]),
    so a dispatcher can hand it the next packet immediately. *)
type pause = [ `Horizon | `Idle | `Halted of int ]

val run_until : ?stop_on_halt:bool -> t -> horizon:int -> pause
(** Advances execution until the machine's clock reaches [horizon] (or
    a stop condition above). Resumable: scheduling state, round-robin
    fairness and switch-cost accounting carry across calls, and a full
    sequence of [run_until] slices executes exactly like one [run]. *)

val cycle : t -> int
(** The machine's virtual clock. *)

val num_threads : t -> int
val thread_state : t -> int -> thread_state_view
(** One thread's state, read straight off its status: cheap enough for
    a dispatcher to poll at every pause. *)

val thread_completed : t -> int -> bool
(** [thread_state t i] is [Completed _], without building the view. *)

val thread_statuses : t -> thread_status list
(** Per-thread status snapshot (index, name, pc, state) — the same
    detail {!stuck} carries, exposed so a dispatcher can attach it to a
    structured engine report without tripping a trap. *)

(** {2 Chaos-injection hooks}

    The system-level fault harness drives these between bounded slices.
    They model hardware-shell failures, not program bugs: a hang freezes
    the whole engine, a storm scribbles the register file. *)

val stall : t -> until:int -> unit
(** Injects a hang: until the clock reaches [until], {!run_until}
    advances time but retires no instruction — observable to a watchdog
    as zero progress across slices. A later [stall ~until:0] (or any
    past cycle) clears it. Strict {!run} ignores stalls. *)

val stalled : t -> bool

val instructions_retired : t -> int
(** Total instructions retired across all threads — the watchdog's
    progress counter. *)

val scribble : t -> seed:int -> count:int -> int
(** Chaos storm: deterministically overwrites up to [count] currently
    owned registers with garbage, attributed to a phantom thread id, so
    the armed sentinel traps at the first read of any clobbered
    register ([clobberer_name] reads ["chaos-storm"]). Returns the
    number of registers actually hit; a no-op (0) when the machine has
    no sentinel. Integer-only and a pure function of [(seed, count)]
    and the machine state. *)

val park_thread : t -> int -> unit
(** Marks a still-[Runnable] thread as completed without executing it —
    used right after {!create} to hold threads dormant until their
    first packet. @raise Invalid_argument if the thread already ran or
    is blocked. *)

val restart_thread : t -> int -> unit
(** Resets a [Completed] thread to its entry point, runnable from the
    current cycle; per-thread counters keep accumulating across
    restarts. @raise Invalid_argument unless the thread is completed. *)

(** Why a hot-swap cannot refuse and cannot trap (see {!swap_programs}):
    the checks below prove every register dead across the swap before
    any machine state is touched. *)
type swap_error =
  | Swap_arity of { expected : int; got : int }
  | Swap_not_parked of { thread : int; state : thread_state_view }
  | Swap_pending_writeback of { thread : int }
  | Swap_not_physical of { thread : string; reg : Reg.t }
  | Swap_live_in of { thread : string; regs : Reg.t list }
      (** the new program reads these registers before writing them, so
          a stale value could flow across the swap *)

val pp_swap_error : swap_error Fmt.t

val swap_image : t -> image -> (unit, swap_error) result
(** {!swap_programs} to a prebuilt image. The image's entry live-in
    sets are worked out at its first swap and kept, so every engine
    that swaps to one image shares that work.
    @raise Invalid_argument if the image was built for another register
    file size or sentinel mode than the machine's. *)

val swap_programs : t -> Prog.t list -> (unit, swap_error) result
(** Replaces every thread's program in place at a packet boundary: all
    threads must be parked ([Completed]) with no writeback in flight,
    and every new program must have an empty physical live-in set at
    entry (a liveness pass over the decoded program, which the test
    suite proves equal to the allocator's [Npra_cfg.Liveness]). On
    success, the machine runs a fresh image of the new programs, with
    [pc = 0], and its threads stay parked;
    cycle clock, memory, and per-thread counters are preserved; the
    corruption sentinel's ownership state is cleared — the old values
    are proven unobservable, so the sentinel can never fire because of
    a swap. On [Error] the machine is untouched. *)

type thread_report = {
  name : string;
  completion : int option;  (** cycle the thread halted, if it did *)
  instructions : int;
  context_switches : int;
  load_count : int;
  store_count : int;
  move_count : int;
  wait_cycles : int;
      (** cycles the thread was runnable but queued behind others *)
  store_trace : (int * int) list;
      (** per-thread [(address, value)] store sequence, in program order —
          the observable behaviour used by differential tests. Recorded
          by a machine from {!create} or {!run}; always [[]] for one
          from {!instantiate}. *)
  store_digest : int;
      (** {!digest_stores} of the thread's store sequence, kept by every
          machine: it lets runs of instantiated machines compare what
          they stored. *)
}

val digest_stores : (int * int) list -> int
(** An order-sensitive fold of an [(address, value)] store sequence;
    [0] for none. *)

type report = {
  total_cycles : int;
  busy_cycles : int;  (** some thread was executing *)
  switch_cycles : int;  (** context-switch overhead *)
  idle_cycles : int;  (** every thread blocked on memory *)
  utilization : float;  (** busy / total *)
  thread_reports : thread_report list;
}

val report : t -> report
val pp_report : report Fmt.t
