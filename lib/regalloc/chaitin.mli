(** Chaitin-style graph-colouring register allocator with spilling — the
    per-thread baseline the paper compares against (fixed 32-register
    partition, no sharing, no context-switch awareness).

    Spill code addresses the thread's spill area with an immediate; every
    reload/store is a long-latency memory operation and hence itself a
    context switch, which is why spills are so expensive on this machine. *)

open Npra_ir

type result = {
  prog : Prog.t;  (** program after spill rewriting (still virtual) *)
  coloring : int Reg.Map.t;  (** live register -> colour in [1..colors] *)
  colors : int;
  spilled : Reg.Set.t;  (** registers spilled across all iterations *)
  iterations : int;
}

exception
  Did_not_converge of {
    k : int;
    iterations : int;
    spilled : Reg.Set.t;  (** everything spilled across all attempts *)
    last_coloring : int Reg.Map.t;  (** the final colouring attempt *)
    pending : Reg.Set.t;  (** still uncolourable in that attempt *)
  }
(** Raised when the spill loop hits its iteration cap still uncolourable
    — spill code consumes registers itself, so a too-small [k] can chase
    its own tail forever. Carries the last colouring attempt so callers
    can report how close the allocator got. *)

val allocate : k:int -> spill_base:int -> Prog.t -> result
(** Classic simplify / optimistic-push / select loop, inserting spill
    code and retrying until colourable with [k] colours. [spill_base] is
    the first memory word of this thread's spill area.
    @raise Did_not_converge after 32 spill rounds that still leave
    uncolourable registers. *)

val color_count : Prog.t -> int
(** Colours the program with an unbounded palette (no spilling) and
    returns the number of colours used — the paper's "single-thread
    register allocator" register count in Figure 14. *)
