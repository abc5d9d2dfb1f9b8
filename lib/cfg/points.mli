(** Program points and point-set liveness algebra.

    The unit of reasoning for live-range splitting is the {e gap}: gap [p]
    is the program point immediately before instruction [p], for [p] in
    [0 .. n]. A register is live at gap [p] when it is live on entry to
    instruction [p] or when instruction [p-1] just defined it.

    Executing instruction [p] moves control from gap [p] to gap [q] for
    each successor [q]; these {e gap edges} are where split moves can be
    materialised.

    A context-switch boundary (CSB) lives inside its causing instruction
    [c]: the values surviving it are [live_out(c) \ defs(c)], each live at
    both gaps [c] and [c+1]; the segment containing gap [c] owns the
    crossing.

    Per-gap live sets are stored as dense {!Bitset}s over the program's
    {!Npra_ir.Numbering}; the [Reg.Set] accessors materialise views on
    demand and the [_bits] accessors expose the dense form for hot
    consumers. *)

open Npra_ir
module IntSet : Set.S with type elt = int

type t

val compute : Prog.t -> t

val numbering : t -> Numbering.t
(** The dense register numbering shared with the underlying liveness. *)

val num_gaps : t -> int
(** [Prog.length p + 1]. *)

val live_at_gap : t -> int -> Reg.Set.t

val live_at_gap_bits : t -> int -> Bitset.t
(** Dense view of {!live_at_gap}; the analysis' own state — callers must
    not mutate it. *)

val gaps_of : t -> Reg.t -> IntSet.t
(** All gaps where the register is live (its whole live range as points). *)

val csbs_of : t -> Reg.t -> IntSet.t
(** CSB instruction indices the register's value survives. *)

val across : t -> int -> Reg.Set.t
(** Registers live across the CSB of instruction [i]; empty if [i] does
    not cause a context switch. *)

val across_bits : t -> int -> Bitset.t
(** Dense view of {!across}; not to be mutated by callers. *)

val csb_points : t -> int list
(** CSB instruction indices, in program order. *)

val gap_edges : t -> (int * int) list
(** All gap edges [(p, q)]: control flows from gap [p] over instruction
    [p] to gap [q]. *)

val gap_edges_of : t -> Reg.t -> (int * int) list
(** Gap edges with both endpoints inside the register's live range. *)

val reg_pressure_max : t -> int
(** RegPmax: maximum number of co-live registers at any gap. *)

val reg_pressure_csb_max : t -> int
(** RegPCSBmax: maximum number of registers live across any single CSB. *)

val is_boundary : t -> Reg.t -> bool
(** True when the register is live across at least one CSB. *)
