(** Dense per-program register numbering.

    Dataflow analyses that run over bit vectors need every register of a
    program mapped to a small dense integer index. A numbering is built
    once per program and assigns indices [0 .. size-1] to the registers
    that occur in it, in {!Reg.compare} order (virtuals before physicals),
    so the mapping is deterministic and independent of traversal order. *)

type t

val of_prog : Prog.t -> t
(** Numbers every register occurring in the program. *)

val size : t -> int
(** Number of registers in the numbering (the bit-vector width). *)

val index : t -> Reg.t -> int
(** [index t r] is the dense index of [r].
    @raise Invalid_argument if [r] is not part of the numbering. *)

val index_opt : t -> Reg.t -> int option

val reg : t -> int -> Reg.t
(** [reg t i] is the register with index [i]; inverse of {!index}. *)

