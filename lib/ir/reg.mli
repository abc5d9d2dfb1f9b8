(** Registers of the NPRA intermediate representation.

    A register is either a {e virtual} register — an unbounded compiler
    temporary used before register allocation — or a {e physical} register
    indexing the processing unit's shared general-purpose register file
    (128 GPRs on the modelled IXP1200-class machine). *)

type t =
  | V of int  (** virtual register, compiler temporary *)
  | P of int  (** physical GPR in the shared register file *)

val compare : t -> t -> int
val equal : t -> t -> bool
val phys : int -> t
(** [phys k] is [P k]. For [0 <= k < 256] it is the same block on every
    call ([phys k == phys k]), so allocation output shares one value per
    physical register. *)

val is_virtual : t -> bool
val is_physical : t -> bool

val number : t -> int
(** [number r] is the index of [r], regardless of its kind. *)

val pp : t Fmt.t
(** Prints [v42] for virtual and [r42] for physical registers. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
