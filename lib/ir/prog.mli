(** A thread program: a flat instruction array plus label bindings.

    Labels bind to instruction indices; index [0] is the entry point. The
    {!succs} relation derived here is the single source of truth for all
    control-flow analyses. *)

type t = private {
  name : string;
  code : Instr.t array;
  labels : (Instr.label * int) list;
}

exception Invalid of string

val make : name:string -> code:Instr.t list -> labels:(Instr.label * int) list -> t
(** Builds and validates a program.
    @raise Invalid if a label is duplicated or out of range, a branch
    targets a missing label, or control can fall off the end. *)

val of_array :
  name:string -> code:Instr.t array -> labels:(Instr.label * int) list -> t
(** Like {!make} from an array. The array is owned by the program. *)

val validate : t -> unit
(** @raise Invalid on a malformed program (see {!make}). *)

val length : t -> int
val instr : t -> int -> Instr.t

val label_index : t -> Instr.label -> int
(** @raise Invalid on an unbound label. *)

val labels_at : t -> int -> Instr.label list

val succs : t -> int -> int list
(** Successor instruction indices (fallthrough first when both exist). *)

val succs_array : t -> int list array
(** All successor lists in one pass over the program, with a single
    label lookup table — what the dataflow engines iterate over. *)

val preds : t -> int list array
(** Predecessor indices for every instruction. *)

val fold_instrs : ('a -> int -> Instr.t -> 'a) -> 'a -> t -> 'a

val regs : t -> Reg.Set.t
val vregs : t -> Reg.Set.t

val max_vreg : t -> int
(** Largest virtual register number used, or [-1] if none. *)

val all_physical : t -> bool
val all_virtual : t -> bool

val ctx_switch_points : t -> int list
(** Indices of instructions that cause a context switch, in program order. *)

val count_ctx_switches : t -> int

val map_regs : (Reg.t -> Reg.t) -> t -> t

val to_string : t -> string
