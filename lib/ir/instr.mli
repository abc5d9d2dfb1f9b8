(** Instructions of the NPRA intermediate representation.

    The instruction set models the programmer-visible core of an IXP-class
    micro-engine:

    - single-cycle ALU operations, moves and branches;
    - a voluntary [Ctx_switch] that yields the processing unit;
    - long-latency [Load]/[Store] memory operations that relinquish the
      processing unit while the access is in flight (switch-on-issue).

    Following the paper's "transfer register" rule, the context-switch
    boundary of a [Load] sits between the issue of the read and the
    write-back of its destination, so the destination register is {e not}
    live across the load's own context-switch boundary. *)

type alu_op = Add | Sub | And | Or | Xor | Shl | Shr | Mul

type cond = Eq | Ne | Lt | Ge | Gt | Le

type operand =
  | Reg of Reg.t
  | Imm of int

type label = string

type t =
  | Alu of { op : alu_op; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Mov of { dst : Reg.t; src : Reg.t }
  | Movi of { dst : Reg.t; imm : int }
  | Load of { dst : Reg.t; addr : Reg.t; off : int }
      (** [dst <- mem\[addr+off\]]; context-switches while in flight. *)
  | Store of { src : Reg.t; addr : Reg.t; off : int }
      (** [mem\[addr+off\] <- src]; context-switches while in flight. *)
  | Br of { target : label }
  | Brc of { cond : cond; src1 : Reg.t; src2 : operand; target : label }
  | Ctx_switch  (** voluntary yield; only the PC is saved *)
  | Nop
  | Halt

val cond_name : cond -> string

val eval_alu : alu_op -> int -> int -> int
(** Arithmetic on OCaml [int]s; shifts mask their count to 5 bits. *)

val eval_cond : cond -> int -> int -> bool

val defs : t -> Reg.t list
(** Registers written by the instruction. *)

val uses : t -> Reg.t list
(** Registers read by the instruction. *)

val causes_ctx_switch : t -> bool
(** True for [Ctx_switch], [Load] and [Store] — the instructions whose
    execution yields the processing unit (context-switch boundaries). *)

val falls_through : t -> bool
(** False only for [Br] and [Halt]. *)

val branch_target : t -> label option
val is_branch : t -> bool

val reg_operand : Reg.t -> operand
(** [Reg r]. For a physical register in {!Reg.phys}'s shared range it is
    the same block on every call. *)

val map_regs : (Reg.t -> Reg.t) -> t -> t
(** Applies a substitution to every register operand. A [Reg] source
    operand that comes out physical is built with {!reg_operand}. *)

val map_regs2 : def:(Reg.t -> Reg.t) -> use:(Reg.t -> Reg.t) -> t -> t
(** Like {!map_regs} with separate substitutions for defined and used
    operands — needed when a renaming depends on the occurrence. *)

val pp_operand : operand Fmt.t
val pp : t Fmt.t
val to_string : t -> string
