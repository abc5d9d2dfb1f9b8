(** Imperative builder eDSL for writing IR kernels.

    A builder accumulates instructions and label bindings, hands out fresh
    virtual registers and labels, and finally seals the result into a
    validated {!Prog.t}:

    {[
      let b = Builder.create ~name:"demo" in
      let x = Builder.fresh b in
      Builder.movi b x 7;
      Builder.loop b ~iters:10 (fun () -> Builder.ctx_switch b);
      Builder.halt b;
      let prog = Builder.finish b
    ]} *)

type t

val create : name:string -> t

val fresh : t -> Reg.t
(** A fresh virtual register. *)

val reg : t -> string -> Reg.t
(** [reg b name] is the virtual register memoized under [name]; the first
    call allocates it. Lets kernels refer to named state like ["sum"]. *)

val fresh_label : ?hint:string -> t -> Instr.label
val here : t -> int

val place : t -> Instr.label -> unit
(** Binds a label at the current position. *)

val label : ?hint:string -> t -> Instr.label
(** Allocates a fresh label and binds it at the current position. *)

val alu : t -> Instr.alu_op -> Reg.t -> Reg.t -> Instr.operand -> unit
val add : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val sub : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val and_ : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val or_ : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val xor : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val shl : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val shr : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val mul : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val mov : t -> Reg.t -> Reg.t -> unit
val movi : t -> Reg.t -> int -> unit
val load : t -> Reg.t -> Reg.t -> int -> unit
val store : t -> Reg.t -> Reg.t -> int -> unit
val br : t -> Instr.label -> unit
val brc : t -> Instr.cond -> Reg.t -> Instr.operand -> Instr.label -> unit
val ctx_switch : t -> unit
val halt : t -> unit

val imm : int -> Instr.operand
val rge : Reg.t -> Instr.operand
(** Operand injections: immediate and register. *)

val loop : t -> iters:int -> (unit -> unit) -> unit
(** [loop b ~iters body] emits [body] inside a counted loop that runs
    [iters] times (count-down counter in a fresh register). *)

val if_ :
  t ->
  Instr.cond ->
  Reg.t ->
  Instr.operand ->
  then_:(unit -> unit) ->
  else_:(unit -> unit) ->
  unit
(** Two-armed conditional joining after both arms. *)

val finish : t -> Prog.t
(** Seals and validates the program.
    @raise Prog.Invalid on malformed control flow. *)
