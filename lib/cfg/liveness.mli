(** Instruction-level backward liveness analysis.

    {!compute} runs the production engine: a worklist fixpoint over dense
    {!Bitset} vectors indexed by a per-program {!Npra_ir.Numbering}.
    {!compute_reference} runs the original balanced-tree engine and is
    kept as a differential oracle for tests. Both expose the same
    set-view accessors; the [_bits] accessors are only valid on results
    of {!compute}. *)

open Npra_ir

type t

val compute : Prog.t -> t
(** Dense bitset engine: a queue worklist over flat rows, revisiting
    only instructions whose successors' live-in sets grew. *)

val compute_reference : Prog.t -> t
(** Original [Reg.Set]-based engine; the test oracle. Set-view accessors
    work as for {!compute}; dense accessors raise [Invalid_argument]. *)

val live_in : t -> int -> Reg.Set.t
(** Registers live on entry to instruction [i]. *)

val live_out : t -> int -> Reg.Set.t
(** Registers live on exit from instruction [i]. *)

val live_across : t -> int -> Reg.Set.t
(** Registers whose values survive instruction [i]'s context-switch
    boundary: [live_out i] minus [i]'s definitions. Meaningful when
    [Instr.causes_ctx_switch] holds for [i]; a load's destination is
    excluded per the transfer-register rule. *)

val numbering : t -> Numbering.t
(** The dense register numbering of the analysed program. *)

val live_in_bits : t -> int -> Bitset.t
val live_across_bits : t -> int -> Bitset.t
(** Dense views of {!live_in}/{!live_across}, materialised
    from the engine's flat rows; each call returns a fresh bitset the
    caller owns. Only valid on results of {!compute}. *)
