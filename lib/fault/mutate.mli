(** Systematic fault mutators over finished allocations.

    Each mutator corrupts a verified system — layout plus fully physical
    thread programs — in one specific way that breaks the paper's
    register-sharing discipline, so the harness can measure whether the
    static verifier or the runtime corruption sentinel catches it.

    Candidates are validated against {!Npra_regalloc.Verify}: an edit
    that merely produces a different {e valid} allocation (a swap of a
    never-switch-crossing value, a dropped private-to-private move) is
    not a discipline fault and is skipped. A kernel with no violating
    candidate reports {!Not_applicable} rather than injecting a
    non-fault. *)

open Npra_ir
open Npra_regalloc

type kind =
  | Swap_colors
      (** exchange a private and a shared register in one thread *)
  | Drop_move  (** delete a live-range split move *)
  | Shift_block
      (** slide one thread's private block onto a neighbour's *)
  | Leak_csb_live
      (** rename a switch-crossing value into the shared block *)
  | Corrupt_writeback
      (** redirect a load's write-back into a foreign private block *)

val all_kinds : kind list
val kind_name : kind -> string

type injection = {
  thread : int;  (** the mutated thread *)
  detail : string;  (** human description of the exact edit *)
  programs : Prog.t list;  (** the corrupted system *)
}

type outcome = Applied of injection | Not_applicable of string

val inject : Assign.t -> Prog.t list -> kind -> outcome
(** Searches the candidate space of [kind] over the system and returns
    the first edit that genuinely violates the discipline, or
    {!Not_applicable} with the reason none exists. Deterministic. *)
