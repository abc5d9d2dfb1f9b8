(** Symmetric register allocation (paper §8).

    All threads run the same program, so the pooled constraint collapses
    to [Nthd * PR + SR <= Nreg] and the (PR, SR) space is traversed
    exhaustively for the cheapest allocation. *)

open Npra_ir

type t = {
  name : string;
  prog : Prog.t;
  ctx : Context.t;
  bounds : Estimate.bounds;
  nthd : int;
  pr : int;
  sr : int;
  cost : int;  (** move instructions per thread *)
}

type error = [ `Infeasible of string ]

val demand : t -> int
(** [Nthd * PR + SR]. *)

val allocate : nreg:int -> nthd:int -> Inter.thread_alloc -> (t, error) result
(** Sweeps from the representative's analysis ({!Inter.init_thread}):
    its estimated context and bounds, which every thread shares. *)

val reach : Inter.thread_alloc -> pr:int -> sr:int -> Intra.reduction option
(** Drives an analysed thread from its estimate to [(pr, sr)]: the
    estimated colouring itself at the estimate's own point, otherwise
    {!Intra.reduce_to}. [None] when the point is unreachable. *)

val pp : t Fmt.t
