(** Symmetric register allocation (paper §8).

    All threads run the same program, so the pooled constraint collapses
    to [Nthd * PR + SR <= Nreg] and the (PR, SR) space is traversed
    exhaustively for the cheapest allocation. *)

type t = {
  name : string;
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

val fold_sweep :
  nreg:int ->
  nthd:int ->
  Inter.thread_alloc ->
  ('a -> int -> int -> Intra.reduction option -> 'a) ->
  'a ->
  'a
(** [fold_sweep ~nreg ~nthd th f init] folds [f acc pr sr red] over the
    points {!allocate} weighs, in no fixed order: at every PR in
    [[min_pr..max_pr]], the largest SR that fits the budget and the
    estimate, when it covers the SR floor; [red] is what {!reach} gives
    there. The points where the budget does not bind share one walk of
    the strong PR-step chain instead of one {!Intra.reduce_to} each, and
    the walk keeps only its current context alive. *)

val reach : Inter.thread_alloc -> pr:int -> sr:int -> Intra.reduction option
(** Drives an analysed thread from its estimate to [(pr, sr)]: the
    estimated colouring itself at the estimate's own point, otherwise
    {!Intra.reduce_to}. [None] when the point is unreachable. *)

val pp : t Fmt.t
