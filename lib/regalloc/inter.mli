(** Inter-thread register allocation (paper §6, Figure 8).

    Balances register allocation across the threads of one processing
    unit: every thread starts at its estimated upper bounds and the
    balancer greedily commits the cheapest single-step reduction — one
    thread's private count, or the shared count of all threads at the
    current maximum — until the pooled demand [Σ PRᵢ + max SRᵢ] fits the
    register file. *)

open Npra_ir

type thread_alloc = {
  name : string;
  prog : Prog.t;
  ctx : Context.t;  (** final colouring for this thread *)
  bounds : Estimate.bounds;
  pr : int;  (** private registers assigned *)
  sr : int;  (** shared registers needed *)
}

type t = {
  threads : thread_alloc array;
  nreg : int;
  sgr : int;  (** globally shared registers: [max SRᵢ] *)
}

type error = [ `Infeasible of string ]

val demand : thread_alloc array -> int
(** [Σ PRᵢ + max SRᵢ], the pooled register requirement. *)

val total_moves : t -> int

val cost_of : thread_alloc -> int

val init_thread : Prog.t -> thread_alloc
(** Estimation only: the thread at its upper bounds, zero moves. The
    program must be in web form ({!Npra_cfg.Webs.rename}). *)

val balance :
  ?weights:int list ->
  nreg:int ->
  [ `Fit | `Zero_cost ] ->
  thread_alloc array ->
  (t, error) result
(** The paper's Figure-8 greedy loop, started from analysed threads
    ({!init_thread}) and returning its threads in the same order. The
    records are only read, so one analysis can seed any number of
    calls, from any domain.

    [`Fit] reduces until the pooled demand fits [nreg]. [`Zero_cost]
    keeps reducing while some reduction is free of move insertions —
    the setting of the paper's Figure 14 experiment — and never fails.

    [weights] biases the greedy loop for adaptive re-balancing: thread
    [i]'s move-cost increase is multiplied by [List.nth weights i]
    before candidates are compared, so a heavily-weighted (critical)
    thread keeps its registers and moves land on co-residents. Missing
    entries default to 1; [weights = []] (the default) is byte-identical
    to the unweighted algorithm. *)

val allocate : ?weights:int list -> nreg:int -> Prog.t list -> (t, error) result
(** [balance `Fit] on freshly analysed programs, which must be in web
    form. *)

val pp : t Fmt.t
