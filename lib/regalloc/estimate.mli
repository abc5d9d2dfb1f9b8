(** Register requirement estimation (paper §5, Figure 7).

    Lower bounds: [min_r] = RegPmax (maximum number of co-live registers
    at any program point), [min_pr] = RegPCSBmax (maximum registers live
    across any single context-switch boundary); both are reachable via
    live-range splitting (the paper's Lemma 1).

    Upper bounds come from a region-based colouring minimising MaxPR
    first: colour the boundary nodes, then each NSR's internal nodes
    independently, then merge and resolve conflict edges, growing MaxR
    only when recolouring fails. *)

type bounds = {
  min_pr : int;
  min_r : int;
  max_pr : int;
  max_r : int;
}

val pp_bounds : bounds Fmt.t

val run : Context.t -> Context.t * bounds
(** Colours an uncoloured context (one node per live range) and returns
    it with the bounds: the colouring uses [max_pr] private and
    [max_r - max_pr] shared colours at zero move cost. *)
