(* Symmetric register allocation (paper §8).

   All threads run the same program, so PR and SR are equal across
   threads and the pooled constraint collapses to
   [Nthd * PR + SR <= Nreg]. The solution space is small enough to
   traverse exhaustively: for every feasible (PR, SR) pair we drive the
   representative thread's estimated context there with the
   intra-thread allocator and keep the cheapest allocation. *)

open Npra_ir

type t = {
  name : string;
  prog : Prog.t;
  ctx : Context.t;
  bounds : Estimate.bounds;
  nthd : int;
  pr : int;
  sr : int;
  cost : int;  (* move instructions per thread *)
}

type error = [ `Infeasible of string ]

let demand t = (t.nthd * t.pr) + t.sr

let reach (th : Inter.thread_alloc) ~pr ~sr =
  let { Estimate.max_pr; max_r; _ } = th.bounds in
  if pr = max_pr && sr = max_r - max_pr then
    Some { Intra.ctx = th.ctx; cost = Context.move_count th.ctx }
  else Intra.reduce_to th.ctx ~pr:max_pr ~r:max_r ~target_pr:pr ~target_sr:sr

(* Where the SR budget does not bind ([sr = max_sr]), [reduce_to] takes
   only strong PR steps, and a step depends on nothing but the context
   and PR, so each such point's path is a prefix of the next lower
   point's. The sweep walks that chain once, from the estimate down to
   the lowest such point, handing each point's context to [f] as the
   walk passes it and [None] to those below a failed step; only the
   current context stays live. The budget-bound points go through
   [reach]. *)
let fold_sweep ~nreg ~nthd (th : Inter.thread_alloc) f init =
  let { Estimate.min_pr; min_r; max_pr; max_r } = th.bounds in
  let max_sr = max_r - max_pr in
  let points =
    List.filter_map
      (fun pr ->
        let sr_floor = max 0 (min_r - pr) in
        let sr_budget = nreg - (nthd * pr) in
        (* A larger SR never costs more moves, so take the largest SR
           that both fits the budget and is reachable from the
           estimate. *)
        let sr = min max_sr sr_budget in
        if sr >= sr_floor && sr_budget >= sr_floor then Some (pr, sr)
        else None)
      (List.init (max 0 (max_pr - min_pr + 1)) (fun i -> min_pr + i))
  in
  let free, bound = List.partition (fun (_, sr) -> sr = max_sr) points in
  let acc =
    List.fold_left (fun acc (pr, sr) -> f acc pr sr (reach th ~pr ~sr)) init
      bound
  in
  match free with
  | [] -> acc
  | (lo, _) :: _ ->
    let visit acc pr red =
      if List.mem_assoc pr free then f acc pr max_sr red else acc
    in
    let rec walk acc ctx pr cost =
      let acc = visit acc pr (Some { Intra.ctx; cost }) in
      (* [reduce_to]'s guards on the next point, then its one step *)
      let next =
        if
          pr > lo
          && pr - 1 >= Intra.min_pr th.ctx
          && pr - 1 + max_sr >= Intra.min_r th.ctx
        then Intra.reduce_pr ctx ~pr ~r:(pr + max_sr)
        else None
      in
      match next with
      | Some red -> walk acc red.Intra.ctx (pr - 1) red.Intra.cost
      | None -> unreached acc (pr - 1)
    and unreached acc pr =
      if pr < lo then acc else unreached (visit acc pr None) (pr - 1)
    in
    walk acc th.ctx max_pr (Context.move_count th.ctx)

let allocate ~nreg ~nthd (th : Inter.thread_alloc) =
  let { Inter.name; prog; bounds; _ } = th in
  let { Estimate.min_pr; max_pr; _ } = bounds in
  (* The sweep visits points in no fixed order, so ties on cost and
     demand go to the lower PR. *)
  let best =
    fold_sweep ~nreg ~nthd th
      (fun best pr sr red ->
        match red with
        | None -> best
        | Some red ->
          let cand =
            {
              name;
              prog;
              ctx = red.Intra.ctx;
              bounds;
              nthd;
              pr;
              sr;
              cost = red.Intra.cost;
            }
          in
          let better =
            match best with
            | None -> true
            | Some b ->
              compare (cand.cost, demand cand, cand.pr) (b.cost, demand b, b.pr)
              < 0
          in
          if better then Some cand else best)
      None
  in
  match best with
  | Some b -> Ok b
  | None ->
    Error
      (`Infeasible
        (Fmt.str "no (PR, SR) in [%d..%d] fits %d threads into %d registers"
           min_pr max_pr nthd nreg))

let pp ppf t =
  Fmt.pf ppf "%s: %d threads, PR=%d SR=%d demand=%d moves/thread=%d (%a)"
    t.name t.nthd t.pr t.sr (demand t) t.cost Estimate.pp_bounds t.bounds
