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

let allocate ~nreg ~nthd (th : Inter.thread_alloc) =
  let { Inter.name; prog; bounds; _ } = th in
  let { Estimate.min_pr; min_r; max_pr; max_r } = bounds in
  let max_sr = max_r - max_pr in
  let best = ref None in
  for pr = min_pr to max_pr do
    let sr_floor = max 0 (min_r - pr) in
    let sr_budget = nreg - (nthd * pr) in
    (* A larger SR never costs more moves, so take the largest SR that
       both fits the budget and is reachable from the estimate. *)
    let sr = min max_sr sr_budget in
    if sr >= sr_floor && sr_budget >= sr_floor then begin
      match reach th ~pr ~sr with
      | None -> ()
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
          match !best with
          | None -> true
          | Some b ->
            cand.cost < b.cost || (cand.cost = b.cost && demand cand < demand b)
        in
        if better then best := Some cand
    end
  done;
  match !best with
  | Some b -> Ok b
  | None ->
    Error
      (`Infeasible
        (Fmt.str "no (PR, SR) in [%d..%d] fits %d threads into %d registers"
           min_pr max_pr nthd nreg))

let pp ppf t =
  Fmt.pf ppf "%s: %d threads, PR=%d SR=%d demand=%d moves/thread=%d (%a)"
    t.name t.nthd t.pr t.sr (demand t) t.cost Estimate.pp_bounds t.bounds
