(* Inter-thread register allocation (paper §6, Figure 8).

   Each thread starts at its estimated upper bounds (MaxPR, MaxR). While
   the pooled requirement Σ PRᵢ + max SRᵢ exceeds the register file, the
   balancer evaluates every legal single-step reduction — one thread's PR,
   or the SR of all threads currently at the maximum — through the
   intra-thread allocator, and commits the cheapest. Shared registers are
   pooled, so only the maximum SR counts; private registers add up. *)

open Npra_ir

type thread_alloc = {
  name : string;
  prog : Prog.t;
  ctx : Context.t;
  bounds : Estimate.bounds;
  pr : int;
  sr : int;
}

let cost_of t = Context.move_count t.ctx
let r_of t = t.pr + t.sr

type t = {
  threads : thread_alloc array;
  nreg : int;
  sgr : int;  (* = max SR *)
}

let max_sr threads = Array.fold_left (fun acc t -> max acc t.sr) 0 threads

let demand threads =
  Array.fold_left (fun acc t -> acc + t.pr) 0 threads + max_sr threads

let total_moves t =
  Array.fold_left (fun acc th -> acc + cost_of th) 0 t.threads

type error = [ `Infeasible of string ]

let init_thread prog =
  let ctx = Context.create prog in
  let ctx, bounds = Estimate.run ctx in
  {
    name = prog.Prog.name;
    prog;
    ctx;
    bounds;
    pr = bounds.Estimate.max_pr;
    sr = bounds.Estimate.max_r - bounds.Estimate.max_pr;
  }

(* The Figure-8 step evaluations of one thread record, each filled on
   first use. A step's result depends only on the record's context and
   (PR, R), and a commit replaces just the committed slots with new
   records, so a slot whose record is still the same (physically) keeps
   its evaluations from earlier greedy steps. *)
type steps = {
  th : thread_alloc;
  cost : int Lazy.t;
  pr_step : Intra.reduction option Lazy.t;
  demote_step : Intra.reduction option Lazy.t;
  sr_step : Intra.reduction option Lazy.t;
}

let steps_of th =
  let ctx = th.ctx and pr = th.pr and r = r_of th in
  {
    th;
    cost = lazy (cost_of th);
    pr_step = lazy (Intra.reduce_pr ctx ~pr ~r);
    demote_step = lazy (Intra.demote_pr ctx ~pr ~r);
    sr_step = lazy (Intra.reduce_sr ctx ~pr ~r);
  }

(* Brings the memo of one [reduce_loop] call (one slot per thread) up to
   date: a slot whose record a commit replaced starts afresh. *)
let refresh memo threads =
  Array.iteri
    (fun i th -> if memo.(i).th != th then memo.(i) <- steps_of th)
    threads

(* A candidate single-step reduction: the updated thread records and the
   total move-cost increase, scaled by the owning thread's weight so a
   critical thread's reductions look expensive and the greedy loop
   shifts moves onto its co-residents. Weight 1 everywhere reproduces
   the paper's unweighted Figure-8 behaviour exactly. *)
type candidate = { delta : int; updates : (int * thread_alloc) list }

let apply threads c =
  let threads = Array.copy threads in
  List.iter (fun (i, th) -> threads.(i) <- th) c.updates;
  threads

let step_delta ~w memo i (red : Intra.reduction) =
  w i * (red.Intra.cost - Lazy.force memo.(i).cost)

let pr_candidate ~w memo threads i =
  let th = threads.(i) in
  if th.pr - 1 < th.bounds.Estimate.min_pr || r_of th - 1 < th.bounds.Estimate.min_r
  then None
  else
    match Lazy.force memo.(i).pr_step with
    | None -> None
    | Some red ->
      let th' = { th with ctx = red.Intra.ctx; pr = th.pr - 1 } in
      Some { delta = step_delta ~w memo i red; updates = [ (i, th') ] }

let demote_candidate ~w memo threads i =
  (* Weak PR-step: only profitable when this thread's SR is below the
     pooled maximum, so growing it by one does not grow SGR. *)
  let th = threads.(i) in
  if th.sr >= max_sr threads || th.pr - 1 < th.bounds.Estimate.min_pr then None
  else
    match Lazy.force memo.(i).demote_step with
    | None -> None
    | Some red ->
      let th' = { th with ctx = red.Intra.ctx; pr = th.pr - 1; sr = th.sr + 1 } in
      Some { delta = step_delta ~w memo i red; updates = [ (i, th') ] }

let sr_candidate ~w memo threads =
  let top = max_sr threads in
  if top = 0 then None
  else begin
    let delta = ref 0 in
    let updates = ref [] in
    let ok = ref true in
    Array.iteri
      (fun j th ->
        if !ok && th.sr = top then begin
          if r_of th - 1 < th.bounds.Estimate.min_r then ok := false
          else
            match Lazy.force memo.(j).sr_step with
            | None -> ok := false
            | Some red ->
              delta := !delta + step_delta ~w memo j red;
              let th' = { th with ctx = red.Intra.ctx; sr = th.sr - 1 } in
              updates := (j, th') :: !updates
        end)
      threads;
    if !ok then Some { delta = !delta; updates = !updates } else None
  end

let candidates ~w memo threads =
  refresh memo threads;
  let n = Array.length threads in
  let prs = List.init n (fun i -> pr_candidate ~w memo threads i) in
  let demotes = List.init n (fun i -> demote_candidate ~w memo threads i) in
  List.filter_map Fun.id ((sr_candidate ~w memo threads :: prs) @ demotes)

let pick_min = function
  | [] -> None
  | c :: cs ->
    Some (List.fold_left (fun best c -> if c.delta < best.delta then c else best) c cs)

(* Stop conditions: [`Fit] stops once the pooled demand fits [nreg];
   [`Zero_cost] keeps reducing while some reduction is free (used for the
   paper's Figure 14 experiment). The memo lives only inside this call,
   so no two domains ever share it. *)
let reduce_loop ~w ~nreg threads stop =
  let memo = Array.map steps_of threads in
  let rec go threads =
    match stop with
    | `Fit when demand threads <= nreg -> Ok threads
    | `Fit -> (
      match pick_min (candidates ~w memo threads) with
      | Some c -> go (apply threads c)
      | None ->
        Error
          (`Infeasible
            (Fmt.str
               "register demand %d exceeds %d and no thread can be reduced \
                further"
               (demand threads) nreg)))
    | `Zero_cost -> (
      match pick_min (candidates ~w memo threads) with
      | Some c when c.delta <= 0 -> go (apply threads c)
      | Some _ | None -> Ok threads)
  in
  go threads

(* Per-thread move-cost weights: missing entries default to 1, negative
   entries clamp to 0 (a zero weight marks a thread whose moves are
   considered free — a sacrificial co-resident). *)
let weight_fn weights n =
  let a = Array.make n 1 in
  List.iteri (fun i v -> if i < n then a.(i) <- max 0 v) weights;
  fun i -> a.(i)

let balance ?(weights = []) ~nreg stop threads =
  let w = weight_fn weights (Array.length threads) in
  Result.map
    (fun threads -> { threads; nreg; sgr = max_sr threads })
    (reduce_loop ~w ~nreg threads stop)

let allocate ?weights ~nreg progs =
  balance ?weights ~nreg `Fit (Array.of_list (List.map init_thread progs))

let pp ppf t =
  Fmt.pf ppf "Nreg=%d SGR=%d demand=%d@." t.nreg t.sgr (demand t.threads);
  Array.iter
    (fun th ->
      Fmt.pf ppf "  %-16s PR=%-3d SR=%-3d moves=%-4d (%a)@." th.name th.pr
        th.sr (cost_of th) Estimate.pp_bounds th.bounds)
    t.threads
