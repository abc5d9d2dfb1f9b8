(* Intra-thread register allocation (paper §7, Figure 10).

   The paper's Reduce-PR and Reduce-SR invocations instantiate one
   engine: {e eliminate a colour [c]}, recolouring the nodes that bear
   it. The engine runs in two scopes:

   - [`All]: colour [c] disappears entirely — a strong PR-step
     [(PR-1, SR, R-1)] or an SR-step [(PR, SR-1, R-1)];
   - [`Boundary]: colour [c] is only removed from boundary nodes and
     demoted to a shared-only colour — the weak PR-step
     [(PR-1, SR+1, R)], which is how private registers are converted
     into shared ones without touching internal live ranges.

   Three escalating tactics per node:

   1. free recolouring — some allowed colour is unused by all neighbours
      (the paper's NCN test);
   2. carve-assisted recolouring — the blockers of a candidate colour are
      split away from the node: for a boundary node the conflicting NSRs
      are excluded whole (Figures 11/12), for an internal node only the
      overlap with the blockers is carved (Figure 13); the carved piece
      keeps colour [c] and, in [`All] scope, is re-queued strictly
      smaller;
   3. fragmentation — the node is exploded into singleton segments; each
      singleton recolours freely or, as a last resort, its gap is
      normalised: every occupant of the gap is fragmented and the gap is
      recoloured from scratch (crossing owners into the private palette
      first). Under the lower-bound guards ([pr' >= RegPCSBmax],
      [r' >= RegPmax] for the post-elimination palette) normalisation
      always succeeds.

   Every tactic strictly shrinks the territory the queue still has to
   recolour, so the engine terminates; the guards make it total, which is
   what lets the inter-thread allocator drive any thread down to its
   lower bounds (the paper's Lemma 1). *)

open Npra_cfg
module IntSet = Points.IntSet

let min_pr ctx = Points.reg_pressure_csb_max (Context.points ctx)
let min_r ctx = Points.reg_pressure_max (Context.points ctx)

let lowest_in allowed used =
  List.find_opt (fun c -> not (IntSet.mem c used)) allowed

exception Infeasible

(* Normalise one gap: fragment every occupant, then recolour all the
   singletons at the gap from scratch — crossing owners get distinct
   private colours first, everything else fills the remaining palette. *)
let normalize_gap ctx gap ~ballowed ~iallowed =
  let occupant_ids ctx =
    List.map (fun n -> n.Context.id) (Context.occupants ctx gap)
  in
  let ctx =
    List.fold_left
      (fun ctx id ->
        let ctx, _ids = Context.fragment ctx id in
        ctx)
      ctx (occupant_ids ctx)
  in
  (* After fragmentation every occupant of [gap] is a singleton {gap}. *)
  let occ = Context.occupants ctx gap in
  let crossing, plain = List.partition Context.is_boundary occ in
  let assign ctx used n allowed =
    (* besides the colours already assigned at this gap, avoid the
       colours of the singleton's move-hazard neighbours (they live at
       other gaps and keep their colours) *)
    let used' =
      List.fold_left
        (fun acc m ->
          if m.Context.color > 0 then IntSet.add m.Context.color acc else acc)
        used
        (Context.hazard_neighbors ctx (Context.node ctx n.Context.id))
    in
    match lowest_in allowed used' with
    | Some c -> (Context.set_color ctx n.Context.id c, IntSet.add c used)
    | None -> raise Infeasible
  in
  let ctx, used =
    List.fold_left
      (fun (ctx, used) n -> assign ctx used n ballowed)
      (ctx, IntSet.empty) crossing
  in
  let ctx, _used =
    List.fold_left
      (fun (ctx, used) n -> assign ctx used n iallowed)
      (ctx, used) plain
  in
  ctx

(* Carve the blockers of colour [c'] away from node [id]. Returns the
   gaps to carve, or None when carving cannot free the node. *)
let carve_set ctx id c' =
  let n = Context.node ctx id in
  let blockers =
    List.filter (fun m -> m.Context.color = c') (Context.neighbors ctx n)
  in
  if blockers = [] then Some IntSet.empty
  else begin
    let shared b = IntSet.inter n.Context.gaps b.Context.gaps in
    let sub =
      if Context.is_boundary n then begin
        (* NSR exclusion: every region where a blocker overlaps [n] is
           excluded whole. Crossing gaps (region-less) are never carved. *)
        let regions = Context.regions ctx in
        let conflict_regions =
          List.fold_left
            (fun acc b -> IntSet.union acc (Nsr.regions_of_gaps regions (shared b)))
            IntSet.empty blockers
        in
        IntSet.filter
          (fun g ->
            match Nsr.region_of_gap regions g with
            | Some r -> IntSet.mem r conflict_regions
            | None -> false)
          n.Context.gaps
      end
      else
        (* Overlap exclusion: carve exactly the gaps shared with blockers. *)
        List.fold_left (fun acc b -> IntSet.union acc (shared b)) IntSet.empty
          blockers
    in
    if IntSet.is_empty sub || IntSet.equal sub n.Context.gaps then None
    else
      (* The kept part must actually be free of the blockers. *)
      let kept = IntSet.diff n.Context.gaps sub in
      let still_blocked =
        List.exists
          (fun b -> not (IntSet.is_empty (IntSet.inter kept b.Context.gaps)))
          blockers
      in
      if still_blocked then None else Some sub
  end

(* Recolour one singleton segment (used by the fragmentation tactic). *)
let recolor_singleton ctx id ~ballowed ~iallowed =
  let n = Context.node ctx id in
  let allowed = if Context.is_boundary n then ballowed else iallowed in
  let used = Context.neighbor_colors ctx n in
  match lowest_in allowed used with
  | Some c -> Context.set_color ctx id c
  | None ->
    let gap =
      match IntSet.choose_opt n.Context.gaps with
      | Some g -> g
      | None -> raise Infeasible
    in
    normalize_gap ctx gap ~ballowed ~iallowed

type scope = [ `All | `Boundary ]

let eliminate_color ?(scope = `All) ctx ~c ~pr ~r =
  let range lo hi = List.init (max 0 (hi - lo + 1)) (fun i -> lo + i) in
  let ballowed = List.filter (fun k -> k <> c) (range 1 pr) in
  let iallowed =
    match scope with
    | `All -> List.filter (fun k -> k <> c) (range 1 r)
    | `Boundary -> range 1 r  (* internal nodes may keep / take [c] *)
  in
  let in_scope n =
    match scope with `All -> true | `Boundary -> Context.is_boundary n
  in
  let queue = Queue.create () in
  List.iter
    (fun n ->
      if n.Context.color = c && in_scope n then Queue.add n.Context.id queue)
    (Context.nodes ctx);
  let ctx = ref ctx in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    (* The node may have been recoloured or normalised meanwhile. *)
    let n = try Some (Context.node !ctx id) with Not_found -> None in
    match n with
    | Some n when n.Context.color = c && in_scope n ->
      let allowed = if Context.is_boundary n then ballowed else iallowed in
      let used = Context.neighbor_colors !ctx n in
      (match lowest_in allowed used with
      | Some c' -> ctx := Context.set_color !ctx id c'
      | None -> (
        (* Carve-assisted: pick the candidate colour whose blockers
           carve away the smallest piece. *)
        let candidates =
          List.filter_map
            (fun c' ->
              match carve_set !ctx id c' with
              | Some sub when not (IntSet.is_empty sub) ->
                Some (IntSet.cardinal sub, c', sub)
              | Some _ | None -> None)
            allowed
        in
        let by_size (ka, ca, _) (kb, cb, _) =
          match Int.compare ka kb with
          | 0 -> Int.compare ca cb
          | cmp -> cmp
        in
        match List.sort by_size candidates with
        | (_, c', sub) :: _ ->
          let ctx', piece = Context.carve !ctx id sub in
          ctx := Context.set_color ctx' id c';
          if scope = `All then Queue.add piece.Context.id queue
        | [] ->
          (* Fragmentation fallback. *)
          let ctx', ids = Context.fragment !ctx id in
          ctx := ctx';
          List.iter
            (fun sid ->
              match Context.node !ctx sid with
              | m when m.Context.color = c && in_scope m ->
                ctx := recolor_singleton !ctx sid ~ballowed ~iallowed
              | _ -> ()
              | exception Not_found -> ())
            ids))
    | Some _ | None -> ()
  done;
  (* Splitting near an already-coloured definition can create a move
     hazard retroactively (the definition clobbers a register a fresh
     move still reads). Repair: recolour the definition's segment, or
     kill the move by aligning the outgoing segment with its sibling, or
     recolour the outgoing segment — each choice validated against the
     full (hazard-aware) neighbourhood. *)
  let repair_rounds = ref 0 in
  let rec repair () =
    match Context.hazard_violations !ctx with
    | [] -> ()
    | violations ->
      incr repair_rounds;
      if !repair_rounds > 10 then raise Infeasible;
      List.iter
        (fun (d, s) ->
          let d = Context.node !ctx d.Context.id
          and s = Context.node !ctx s.Context.id in
          if d.Context.color = s.Context.color then begin
            let try_recolor n =
              let allowed =
                if Context.is_boundary n then ballowed else iallowed
              in
              let used = Context.neighbor_colors !ctx n in
              match lowest_in allowed used with
              | Some c' ->
                ctx := Context.set_color !ctx n.Context.id c';
                true
              | None -> false
            in
            (* align the outgoing segment with its sibling: the move
               disappears, and with it the hazard *)
            let try_align () =
              let sibling_colors =
                IntSet.fold
                  (fun p acc ->
                    match Context.seg !ctx s.Context.vreg (p + 1) with
                    | Some other when other <> s.Context.id ->
                      let c = (Context.node !ctx other).Context.color in
                      if c > 0 then IntSet.add c acc else acc
                    | _ -> acc)
                  s.Context.gaps IntSet.empty
              in
              let allowed =
                if Context.is_boundary s then ballowed else iallowed
              in
              let used = Context.neighbor_colors !ctx s in
              match
                List.find_opt
                  (fun c ->
                    IntSet.mem c sibling_colors && not (IntSet.mem c used))
                  allowed
              with
              | Some c ->
                ctx := Context.set_color !ctx s.Context.id c;
                true
              | None -> false
            in
            if not (try_recolor d) then
              if not (try_align ()) then
                if not (try_recolor s) then raise Infeasible
          end)
        violations;
      repair ()
  in
  repair ();
  (* Compact the palette. In [`All] scope colour [c] is gone: colours
     above shift down. In [`Boundary] scope [c] became shared-only: it
     moves to the top of the palette, the rest compact. *)
  let perm =
    match scope with
    | `All -> fun k -> if k > c then k - 1 else k
    | `Boundary -> fun k -> if k = c then r else if k > c then k - 1 else k
  in
  let ctx = Context.renumber !ctx perm in
  Context.coalesce ctx

type reduction = { ctx : Context.t; cost : int }

(* Evaluates colour eliminations lazily, keeping the cheapest; stops
   early when an elimination adds no moves at all (nothing can beat it,
   since the cost function is the total move count and eliminations never
   remove pre-existing crossings). *)
let try_colors ?scope ctx colors ~pr ~r =
  let floor = Context.move_count ctx in
  let rec go best = function
    | [] -> best
    | c :: rest -> (
      match eliminate_color ?scope ctx ~c ~pr ~r with
      | exception Infeasible -> go best rest
      | ctx' ->
        let cost = Context.move_count ctx' in
        let best =
          match best with
          | Some b when b.cost <= cost -> Some b
          | Some _ | None -> Some { ctx = ctx'; cost }
        in
        if cost <= floor then best else go best rest)
  in
  go None colors

let private_colors pr = List.init pr (fun i -> i + 1)
let shared_colors pr r = List.init (max 0 (r - pr)) (fun i -> pr + 1 + i)

let reduce_pr ctx ~pr ~r =
  (* Strong PR-step: (PR-1, SR, R-1). *)
  if pr - 1 < min_pr ctx || r - 1 < min_r ctx then None
  else try_colors ctx (private_colors pr) ~pr ~r

let demote_pr ctx ~pr ~r =
  (* Weak PR-step: (PR-1, SR+1, R) — a private colour becomes shared. *)
  if pr - 1 < min_pr ctx then None
  else try_colors ~scope:`Boundary ctx (private_colors pr) ~pr ~r

let reduce_sr ctx ~pr ~r =
  if r - 1 < min_r ctx || r <= pr then None
  else try_colors ctx (shared_colors pr r) ~pr ~r

let reduce_to ctx ~pr ~r ~target_pr ~target_sr =
  (* Drives the context to exactly (target_pr, target_sr), choosing the
     cheapest applicable step each time:
       strong PR   (pr-1, sr)    when pr > target and sr is not short
       demote PR   (pr-1, sr+1)  when pr > target and sr must grow
       reduce SR   (pr, sr-1)    when sr > target *)
  let rec go ctx pr sr =
    if pr = target_pr && sr = target_sr then
      Some { ctx; cost = Context.move_count ctx }
    else begin
      let r = pr + sr in
      let step_strong =
        if pr > target_pr && sr >= target_sr then reduce_pr ctx ~pr ~r
        else None
      in
      let step_demote =
        if pr > target_pr && sr < target_sr then demote_pr ctx ~pr ~r
        else None
      in
      let step_sr =
        if sr > target_sr then reduce_sr ctx ~pr ~r else None
      in
      let cands =
        List.filter_map
          (fun (kind, c) -> Option.map (fun red -> (kind, red)) c)
          [
            (`Strong, step_strong); (`Demote, step_demote); (`Sr, step_sr);
          ]
      in
      match
        List.sort (fun (_, a) (_, b) -> Int.compare a.cost b.cost) cands
      with
      | [] -> None
      | (kind, red) :: _ -> (
        match kind with
        | `Strong -> go red.ctx (pr - 1) sr
        | `Demote -> go red.ctx (pr - 1) (sr + 1)
        | `Sr -> go red.ctx pr (sr - 1))
    end
  in
  if
    target_pr < min_pr ctx
    || target_pr + target_sr < min_r ctx
    || target_pr > pr
    || target_sr > (r - pr) + (pr - target_pr)
  then None
  else go ctx pr (r - pr)

(* The paper's Lemma 1 makes (MinPR, MinR) always reachable on the IXP,
   whose memory reads land in transfer registers. Our machine writes load
   results into GPRs directly, which adds write-back move hazards
   (see {!Context.hazard_neighbors}); in rare shapes they push the floor
   up by a register. [reduce_to_best] finds the nearest reachable point:
   candidates at increasing extra register count, preferring extra shared
   registers over extra private ones. *)
let reduce_to_best ctx ~pr ~r ~target_pr ~target_sr =
  let sr0 = r - pr in
  let max_extra = max 0 (pr + sr0 - (target_pr + target_sr)) in
  let rec try_extra extra =
    if extra > max_extra then None
    else begin
      (* all (tpr, tsr) splits of the total [target + extra], smallest
         private count first (the paper's objective) *)
      let total = target_pr + target_sr + extra in
      let rec try_pr tpr =
        if tpr > pr then None
        else begin
          let tsr = total - tpr in
          if tsr < 0 || tsr > sr0 + (pr - tpr) then try_pr (tpr + 1)
          else
            match reduce_to ctx ~pr ~r ~target_pr:tpr ~target_sr:tsr with
            | Some red -> Some (red, tpr, tsr)
            | None -> try_pr (tpr + 1)
        end
      in
      match try_pr target_pr with
      | Some x -> Some x
      | None -> try_extra (extra + 1)
    end
  in
  try_extra 0
