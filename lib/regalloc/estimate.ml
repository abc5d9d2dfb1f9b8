(* Register requirement estimation (paper §5, Figure 7).

   Lower bounds: MinR = RegPmax (maximum co-live registers at any point),
   MinPR = RegPCSBmax (maximum registers live across any single CSB); both
   are reachable by live-range splitting (Lemma 1).

   Upper bounds come from a region-based colouring that minimises MaxPR
   first: colour the boundary nodes, then each NSR's internal nodes
   independently, then merge and resolve the conflict edges between the
   internal colourings and the boundary colouring, growing MaxR only when
   recolouring fails.

   One deliberate deviation from the paper's description: phase 1 colours
   the subgraph induced by boundary nodes under *all* interference edges,
   not only boundary-interference edges — two boundary nodes that overlap
   inside an NSR but never cross the same CSB still need distinct private
   registers, and handling those edges up front keeps the merge phase
   simple without changing the bound's role. *)

open Npra_cfg
module IntSet = Points.IntSet

type bounds = {
  min_pr : int;
  min_r : int;
  max_pr : int;
  max_r : int;
}

let pp_bounds ppf b =
  Fmt.pf ppf "MinPR=%d MinR=%d MaxPR=%d MaxR=%d" b.min_pr b.min_r b.max_pr
    b.max_r

(* [(RegPCSBmax, RegPmax)]. *)
let lower_bounds pts =
  (Points.reg_pressure_csb_max pts, Points.reg_pressure_max pts)

(* Greedy colouring helper: lowest colour (from 1) not in [used]. *)
let lowest_free used =
  let rec go c = if IntSet.mem c used then go (c + 1) else c in
  go 1

(* Node ids are stable during estimation (no splitting happens), so the
   interference adjacency can be snapshotted once instead of re-deriving
   neighbours from gap occupancy on every query. *)
let adjacency ctx =
  let adj : (int, IntSet.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace adj n.Context.id IntSet.empty)
    (Context.nodes ctx);
  let ngaps = Points.num_gaps (Context.points ctx) in
  for gap = 0 to ngaps - 1 do
    let occ = Context.occupants ctx gap in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a.Context.id <> b.Context.id then
              Hashtbl.replace adj a.Context.id
                (IntSet.add b.Context.id (Hashtbl.find adj a.Context.id)))
          occ)
      occ
  done;
  fun id -> try Hashtbl.find adj id with Not_found -> IntSet.empty

let by_degree_desc adj ns =
  let with_deg =
    List.map (fun n -> (IntSet.cardinal (adj n.Context.id), n)) ns
  in
  List.stable_sort
    (fun (da, a) (db, b) ->
      match Int.compare db da with
      | 0 -> Int.compare a.Context.id b.Context.id
      | c -> c)
    with_deg
  |> List.map snd

let neighbor_colors_via adj ctx id =
  IntSet.fold
    (fun m acc ->
      let c = (Context.node ctx m).Context.color in
      if c > 0 then IntSet.add c acc else acc)
    (adj id) IntSet.empty

(* Phase 1: colour boundary nodes. *)
let color_boundary adj ctx =
  let boundary = List.filter Context.is_boundary (Context.nodes ctx) in
  List.fold_left
    (fun ctx n ->
      (* Only boundary neighbours are coloured at this stage, so the used
         set automatically restricts to them. *)
      let used = neighbor_colors_via adj ctx n.Context.id in
      Context.set_color ctx n.Context.id (lowest_free used))
    ctx
    (by_degree_desc adj boundary)

(* Phase 2: colour internal nodes per region, independently (ignoring
   boundary nodes), from colour 1 up. *)
let color_internal_independent adj ctx =
  let internal =
    List.filter (fun n -> not (Context.is_boundary n)) (Context.nodes ctx)
  in
  List.fold_left
    (fun ctx n ->
      let used =
        IntSet.fold
          (fun m acc ->
            let mn = Context.node ctx m in
            if (not (Context.is_boundary mn)) && mn.Context.color > 0 then
              IntSet.add mn.Context.color acc
            else acc)
          (adj n.Context.id) IntSet.empty
      in
      Context.set_color ctx n.Context.id (lowest_free used))
    ctx
    (by_degree_desc adj internal)

(* Phase 3: merge. After the independent colourings, the only possible
   conflicts are between an internal node and a boundary neighbour. For
   each such conflict: recolour the internal node within the current R if
   possible; otherwise try recolouring the blocking boundary neighbours
   within MaxPR; otherwise grow R. *)
let merge adj ctx ~max_pr =
  let r = ref (max (Context.max_color ctx) max_pr) in
  let internal_ids =
    List.filter_map
      (fun n -> if Context.is_boundary n then None else Some n.Context.id)
      (Context.nodes ctx)
  in
  let recolor_blockers ctx id =
    let color = (Context.node ctx id).Context.color in
    IntSet.fold
      (fun m ctx ->
        let mn = Context.node ctx m in
        if mn.Context.color = color && Context.is_boundary mn then begin
          let used = neighbor_colors_via adj ctx m in
          let cb = lowest_free used in
          if cb <= max_pr then Context.set_color ctx m cb else ctx
        end
        else ctx)
      (adj id) ctx
  in
  let ctx =
    List.fold_left
      (fun ctx id ->
        let conflict ctx =
          let n = Context.node ctx id in
          IntSet.exists
            (fun m -> (Context.node ctx m).Context.color = n.Context.color)
            (adj id)
        in
        if not (conflict ctx) then ctx
        else
          let used = neighbor_colors_via adj ctx id in
          let c = lowest_free used in
          if c <= !r then Context.set_color ctx id c
          else
            let ctx' = recolor_blockers ctx id in
            if not (conflict ctx') then ctx'
            else begin
              r := !r + 1;
              Context.set_color ctx id !r
            end)
      ctx internal_ids
  in
  (ctx, !r)

let run ctx =
  let adj = adjacency ctx in
  let ctx = color_boundary adj ctx in
  let max_pr = Context.max_boundary_color ctx in
  let ctx = color_internal_independent adj ctx in
  let ctx, max_r = merge adj ctx ~max_pr in
  let max_r = max max_r max_pr in
  let min_pr, min_r = lower_bounds (Context.points ctx) in
  (ctx, { min_pr; min_r; max_pr; max_r })
