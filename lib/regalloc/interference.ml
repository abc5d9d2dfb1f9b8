(* The paper's three interference graphs (§3.2) as an explicit view.

   The allocator itself works on {!Context} (segments + point sets); this
   module derives the paper's named structures for inspection, teaching
   and tests:

   - GIG: all live ranges, an edge wherever two are co-live;
   - BIG: boundary live ranges only, an edge when two are co-live across
     the same context-switch boundary;
   - IIG r: the internal live ranges of non-switch region [r] (the
     internal nodes tagged [region = Some r]) and their interference.

   The paper's claims hold by construction and are re-checked in tests:
   the BIG needs PR colours, the GIG needs R colours, and internal nodes
   of different IIGs never interfere (claim 2). *)

open Npra_ir
open Npra_cfg
module IntSet = Points.IntSet

type node = {
  vreg : Reg.t;
  boundary : bool;
  region : int option;  (* for internal nodes: their NSR *)
}

type t = {
  nodes : node list;
  gig_edges : (Reg.t * Reg.t) list;
  big_edges : (Reg.t * Reg.t) list;
  num : Numbering.t;
  gig_adj : Bitset.t array;  (* adjacency rows, indexed by vreg number *)
  big_adj : Bitset.t array;
}

let canonical a b = if Reg.compare a b <= 0 then (a, b) else (b, a)

let adjacency num edges =
  (* Bit-matrix fast path: row [i] holds the neighbours of register
     [Numbering.reg num i], so membership queries and degrees are O(1)
     and O(words) instead of a scan of the edge list. *)
  let w = Numbering.size num in
  let adj = Array.init w (fun _ -> Bitset.create w) in
  List.iter
    (fun (a, b) ->
      let ia = Numbering.index num a and ib = Numbering.index num b in
      Bitset.add adj.(ia) ib;
      Bitset.add adj.(ib) ia)
    edges;
  adj

let build prog =
  let ctx = Context.create prog in
  let regions = Context.regions ctx in
  let nodes =
    List.map
      (fun n ->
        let boundary = Context.is_boundary n in
        let region =
          if boundary then None
          else
            IntSet.choose_opt (Nsr.regions_of_gaps regions n.Context.gaps)
        in
        { vreg = n.Context.vreg; boundary; region })
      (Context.nodes ctx)
  in
  let edge_set neighbor_fn =
    List.fold_left
      (fun acc n ->
        List.fold_left
          (fun acc m -> (canonical n.Context.vreg m.Context.vreg, ()) :: acc)
          acc (neighbor_fn n))
      [] (Context.nodes ctx)
    |> List.map fst |> List.sort_uniq compare
  in
  let gig_edges = edge_set (fun n -> Context.neighbors ctx n) in
  let big_edges = edge_set (fun n -> Context.boundary_neighbors ctx n) in
  let num = Points.numbering (Context.points ctx) in
  {
    nodes;
    gig_edges;
    big_edges;
    num;
    gig_adj = adjacency num gig_edges;
    big_adj = adjacency num big_edges;
  }

let nodes t = t.nodes
let boundary_nodes t = List.filter (fun n -> n.boundary) t.nodes
let internal_nodes t = List.filter (fun n -> not n.boundary) t.nodes

let gig_edges t = t.gig_edges
let big_edges t = t.big_edges

let adj_mem t adj a b =
  match Numbering.index_opt t.num a, Numbering.index_opt t.num b with
  | Some ia, Some ib -> Bitset.mem adj.(ia) ib
  | _ -> false

let gig_degree t v =
  match Numbering.index_opt t.num v with
  | Some i -> Bitset.cardinal t.gig_adj.(i)
  | None -> 0

let interferes t a b = adj_mem t t.gig_adj a b
let boundary_interferes t a b = adj_mem t t.big_adj a b

let stats t =
  ( List.length t.nodes,
    List.length (boundary_nodes t),
    List.length t.gig_edges,
    List.length t.big_edges )
