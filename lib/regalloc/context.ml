(* Allocation context: the mutable-feeling but purely functional state the
   intra-thread allocator works on.

   A context is a partition of every live range (web) into segments
   ("nodes"), each a set of gaps plus the context-switch crossings it
   owns, together with a colour per node. Because the representation is
   immutable, snapshotting a context for what-if exploration (the paper's
   saved invocation contexts) is free.

   Cost model: a move instruction materialises on every gap edge where a
   value changes segment into a segment of a different colour; adjacent
   same-colour segments cost nothing (the paper's "eliminate unnecessary
   moves" falls out of the cost function and of {!coalesce}). *)

open Npra_ir
open Npra_cfg
module IntSet = Points.IntSet
module IntMap = Map.Make (Int)

module Key = struct
  type t = Reg.t * int

  let compare (r1, g1) (r2, g2) =
    match Reg.compare r1 r2 with 0 -> Int.compare g1 g2 | c -> c
end

module KeyMap = Map.Make (Key)

type node = {
  id : int;
  vreg : Reg.t;
  gaps : IntSet.t;
  csbs : IntSet.t;  (* crossings owned: CSBs c with gap c in [gaps] *)
  color : int;  (* 0 = uncoloured *)
}

type t = {
  prog : Prog.t;
  pts : Points.t;
  num : Numbering.t;  (* dense register numbering shared with [pts] *)
  regions : Nsr.t;
  nodes : node IntMap.t;
  seg_at : int KeyMap.t;  (* (vreg, gap) -> node id *)
  vreg_edges : (Reg.t * (int * int) list) list;  (* per-web gap edges *)
  defs_at : Reg.Set.t array;  (* registers defined by instruction i *)
  defs_bits : Bitset.t array;  (* dense view of [defs_at] *)
  falls : bool array;  (* instruction i falls through to i+1 *)
  def_gaps : IntSet.t Reg.Map.t;  (* gaps right after a def of the vreg *)
  next_id : int;
}

let prog t = t.prog
let points t = t.pts
let regions t = t.regions

let create prog =
  let pts = Points.compute prog in
  let num = Points.numbering pts in
  let regions = Nsr.compute prog in
  let live_regs =
    Reg.Set.filter
      (fun r -> not (IntSet.is_empty (Points.gaps_of pts r)))
      (Prog.regs prog)
  in
  let nodes, seg_at, next_id =
    Reg.Set.fold
      (fun vreg (nodes, seg_at, id) ->
        let gaps = Points.gaps_of pts vreg in
        let csbs = Points.csbs_of pts vreg in
        let n = { id; vreg; gaps; csbs; color = 0 } in
        let seg_at =
          IntSet.fold (fun g acc -> KeyMap.add (vreg, g) id acc) gaps seg_at
        in
        (IntMap.add id n nodes, seg_at, id + 1))
      live_regs
      (IntMap.empty, KeyMap.empty, 0)
  in
  let vreg_edges =
    Reg.Set.fold
      (fun vreg acc -> (vreg, Points.gap_edges_of pts vreg) :: acc)
      live_regs []
  in
  let n = Prog.length prog in
  let defs_at =
    Array.init n (fun i -> Reg.Set.of_list (Instr.defs (Prog.instr prog i)))
  in
  let defs_bits =
    Array.map
      (fun ds ->
        let b = Bitset.create (Numbering.size num) in
        Reg.Set.iter (fun r -> Bitset.add b (Numbering.index num r)) ds;
        b)
      defs_at
  in
  let falls = Array.init n (fun i -> Instr.falls_through (Prog.instr prog i)) in
  let def_gaps =
    let acc = ref Reg.Map.empty in
    Array.iteri
      (fun i ds ->
        Reg.Set.iter
          (fun v ->
            acc :=
              Reg.Map.update v
                (function
                  | None -> Some (IntSet.singleton (i + 1))
                  | Some s -> Some (IntSet.add (i + 1) s))
                !acc)
          ds)
      defs_at;
    !acc
  in
  { prog; pts; num; regions; nodes; seg_at; vreg_edges; defs_at; defs_bits;
    falls; def_gaps; next_id }

let node t id = IntMap.find id t.nodes
let nodes t = IntMap.bindings t.nodes |> List.map snd
let num_nodes t = IntMap.cardinal t.nodes

let seg t vreg gap = KeyMap.find_opt (vreg, gap) t.seg_at

let is_boundary n = not (IntSet.is_empty n.csbs)

let occupants t gap =
  (* Hot path: iterate the dense per-gap bitset rather than a tree set. *)
  Bitset.fold
    (fun i acc ->
      let v = Numbering.reg t.num i in
      match seg t v gap with
      | Some id -> IntMap.add id (node t id) acc
      | None -> acc)
    (Points.live_at_gap_bits t.pts gap)
    IntMap.empty
  |> IntMap.bindings |> List.map snd

(* --- move-hazard interference ------------------------------------
   A move materialised on a fallthrough edge (p, p+1) executes AFTER
   instruction p, so its source register must survive p's definitions:
   the defined value's segment (at gap p+1) interferes with every
   "outgoing" segment of the edge — a segment covering gap p whose
   vreg stays live into p+1 under a different segment. (When the vreg
   itself is defined by p there is no move at all: the definition
   writes straight into the p+1 segment.) *)

let live_through_bits t p =
  (* vregs live at both ends of the fallthrough edge (p, p+1), not
     defined by p; a fresh bitset the caller owns *)
  if p < 0 || p >= Array.length t.falls || not t.falls.(p) then
    Bitset.create (Numbering.size t.num)
  else begin
    let s =
      Bitset.inter
        (Points.live_at_gap_bits t.pts p)
        (Points.live_at_gap_bits t.pts (p + 1))
    in
    Bitset.diff_into ~into:s t.defs_bits.(p);
    s
  end

let outgoing_at t q =
  (* segments whose value is carried across edge (q-1, q) by an actual
     move: the segment changes AND the colours differ (equal colours mean
     the move is never materialised, so there is nothing to clobber;
     uncoloured segments are included conservatively) *)
  if q < 1 then []
  else
    Bitset.fold
      (fun i acc ->
        let v = Numbering.reg t.num i in
        match seg t v (q - 1), seg t v q with
        | Some a, Some b when a <> b ->
          let na = node t a and nb = node t b in
          if na.color > 0 && na.color = nb.color then acc else na :: acc
        | _ -> acc)
      (live_through_bits t (q - 1))
      []

let def_segs_at t q =
  (* segments receiving instruction (q-1)'s definitions, at gap q *)
  if q < 1 || q > Array.length t.defs_at then []
  else
    Reg.Set.fold
      (fun d acc ->
        match seg t d q with Some id -> node t id :: acc | None -> acc)
      t.defs_at.(q - 1) []

let hazard_violations t =
  (* all (def segment, outgoing segment) pairs currently sharing a
     colour — the clobber cases the engine must repair *)
  let out = ref [] in
  let ngaps = Points.num_gaps t.pts in
  for q = 1 to ngaps - 1 do
    match def_segs_at t q with
    | [] -> ()
    | defs ->
      let outgoing = outgoing_at t q in
      List.iter
        (fun d ->
          List.iter
            (fun s ->
              if
                (not (Reg.equal d.vreg s.vreg))
                && d.color > 0 && d.color = s.color
              then out := (d, s) :: !out)
            outgoing)
        defs
  done;
  !out

let hazard_neighbors t n =
  (* (a) n receives a definition at gap q: the edge's outgoing segments
     interfere with it *)
  let as_def =
    match Reg.Map.find_opt n.vreg t.def_gaps with
    | None -> []
    | Some dgaps ->
      IntSet.fold
        (fun q acc ->
          if IntSet.mem q n.gaps then
            List.filter (fun m -> not (Reg.equal m.vreg n.vreg)) (outgoing_at t q)
            @ acc
          else acc)
        dgaps []
  in
  (* (b) n is an outgoing segment of some edge (p, p+1): it interferes
     with the definitions landing at p+1 *)
  let as_outgoing =
    IntSet.fold
      (fun p acc ->
        if
          Bitset.mem (live_through_bits t p) (Numbering.index t.num n.vreg)
          && (match seg t n.vreg (p + 1) with
             | Some other -> other <> n.id
             | None -> false)
        then
          List.filter (fun m -> not (Reg.equal m.vreg n.vreg)) (def_segs_at t (p + 1))
          @ acc
        else acc)
      n.gaps []
  in
  as_def @ as_outgoing

let neighbors t n =
  let base =
    IntSet.fold
      (fun gap acc ->
        List.fold_left
          (fun acc m ->
            if Reg.equal m.vreg n.vreg then acc else IntMap.add m.id m acc)
          acc (occupants t gap))
      n.gaps IntMap.empty
  in
  List.fold_left (fun acc m -> IntMap.add m.id m acc) base (hazard_neighbors t n)
  |> IntMap.bindings |> List.map snd

let boundary_neighbors t n =
  (* Nodes crossing a CSB that [n] also crosses. *)
  IntSet.fold
    (fun c acc ->
      List.fold_left
        (fun acc m ->
          if Reg.equal m.vreg n.vreg then acc
          else if IntSet.mem c m.csbs then IntMap.add m.id m acc
          else acc)
        acc (occupants t c))
    n.csbs IntMap.empty
  |> IntMap.bindings |> List.map snd

let neighbor_colors t n =
  List.fold_left
    (fun acc m -> if m.color > 0 then IntSet.add m.color acc else acc)
    IntSet.empty (neighbors t n)

let set_color t id color =
  let n = IntMap.find id t.nodes in
  { t with nodes = IntMap.add id { n with color } t.nodes }

let add_node t vreg gaps color =
  let csbs = IntSet.inter gaps (Points.csbs_of t.pts vreg) in
  let id = t.next_id in
  let n = { id; vreg; gaps; csbs; color } in
  let seg_at =
    IntSet.fold (fun g acc -> KeyMap.add (vreg, g) id acc) gaps t.seg_at
  in
  ( { t with nodes = IntMap.add id n t.nodes; seg_at; next_id = id + 1 },
    n )

let carve t id sub =
  (* Splits [sub] (a strict, non-empty subset of the node's gaps) out of
     node [id] into a fresh node that keeps the original colour. *)
  let n = IntMap.find id t.nodes in
  assert (not (IntSet.is_empty sub));
  assert (IntSet.subset sub n.gaps);
  let rest = IntSet.diff n.gaps sub in
  assert (not (IntSet.is_empty rest));
  let n' =
    { n with gaps = rest; csbs = IntSet.inter rest n.csbs }
  in
  let t = { t with nodes = IntMap.add id n' t.nodes } in
  add_node t n.vreg sub n.color

let fragment t id =
  (* Explodes a node into one singleton segment per gap (keeping the
     original node for its smallest gap); returns the context and the ids
     of all resulting singletons. *)
  let n = IntMap.find id t.nodes in
  let gaps = IntSet.elements n.gaps in
  match gaps with
  | [] | [ _ ] -> (t, [ id ])
  | first :: rest ->
    let t, ids =
      List.fold_left
        (fun (t, ids) g ->
          let t, m = carve t id (IntSet.singleton g) in
          (t, m.id :: ids))
        (t, []) rest
    in
    ignore first;
    (t, id :: List.rev ids)

let crossing_moves t =
  (* All (edge, vreg, src node, dst node) where the value changes segment
     across a gap edge into a different colour. A definition boundary is
     not a crossing: when instruction [p] defines the vreg, the rewritten
     definition writes straight into the gap-[q] segment. *)
  List.concat_map
    (fun (vreg, edges) ->
      List.filter_map
        (fun (p, q) ->
          if p < Array.length t.defs_at && Reg.Set.mem vreg t.defs_at.(p) then
            None
          else
            match seg t vreg p, seg t vreg q with
            | Some a, Some b when a <> b ->
              let na = node t a and nb = node t b in
              if na.color <> nb.color then Some ((p, q), vreg, na, nb)
              else None
            | _ -> None)
        edges)
    t.vreg_edges

let move_count t = List.length (crossing_moves t)

let coalesce t =
  (* Merges adjacent same-vreg same-colour segments, normalising the
     partition after aggressive splitting. *)
  let ids = IntMap.bindings t.nodes |> List.map fst |> Array.of_list in
  let index_of = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i id -> Hashtbl.add index_of id i) ids;
  let dsu = Dsu.create (Array.length ids) in
  List.iter
    (fun (vreg, edges) ->
      List.iter
        (fun (p, q) ->
          match seg t vreg p, seg t vreg q with
          | Some a, Some b when a <> b ->
            let na = node t a and nb = node t b in
            if na.color = nb.color then
              Dsu.union dsu (Hashtbl.find index_of a) (Hashtbl.find index_of b)
          | _ -> ())
        edges)
    t.vreg_edges;
  (* Rebuild nodes: union gaps into the representative. *)
  let merged = Hashtbl.create 16 in
  Array.iteri
    (fun i id ->
      let root = ids.(Dsu.find dsu i) in
      let n = IntMap.find id t.nodes in
      match Hashtbl.find_opt merged root with
      | None -> Hashtbl.add merged root n
      | Some m ->
        Hashtbl.replace merged root
          {
            m with
            gaps = IntSet.union m.gaps n.gaps;
            csbs = IntSet.union m.csbs n.csbs;
          })
    ids;
  let nodes =
    Hashtbl.fold
      (fun root n acc -> IntMap.add root { n with id = root } acc)
      merged IntMap.empty
  in
  let seg_at =
    IntMap.fold
      (fun id n acc ->
        IntSet.fold (fun g acc -> KeyMap.add (n.vreg, g) id acc) n.gaps acc)
      nodes KeyMap.empty
  in
  { t with nodes; seg_at }

let max_color t =
  IntMap.fold (fun _ n acc -> max acc n.color) t.nodes 0

let max_boundary_color t =
  IntMap.fold
    (fun _ n acc -> if is_boundary n then max acc n.color else acc)
    t.nodes 0

let renumber t perm =
  (* Applies a colour permutation/compaction [perm : int -> int]. *)
  let nodes = IntMap.map (fun n -> { n with color = perm n.color }) t.nodes in
  { t with nodes }

type check_error =
  | Uncolored of int
  | Color_out_of_range of int * int
  | Boundary_color_too_high of int * int
  | Clash_at_gap of int * int * int
  | Move_hazard_at_edge of int * int * int
      (* (edge source instr, def node, outgoing node) *)

let pp_check_error ppf = function
  | Uncolored id -> Fmt.pf ppf "node %d uncoloured" id
  | Color_out_of_range (id, c) -> Fmt.pf ppf "node %d colour %d out of range" id c
  | Boundary_color_too_high (id, c) ->
    Fmt.pf ppf "boundary node %d has shared colour %d" id c
  | Clash_at_gap (gap, a, b) ->
    Fmt.pf ppf "nodes %d and %d share colour at gap %d" a b gap
  | Move_hazard_at_edge (p, d, s) ->
    Fmt.pf ppf
      "instruction %d defines node %d in the register a move still reads \
       from node %d"
      p d s

let check t ~pr ~r =
  let errs = ref [] in
  IntMap.iter
    (fun id n ->
      if n.color <= 0 then errs := Uncolored id :: !errs
      else if n.color > r then errs := Color_out_of_range (id, n.color) :: !errs
      else if is_boundary n && n.color > pr then
        errs := Boundary_color_too_high (id, n.color) :: !errs)
    t.nodes;
  let ngaps = Points.num_gaps t.pts in
  for gap = 0 to ngaps - 1 do
    let occ = occupants t gap in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun n ->
        if n.color > 0 then begin
          (match Hashtbl.find_opt seen n.color with
          | Some other -> errs := Clash_at_gap (gap, other, n.id) :: !errs
          | None -> ());
          Hashtbl.replace seen n.color n.id
        end)
      occ
  done;
  (* move hazards: a definition landing at gap q must not reuse the
     colour of a segment a move still reads on edge (q-1, q) *)
  for q = 1 to ngaps - 1 do
    match def_segs_at t q with
    | [] -> ()
    | defs ->
      let outgoing = outgoing_at t q in
      List.iter
        (fun d ->
          List.iter
            (fun s ->
              if
                (not (Reg.equal d.vreg s.vreg))
                && d.color > 0 && d.color = s.color
              then errs := Move_hazard_at_edge (q - 1, d.id, s.id) :: !errs)
            outgoing)
        defs
  done;
  !errs

let pp ppf t =
  IntMap.iter
    (fun _ n ->
      Fmt.pf ppf "node %d %a colour %d gaps {%a} csbs {%a}@." n.id Reg.pp
        n.vreg n.color
        Fmt.(list ~sep:comma int)
        (IntSet.elements n.gaps)
        Fmt.(list ~sep:comma int)
        (IntSet.elements n.csbs))
    t.nodes
