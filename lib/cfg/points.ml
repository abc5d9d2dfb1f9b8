(* Program points and point-set liveness algebra.

   The unit of reasoning for live-range splitting is the "gap": gap [p] is
   the program point immediately before instruction [p], for [p] in
   [0 .. n] (gap [n] is past the end). A register [v] is live at gap [p]
   when it is live on entry to instruction [p], or when instruction [p-1]
   just defined it (a dead definition still occupies a register at the
   point after the defining instruction).

   Executing instruction [p] moves control from gap [p] to gap [q] for
   each successor [q]; these gap edges [(p, q)] are where split moves can
   be materialised.

   A context-switch boundary (CSB) lives inside its causing instruction
   [c]: the values that survive it are [live_out(c) \ defs(c)]; each such
   value is live at both gap [c] and gap [c+1], and by convention the live
   range segment containing gap [c] "owns" the crossing.

   Per-gap live sets are dense bitsets over the program's register
   numbering (shared with {!Liveness}); the Reg.Set accessors materialise
   tree-set views on demand for the remaining sparse consumers. *)

open Npra_ir
module IntSet = Set.Make (Int)

type t = {
  n : int;
  num : Numbering.t;
  live_at_gap : Bitset.t array;  (* length n+1 *)
  gaps_of : IntSet.t Reg.Map.t;
  across : Bitset.t array;  (* per instruction; empty unless CSB *)
  csb_points : int list;  (* CSB instruction indices, program order *)
  csbs_of : IntSet.t Reg.Map.t;
  edges : (int * int) list;  (* gap edges *)
}

let compute prog =
  let live = Liveness.compute prog in
  let num = Liveness.numbering live in
  let n = Prog.length prog in
  let live_at_gap =
    Array.init (n + 1) (fun p ->
        if p < n then Liveness.live_in_bits live p
        else Bitset.create (Numbering.size num))
  in
  for p = 1 to n do
    List.iter
      (fun d -> Bitset.add live_at_gap.(p) (Numbering.index num d))
      (Instr.defs (Prog.instr prog (p - 1)))
  done;
  let gaps_of = ref Reg.Map.empty in
  Array.iteri
    (fun p bits ->
      Bitset.iter
        (fun i ->
          let r = Numbering.reg num i in
          gaps_of :=
            Reg.Map.update r
              (function
                | None -> Some (IntSet.singleton p)
                | Some s -> Some (IntSet.add p s))
              !gaps_of)
        bits)
    live_at_gap;
  let across =
    Array.init n (fun i ->
        if Instr.causes_ctx_switch (Prog.instr prog i) then
          Liveness.live_across_bits live i
        else Bitset.create (Numbering.size num))
  in
  let csb_points = ref [] in
  for i = n - 1 downto 0 do
    if Instr.causes_ctx_switch (Prog.instr prog i) then
      csb_points := i :: !csb_points
  done;
  let csbs_of = ref Reg.Map.empty in
  List.iter
    (fun c ->
      Bitset.iter
        (fun i ->
          let r = Numbering.reg num i in
          csbs_of :=
            Reg.Map.update r
              (function
                | None -> Some (IntSet.singleton c)
                | Some s -> Some (IntSet.add c s))
              !csbs_of)
        across.(c))
    !csb_points;
  let edges =
    Prog.fold_instrs
      (fun acc i ins ->
        let acc = if Instr.falls_through ins then (i, i + 1) :: acc else acc in
        match Instr.branch_target ins with
        | Some l ->
          let j = Prog.label_index prog l in
          if Instr.falls_through ins && j = i + 1 then acc else (i, j) :: acc
        | None -> acc)
      [] prog
    |> List.rev
  in
  {
    n;
    num;
    live_at_gap;
    gaps_of = !gaps_of;
    across;
    csb_points = !csb_points;
    csbs_of = !csbs_of;
    edges;
  }

let numbering t = t.num
let num_gaps t = t.n + 1

let set_of_bits num bits =
  Bitset.fold (fun i acc -> Reg.Set.add (Numbering.reg num i) acc) bits
    Reg.Set.empty

let live_at_gap t p = set_of_bits t.num t.live_at_gap.(p)
let live_at_gap_bits t p = t.live_at_gap.(p)

let gaps_of t r =
  match Reg.Map.find_opt r t.gaps_of with
  | Some s -> s
  | None -> IntSet.empty

let csbs_of t r =
  match Reg.Map.find_opt r t.csbs_of with
  | Some s -> s
  | None -> IntSet.empty

let across t i = set_of_bits t.num t.across.(i)
let across_bits t i = t.across.(i)
let csb_points t = t.csb_points
let gap_edges t = t.edges

let gap_edges_of t r =
  let gaps = gaps_of t r in
  List.filter (fun (p, q) -> IntSet.mem p gaps && IntSet.mem q gaps) t.edges

let reg_pressure_max t =
  Array.fold_left (fun acc s -> max acc (Bitset.cardinal s)) 0 t.live_at_gap

let reg_pressure_csb_max t =
  List.fold_left
    (fun acc c -> max acc (Bitset.cardinal t.across.(c)))
    0 t.csb_points

let is_boundary t r = not (IntSet.is_empty (csbs_of t r))
