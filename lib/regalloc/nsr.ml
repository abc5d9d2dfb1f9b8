(* Non-Switch Regions (paper §3.1).

   An NSR is a maximal connected subgraph of the CFG containing no
   context-switch instruction; its boundaries are CSBs and the program
   entry/exit. We compute regions at instruction granularity with a
   union-find: two non-CSB instructions joined by a CFG edge share a
   region. CSB instructions belong to no region — they are the
   boundaries. *)

open Npra_ir
open Npra_cfg

type t = {
  region_of_instr : int option array;
  num_regions : int;
  region_sizes : int array;  (* instructions per region *)
}

let compute prog =
  let n = Prog.length prog in
  let is_csb i = Instr.causes_ctx_switch (Prog.instr prog i) in
  let dsu = Dsu.create n in
  for i = 0 to n - 1 do
    if not (is_csb i) then
      List.iter
        (fun j -> if j < n && not (is_csb j) then Dsu.union dsu i j)
        (Prog.succs prog i)
  done;
  (* Compact representative roots to dense region ids. *)
  let id_of_root = Hashtbl.create 16 in
  let next = ref 0 in
  let region_of_instr =
    Array.init n (fun i ->
        if is_csb i then None
        else begin
          let root = Dsu.find dsu i in
          let id =
            match Hashtbl.find_opt id_of_root root with
            | Some id -> id
            | None ->
              let id = !next in
              incr next;
              Hashtbl.add id_of_root root id;
              id
          in
          Some id
        end)
  in
  let region_sizes = Array.make !next 0 in
  Array.iter
    (function
      | Some r -> region_sizes.(r) <- region_sizes.(r) + 1
      | None -> ())
    region_of_instr;
  { region_of_instr; num_regions = !next; region_sizes }

let num_regions t = t.num_regions

let region_of_instr t i = t.region_of_instr.(i)

let region_of_gap t p =
  (* Gap [p] sits before instruction [p]; it is inside a region exactly
     when that instruction is (gap [n] and CSB gaps are boundary gaps). *)
  if p >= Array.length t.region_of_instr then None else t.region_of_instr.(p)

let region_sizes t = Array.copy t.region_sizes

let average_size t =
  if t.num_regions = 0 then 0.
  else
    float_of_int (Array.fold_left ( + ) 0 t.region_sizes)
    /. float_of_int t.num_regions

let regions_of_gaps t gaps =
  Points.IntSet.fold
    (fun p acc ->
      match region_of_gap t p with
      | Some r -> Points.IntSet.add r acc
      | None -> acc)
    gaps Points.IntSet.empty

let pp ppf t =
  Fmt.pf ppf "NSRs: %d, sizes: [%a]@." t.num_regions
    Fmt.(array ~sep:semi int)
    t.region_sizes
