(* Dense per-program register numbering.

   Registers are numbered in Reg.compare order (all virtuals by number,
   then all physicals by number) so the mapping depends only on the set
   of registers, not on how the program was traversed.

   Two lookup representations share the interface:

   - [Direct]: two int arrays mapping a register's own number to its
     index (-1 = absent), one per kind. Building it is two counting
     passes over the program and lookup is a bounds check plus an array
     read — no hashing at all. This is the fast path: register numbers
     in real programs are small and dense, and numbering sits on the
     setup path of every dense dataflow analysis.
   - [Hashed]: the original int hash table keyed by [2*number + kind].
     Kept for hostile register numbers (the asm frontend admits indices
     up to ~10^6, and a direct map that size would cost more to allocate
     than it saves). *)

module IntTbl = Hashtbl.Make (Int)

let key = function Reg.V n -> n lsl 1 | Reg.P n -> (n lsl 1) lor 1

(* Largest register number the direct map will allocate tables for; a
   program numbering registers above this falls back to hashing. The
   workloads and the web renamer stay orders of magnitude below, while
   the bound caps a hostile [v999999]'s table at nothing. *)
let direct_limit = 16_384

type repr =
  | Direct of { vmap : int array; pmap : int array }
      (* register number -> index, -1 when absent *)
  | Hashed of int IntTbl.t  (* key reg -> index *)

type t = {
  regs : Reg.t array;  (* index -> register, sorted by Reg.compare *)
  repr : repr;
}

let of_array regs =
  let indices = IntTbl.create (Array.length regs * 2) in
  Array.iteri (fun i r -> IntTbl.replace indices (key r) i) regs;
  { regs; repr = Hashed indices }

let max_reg_numbers prog =
  let maxv = ref (-1) and maxp = ref (-1) in
  let bump = function
    | Reg.V n -> if n > !maxv then maxv := n
    | Reg.P n -> if n > !maxp then maxp := n
  in
  Prog.fold_instrs
    (fun () _ ins ->
      List.iter bump (Instr.defs ins);
      List.iter bump (Instr.uses ins))
    () prog;
  (!maxv, !maxp)

let of_prog_hashed prog =
  (* One hash-table pass instead of [Prog.regs]'s tree set. *)
  let seen = IntTbl.create 64 in
  Prog.fold_instrs
    (fun () _ ins ->
      List.iter (fun r -> IntTbl.replace seen (key r) r) (Instr.defs ins);
      List.iter (fun r -> IntTbl.replace seen (key r) r) (Instr.uses ins))
    () prog;
  let regs =
    IntTbl.fold (fun _ r acc -> r :: acc) seen []
    |> List.sort Reg.compare |> Array.of_list
  in
  of_array regs

let of_prog_direct ~maxv ~maxp prog =
  let vmap = Array.make (maxv + 1) (-1) and pmap = Array.make (maxp + 1) (-1) in
  let mark = function
    | Reg.V n -> vmap.(n) <- 0
    | Reg.P n -> pmap.(n) <- 0
  in
  Prog.fold_instrs
    (fun () _ ins ->
      List.iter mark (Instr.defs ins);
      List.iter mark (Instr.uses ins))
    () prog;
  (* Index in ascending number order, virtuals before physicals — the
     Reg.compare order the interface promises. *)
  let count = ref 0 in
  let assign map =
    Array.iteri
      (fun n present ->
        if present >= 0 then begin
          map.(n) <- !count;
          incr count
        end)
      map
  in
  assign vmap;
  assign pmap;
  let regs = Array.make !count (Reg.V 0) in
  Array.iteri (fun n i -> if i >= 0 then regs.(i) <- Reg.V n) vmap;
  Array.iteri (fun n i -> if i >= 0 then regs.(i) <- Reg.P n) pmap;
  { regs; repr = Direct { vmap; pmap } }

let of_prog prog =
  let maxv, maxp = max_reg_numbers prog in
  if maxv <= direct_limit && maxp <= direct_limit then
    of_prog_direct ~maxv ~maxp prog
  else of_prog_hashed prog

let size t = Array.length t.regs

let index_opt t r =
  match t.repr with
  | Hashed indices -> IntTbl.find_opt indices (key r)
  | Direct { vmap; pmap } ->
    let map, n = (match r with Reg.V n -> (vmap, n) | Reg.P n -> (pmap, n)) in
    if n < 0 || n >= Array.length map then None
    else
      let i = map.(n) in
      if i < 0 then None else Some i

let index t r =
  let bad () = Fmt.invalid_arg "Numbering.index: %a is not numbered" Reg.pp r in
  match t.repr with
  | Hashed indices -> (
    match IntTbl.find_opt indices (key r) with Some i -> i | None -> bad ())
  | Direct { vmap; pmap } ->
    let map, n = (match r with Reg.V n -> (vmap, n) | Reg.P n -> (pmap, n)) in
    if n < 0 || n >= Array.length map then bad ()
    else
      let i = map.(n) in
      if i < 0 then bad () else i

let reg t i = t.regs.(i)
