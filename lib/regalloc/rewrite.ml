(* Materialisation of an allocation into a physical-register program.

   Every register occurrence is substituted with the physical register of
   the segment covering it (uses read the segment at their gap,
   definitions write the segment at the following gap). The context's
   crossing moves are grouped per gap edge, sequentialised as parallel
   copies, and placed:

   - on a fallthrough edge: immediately after the source instruction
     (this covers all CSB edges — loads, stores and ctx_switch always
     fall through, so "before/after the CSB" splits need no new blocks);
   - on the taken edge of an unconditional branch: immediately before it
     (control passing the branch's gap always takes that edge);
   - on the taken edge of a conditional branch: in a fresh trampoline
     block appended after the program, with the branch retargeted.

   Parallel copies are sequentialised move-by-move; register cycles are
   broken with xor-swap triples, so no scratch register is ever needed. *)

open Npra_ir

(* Sequentialise a parallel copy [(dst, src) list] (sources and
   destinations each distinct, dst <> src). Emits moves whose destination
   is not needed as a remaining source first; when only cycles remain,
   swaps registers along a cycle with xor triples. *)
let sequentialize_copy pairs =
  let emit_mov acc (d, s) = Instr.Mov { dst = d; src = s } :: acc in
  let emit_swap acc (a, b) =
    (* a', b' = b, a *)
    let xor dst src =
      Instr.Alu { op = Instr.Xor; dst; src1 = dst; src2 = Instr.reg_operand src }
    in
    xor a b :: xor b a :: xor a b :: acc
  in
  let rec go acc pairs =
    match pairs with
    | [] -> List.rev acc
    | _ ->
      let is_src r = List.exists (fun (_, s) -> Reg.equal s r) pairs in
      (match List.partition (fun (d, _) -> not (is_src d)) pairs with
      | free :: more_free, blocked ->
        let acc = List.fold_left emit_mov acc (free :: more_free) in
        go acc blocked
      | [], (d, s) :: rest ->
        (* Pure cycle(s): swap d and s, rewire the move that read d. *)
        let acc = emit_swap acc (d, s) in
        let rest =
          List.filter_map
            (fun (d', s') ->
              if Reg.equal s' d then
                if Reg.equal d' s then None  (* two-cycle closed by swap *)
                else Some (d', s)
              else Some (d', s'))
            rest
        in
        go acc rest
      | [], [] -> List.rev acc)
  in
  go [] pairs

type placement = {
  before : (int, Instr.t list) Hashtbl.t;
  after : (int, Instr.t list) Hashtbl.t;
  trampolines : (int * Instr.label * Instr.t list) list;
      (* (branch index, fresh label, moves); the trampoline ends with a
         branch to the original target *)
}

let plan_moves ctx reg_of_node =
  let prog = Context.prog ctx in
  (* Group crossing moves per gap edge. *)
  let by_edge = Hashtbl.create 16 in
  List.iter
    (fun ((p, q), _vreg, src, dst) ->
      let rd = reg_of_node dst and rs = reg_of_node src in
      if not (Reg.equal rd rs) then begin
        let cur =
          match Hashtbl.find_opt by_edge (p, q) with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace by_edge (p, q) ((rd, rs) :: cur)
      end)
    (Context.crossing_moves ctx);
  let before = Hashtbl.create 16 in
  let after = Hashtbl.create 16 in
  let trampolines = ref [] in
  let fresh_label =
    let k = ref 0 in
    fun () ->
      incr k;
      Fmt.str ".copy%d" !k
  in
  Hashtbl.iter
    (fun (p, q) pairs ->
      let seq = sequentialize_copy pairs in
      let ins = Prog.instr prog p in
      let is_taken_edge =
        match Instr.branch_target ins with
        | Some l -> Prog.label_index prog l = q && not (Instr.falls_through ins && q = p + 1)
        | None -> false
      in
      if not is_taken_edge then
        (* fallthrough edge: q = p + 1 *)
        Hashtbl.replace after p
          (seq @ (match Hashtbl.find_opt after p with Some l -> l | None -> []))
      else
        match ins with
        | Instr.Br _ ->
          Hashtbl.replace before p
            (seq @ (match Hashtbl.find_opt before p with Some l -> l | None -> []))
        | Instr.Brc _ ->
          let l = fresh_label () in
          trampolines := (p, l, seq) :: !trampolines
        | _ -> assert false)
    by_edge;
  { before; after; trampolines = !trampolines }

exception Incomplete_coloring of { reg : Reg.t; gap : int option }

let apply ctx ~reg_of_color =
  let prog = Context.prog ctx in
  let pts = Context.points ctx in
  let reg_of_node n = reg_of_color n.Context.color in
  let plan = plan_moves ctx reg_of_node in
  let seg_reg v gap =
    match Context.seg ctx v gap with
    | Some id -> reg_of_node (Context.node ctx id)
    | None ->
      if Reg.is_physical v then v
      else raise (Incomplete_coloring { reg = v; gap = Some gap })
  in
  ignore pts;
  let n = Prog.length prog in
  let retarget = Hashtbl.create 4 in
  List.iter
    (fun (p, l, _) -> Hashtbl.replace retarget p l)
    plan.trampolines;
  let code = ref [] in
  let count = ref 0 in
  let emit ins =
    code := ins :: !code;
    incr count
  in
  let new_index = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    new_index.(i) <- !count;
    (match Hashtbl.find_opt plan.before i with
    | Some moves -> List.iter emit moves
    | None -> ());
    let ins = Prog.instr prog i in
    let ins =
      Instr.map_regs2 ~use:(fun v -> seg_reg v i) ~def:(fun v -> seg_reg v (i + 1)) ins
    in
    let ins =
      match Hashtbl.find_opt retarget i, ins with
      | Some l, Instr.Brc b -> Instr.Brc { b with target = l }
      | _, ins -> ins
    in
    emit ins;
    match Hashtbl.find_opt plan.after i with
    | Some moves -> List.iter emit moves
    | None -> ()
  done;
  new_index.(n) <- !count;
  let labels =
    List.map (fun (l, i) -> (l, new_index.(i))) prog.Prog.labels
  in
  let labels = ref labels in
  List.iter
    (fun (p, l, seq) ->
      labels := (l, !count) :: !labels;
      List.iter emit seq;
      match Instr.branch_target (Prog.instr prog p) with
      | Some target -> emit (Instr.Br { target })
      | None -> assert false)
    plan.trampolines;
  Prog.make ~name:prog.Prog.name ~code:(List.rev !code) ~labels:!labels

let apply_map prog coloring ~reg_of_color =
  (* For allocations without splitting (the Chaitin baseline): one colour
     per register, substituted everywhere. *)
  Prog.map_regs
    (fun v ->
      if Reg.is_physical v then v
      else
        match Reg.Map.find_opt v coloring with
        | Some c -> reg_of_color c
        | None -> raise (Incomplete_coloring { reg = v; gap = None }))
    prog
