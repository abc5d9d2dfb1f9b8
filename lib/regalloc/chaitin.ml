(* Chaitin-style graph-colouring register allocator with spilling.

   This is the baseline the paper compares against: each thread is
   allocated in isolation against a fixed partition of the register file
   (32 registers on the modelled machine), with no sharing and no
   awareness of context switches. The classic simplify / optimistic-push
   / select loop runs until colourable; actual spills rewrite the program
   with a reload before every use and a store after every definition
   (addressed by an immediate into the thread's spill area — each such
   memory operation is itself a context switch, which is precisely why
   spills are so expensive on this machine). *)

open Npra_ir
open Npra_cfg
module IntSet = Points.IntSet

type result = {
  prog : Prog.t;  (* program after spill rewriting (virtual registers) *)
  coloring : int Reg.Map.t;  (* live register -> colour in 1..colors *)
  colors : int;  (* number of colours used *)
  spilled : Reg.Set.t;  (* all registers spilled across iterations *)
  iterations : int;
}

let build_graph prog =
  let pts = Points.compute prog in
  let regs =
    Reg.Set.filter
      (fun r -> not (IntSet.is_empty (Points.gaps_of pts r)))
      (Prog.regs prog)
  in
  let adj = Hashtbl.create 64 in
  let add a b =
    let cur =
      match Hashtbl.find_opt adj a with Some s -> s | None -> Reg.Set.empty
    in
    Hashtbl.replace adj a (Reg.Set.add b cur)
  in
  Reg.Set.iter (fun r -> Hashtbl.replace adj r Reg.Set.empty) regs;
  let ngaps = Points.num_gaps pts in
  for gap = 0 to ngaps - 1 do
    let live = Points.live_at_gap pts gap in
    Reg.Set.iter
      (fun a ->
        Reg.Set.iter (fun b -> if not (Reg.equal a b) then add a b) live)
      live
  done;
  (regs, adj)

let spill_costs prog =
  let loops = Loops.compute prog in
  let rec pow10 k = if k <= 0 then 1 else 10 * pow10 (k - 1) in
  let costs = Hashtbl.create 64 in
  let bump r w =
    let cur = match Hashtbl.find_opt costs r with Some c -> c | None -> 0 in
    Hashtbl.replace costs r (cur + w)
  in
  Prog.fold_instrs
    (fun () i ins ->
      let w = pow10 (min (Loops.depth loops i) 4) in
      List.iter (fun r -> bump r w) (Instr.defs ins @ Instr.uses ins))
    () prog;
  costs

(* Simplify phase: returns the select stack and the potential spills that
   were pushed optimistically. *)
let simplify regs adj ~k costs =
  let degree = Hashtbl.create 64 in
  Reg.Set.iter
    (fun r -> Hashtbl.replace degree r (Reg.Set.cardinal (Hashtbl.find adj r)))
    regs;
  let removed = Hashtbl.create 64 in
  let stack = ref [] in
  let remaining = ref (Reg.Set.cardinal regs) in
  let remove r optimistic =
    Hashtbl.replace removed r ();
    stack := (r, optimistic) :: !stack;
    decr remaining;
    Reg.Set.iter
      (fun m ->
        if not (Hashtbl.mem removed m) then
          Hashtbl.replace degree m (Hashtbl.find degree m - 1))
      (Hashtbl.find adj r)
  in
  while !remaining > 0 do
    (* Lowest-degree node below k, else the cheapest spill candidate. *)
    let candidate =
      Reg.Set.fold
        (fun r best ->
          if Hashtbl.mem removed r then best
          else
            let d = Hashtbl.find degree r in
            match best with
            | Some (_, bd) when bd <= d -> best
            | _ -> Some (r, d))
        regs None
    in
    match candidate with
    | None -> ()
    | Some (r, d) when d < k -> remove r false
    | Some _ ->
      let spill_candidate =
        Reg.Set.fold
          (fun r best ->
            if Hashtbl.mem removed r then best
            else
              let d = max 1 (Hashtbl.find degree r) in
              let c =
                match Hashtbl.find_opt costs r with Some c -> c | None -> 1
              in
              let ratio = float_of_int c /. float_of_int d in
              match best with
              | Some (_, br) when br <= ratio -> best
              | _ -> Some (r, ratio))
          regs None
      in
      (match spill_candidate with
      | Some (r, _) -> remove r true
      | None -> ())
  done;
  !stack

(* Select phase: assign colours popping the stack; optimistic nodes that
   fail to colour become actual spills. *)
let select adj ~k stack =
  let coloring = ref Reg.Map.empty in
  let spills = ref Reg.Set.empty in
  List.iter
    (fun (r, optimistic) ->
      let used =
        Reg.Set.fold
          (fun m acc ->
            match Reg.Map.find_opt m !coloring with
            | Some c -> IntSet.add c acc
            | None -> acc)
          (Hashtbl.find adj r) IntSet.empty
      in
      let rec lowest c = if IntSet.mem c used then lowest (c + 1) else c in
      let c = lowest 1 in
      if c <= k then coloring := Reg.Map.add r c !coloring
      else begin
        assert optimistic;
        spills := Reg.Set.add r !spills
      end)
    stack;
  (!coloring, !spills)

(* Spill rewriting: reload before each use, store after each definition,
   each addressed by a fresh immediate into the spill area. *)
let rewrite_spills prog spills ~spill_base ~slot_of =
  let next = ref (Prog.max_vreg prog + 1) in
  let fresh () =
    let r = Reg.V !next in
    incr next;
    r
  in
  let code = ref [] in
  let new_index = Array.make (Prog.length prog) 0 in
  let emit ins = code := ins :: !code in
  Prog.fold_instrs
    (fun () i ins ->
      new_index.(i) <- List.length !code;
      let reloads = ref [] in
      let subst_use r =
        if Reg.Set.mem r spills then begin
          match List.assoc_opt r !reloads with
          | Some t -> t
          | None ->
            let t = fresh () in
            reloads := (r, t) :: !reloads;
            t
        end
        else r
      in
      let stores = ref [] in
      let subst_def r =
        if Reg.Set.mem r spills then begin
          let t = fresh () in
          stores := (r, t) :: !stores;
          t
        end
        else r
      in
      let ins' = Instr.map_regs2 ~use:subst_use ~def:subst_def ins in
      List.iter
        (fun (r, t) ->
          let a = fresh () in
          emit (Instr.Movi { dst = a; imm = spill_base + slot_of r });
          emit (Instr.Load { dst = t; addr = a; off = 0 }))
        (List.rev !reloads);
      emit ins';
      List.iter
        (fun (r, t) ->
          let a = fresh () in
          emit (Instr.Movi { dst = a; imm = spill_base + slot_of r });
          emit (Instr.Store { src = t; addr = a; off = 0 }))
        (List.rev !stores))
    () prog;
  let labels =
    List.map
      (fun (l, i) ->
        ( l,
          if i >= Prog.length prog then List.length !code else new_index.(i) ))
      prog.Prog.labels
  in
  Prog.make ~name:prog.Prog.name ~code:(List.rev !code) ~labels

exception
  Did_not_converge of {
    k : int;
    iterations : int;
    spilled : Reg.Set.t;
    last_coloring : int Reg.Map.t;
    pending : Reg.Set.t;
  }

(* Spill rounds before [allocate] gives up with [Did_not_converge]. *)
let max_iterations = 32

let allocate ~k ~spill_base prog =
  let slots = Hashtbl.create 8 in
  let next_slot = ref 0 in
  let slot_of r =
    match Hashtbl.find_opt slots r with
    | Some s -> s
    | None ->
      let s = !next_slot in
      next_slot := s + 1;
      Hashtbl.add slots r s;
      s
  in
  let rec go prog all_spilled iter =
    let regs, adj = build_graph prog in
    let costs = spill_costs prog in
    let stack = simplify regs adj ~k costs in
    let coloring, spills = select adj ~k stack in
    if (not (Reg.Set.is_empty spills)) && iter >= max_iterations then
      (* Spill rewriting itself consumes registers, so a too-small [k]
         can chase its own tail forever; surface the last attempt
         instead of looping. *)
      raise
        (Did_not_converge
           {
             k;
             iterations = iter;
             spilled = all_spilled;
             last_coloring = coloring;
             pending = spills;
           });
    if Reg.Set.is_empty spills then
      {
        prog;
        coloring;
        colors =
          Reg.Map.fold (fun _ c acc -> max acc c) coloring 0;
        spilled = all_spilled;
        iterations = iter;
      }
    else begin
      Reg.Set.iter (fun r -> ignore (slot_of r)) spills;
      let prog = rewrite_spills prog spills ~spill_base ~slot_of in
      go prog (Reg.Set.union all_spilled spills) (iter + 1)
    end
  in
  go prog Reg.Set.empty 1

let color_count prog =
  let result = allocate ~k:max_int ~spill_base:0 prog in
  result.colors
