(* Systematic fault mutators over finished allocations.

   Each mutator takes a verified system — a register-file layout plus
   fully physical thread programs — and produces a corrupted variant
   that breaks the paper's safety discipline in one specific way. The
   harness then checks that the static verifier or the simulator's
   corruption sentinel (or both) catch the break.

   Mutators search their candidate space and validate every candidate
   against {!Npra_regalloc.Verify}: a candidate only counts as a fault
   if the edit actually violates the discipline. Edits that happen to
   produce another *valid* allocation (swapping a never-CSB-live value
   into the shared block, dropping a private-to-private move) are not
   faults in the paper's sense — neither layer can or should flag them,
   only the differential store-trace oracle could — so such candidates
   are skipped, and a kernel offering no violating candidate reports the
   mutator as inapplicable. *)

open Npra_ir
open Npra_regalloc

type kind =
  | Swap_colors  (** exchange a private and a shared register in one thread *)
  | Drop_move  (** delete a live-range split move *)
  | Shift_block  (** slide one thread's private block onto a neighbour *)
  | Leak_csb_live  (** rename a switch-crossing value into the shared block *)
  | Corrupt_writeback  (** redirect a load's write-back into a foreign block *)

let all_kinds =
  [ Swap_colors; Drop_move; Shift_block; Leak_csb_live; Corrupt_writeback ]

let kind_name = function
  | Swap_colors -> "swap_colors"
  | Drop_move -> "drop_move"
  | Shift_block -> "shift_block"
  | Leak_csb_live -> "leak_csb_live"
  | Corrupt_writeback -> "corrupt_writeback"

type injection = {
  thread : int;  (* the mutated thread *)
  detail : string;
  programs : Prog.t list;  (* the corrupted system *)
}

type outcome = Applied of injection | Not_applicable of string

(* ------------------------------------------------------------------ *)
(* Small helpers over the system.                                      *)

let replace_nth progs i p' = List.mapi (fun j p -> if j = i then p' else p) progs

(* Physical registers the program actually touches inside [lo, hi). *)
let used_in_range p (lo, hi) =
  Prog.regs p |> Reg.Set.elements
  |> List.filter_map (function
       | Reg.P n when n >= lo && n < hi -> Some n
       | _ -> None)

(* A candidate edit is a fault only if the edited thread now fails
   verification — see the module comment. *)
let violates layout ~thread p = Verify.check_thread layout ~thread p <> []

let rename_reg p ~from ~into =
  Prog.map_regs (function Reg.P n when n = from -> Reg.P into | r -> r) p

let swap_regs p a b =
  Prog.map_regs
    (function
      | Reg.P n when n = a -> Reg.P b
      | Reg.P n when n = b -> Reg.P a
      | r -> r)
    p

(* The shared register other threads are most likely to touch at run
   time: one they actually use, falling back to the bottom of the
   shared block. *)
let shared_target layout progs ~thread =
  let range = Assign.shared_range layout in
  let others =
    List.concat
      (List.mapi
         (fun j p -> if j = thread then [] else used_in_range p range)
         progs)
  in
  match others with
  | r :: _ -> Some r
  | [] -> (
    match used_in_range (List.nth progs thread) range with
    | r :: _ -> Some r
    | [] ->
      let lo, hi = range in
      if lo < hi then Some lo else None)

let find_mapi f l =
  let rec go i = function
    | [] -> None
    | x :: rest -> ( match f i x with Some y -> Some y | None -> go (i + 1) rest)
  in
  go 0 l

(* ------------------------------------------------------------------ *)
(* The mutators.                                                       *)

let swap_colors layout progs =
  let try_thread i p =
    match shared_target layout progs ~thread:i with
    | None -> None
    | Some rs ->
      used_in_range p (Assign.private_range layout ~thread:i)
      |> List.find_map (fun rp ->
             let p' = swap_regs p rp rs in
             if violates layout ~thread:i p' then
               Some
                 {
                   thread = i;
                   detail =
                     Fmt.str "thread %d: swapped private r%d with shared r%d" i
                       rp rs;
                   programs = replace_nth progs i p';
                 }
             else None)
  in
  match find_mapi try_thread progs with
  | Some inj -> Applied inj
  | None ->
    Not_applicable
      "no private register is live across a switch with a shared register to \
       swap into"

let leak_csb_live layout progs =
  let try_thread i p =
    match shared_target layout progs ~thread:i with
    | None -> None
    | Some rs ->
      used_in_range p (Assign.private_range layout ~thread:i)
      |> List.find_map (fun rp ->
             let p' = rename_reg p ~from:rp ~into:rs in
             if violates layout ~thread:i p' then
               Some
                 {
                   thread = i;
                   detail =
                     Fmt.str
                       "thread %d: leaked switch-crossing r%d into shared r%d" i
                       rp rs;
                   programs = replace_nth progs i p';
                 }
             else None)
  in
  match find_mapi try_thread progs with
  | Some inj -> Applied inj
  | None ->
    Not_applicable
      "no switch-crossing private value and shared block to leak it into"

(* Delete instruction [k], shifting labels past it down one slot. A
   removable instruction always falls through, so no branch target or
   fall-off-the-end validation can break. *)
let drop_instr p k =
  let code =
    Prog.fold_instrs
      (fun acc i ins -> if i = k then acc else ins :: acc)
      [] p
    |> List.rev
  in
  let labels =
    List.map (fun (l, i) -> (l, if i > k then i - 1 else i)) p.Prog.labels
  in
  Prog.make ~name:p.Prog.name ~code ~labels

let drop_move layout progs =
  let try_thread i p =
    find_mapi
      (fun k ins ->
        match ins with
        | Instr.Mov { dst; src } when not (Reg.equal dst src) ->
          let p' = drop_instr p k in
          if violates layout ~thread:i p' then
            Some
              {
                thread = i;
                detail =
                  Fmt.str "thread %d: dropped split move %s at instr %d" i
                    (Instr.to_string ins) k;
                programs = replace_nth progs i p';
              }
          else None
        | _ -> None)
      (Array.to_list p.Prog.code)
  in
  match find_mapi try_thread progs with
  | Some inj -> Applied inj
  | None ->
    Not_applicable
      "no split move whose removal stretches a value across a switch"

(* Slide thread [i]'s whole private block up by a small delta so its top
   registers land inside a neighbour's block (blocks are packed, so
   delta 1 already overlaps — larger deltas are tried as a fallback). *)
let shift_block layout progs =
  let nthd = List.length progs in
  let try_thread i p =
    if i >= nthd - 1 then None (* the top block has no upward neighbour *)
    else
      let lo, hi = Assign.private_range layout ~thread:i in
      let privates = used_in_range p (lo, hi) in
      if privates = [] then None
      else
        let shift d =
          Prog.map_regs
            (function
              | Reg.P n when n >= lo && n < hi -> Reg.P (n + d)
              | r -> r)
            p
        in
        List.find_map
          (fun d ->
            if List.exists (fun r -> r + d >= layout.Assign.nreg) privates then
              None
            else
              let p' = shift d in
              if violates layout ~thread:i p' then
                Some
                  {
                    thread = i;
                    detail =
                      Fmt.str
                        "thread %d: private block [%d,%d) shifted by +%d into \
                         its neighbour"
                        i lo hi d;
                    programs = replace_nth progs i p';
                  }
              else None)
          [ 1; 2; 4; 8 ]
  in
  match find_mapi try_thread progs with
  | Some inj -> Applied inj
  | None -> Not_applicable "single thread, or no private registers to shift"

let corrupt_writeback layout progs =
  let nthd = List.length progs in
  let try_thread i p =
    if nthd < 2 then None
    else
      (* Write the load back into a neighbour's private block — a
         register the neighbour actually uses, so the clobber lands on
         live state. *)
      let victim = (i + 1) mod nthd in
      let vrange = Assign.private_range layout ~thread:victim in
      match used_in_range (List.nth progs victim) vrange with
      | [] -> None
      | rv :: _ ->
        find_mapi
          (fun k ins ->
            match ins with
            | Instr.Load { dst; addr; off } ->
              let code = Array.copy p.Prog.code in
              code.(k) <- Instr.Load { dst = Reg.P rv; addr; off };
              let p' =
                Prog.of_array ~name:p.Prog.name ~code ~labels:p.Prog.labels
              in
              if violates layout ~thread:i p' then
                Some
                  {
                    thread = i;
                    detail =
                      Fmt.str
                        "thread %d: load at instr %d writes back to thread \
                         %d's %a instead of its own %a"
                        i k victim Reg.pp (Reg.P rv) Reg.pp dst;
                    programs = replace_nth progs i p';
                  }
              else None
            | _ -> None)
          (Array.to_list p.Prog.code)
  in
  match find_mapi try_thread progs with
  | Some inj -> Applied inj
  | None -> Not_applicable "no load to misdirect, or fewer than two threads"

let inject layout progs kind =
  match kind with
  | Swap_colors -> swap_colors layout progs
  | Drop_move -> drop_move layout progs
  | Shift_block -> shift_block layout progs
  | Leak_csb_live -> leak_csb_live layout progs
  | Corrupt_writeback -> corrupt_writeback layout progs
