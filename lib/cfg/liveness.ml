(* Instruction-level backward liveness analysis.

   Two engines compute the same fixpoint:

   - [compute] solves dense {!Bitset} rows indexed by a per-program
     {!Numbering} with a queue worklist, revisiting only instructions
     whose successors changed. Transfer functions are word-parallel, so
     one step costs O(nregs/62) rather than O(live * log live).
   - [compute_reference] is the original balanced-tree (Reg.Set)
     engine, kept verbatim as a differential oracle: tests assert both
     engines agree at every instruction on every generated program. *)

open Npra_ir

type dense = {
  num : Numbering.t;
  nw : int;  (* words per row *)
  live_in : int array;  (* n rows of nw words each, flat *)
  live_out : int array;
  defs : int array array;  (* per instruction, register indices defined *)
}

type repr =
  | Dense of dense
  | Sets of { live_in : Reg.Set.t array; live_out : Reg.Set.t array }

type t = { prog : Prog.t; repr : repr }

(* ---------------- dense engine ---------------- *)

(* Setup: numbering, flat rows seeded with uses, def indices. Rows live
   flat in two big arrays — instruction [i]'s bits occupy words
   [i*nw .. i*nw+nw-1] — so a compute allocates O(1) objects instead of
   tens of thousands of small sets. Liveness is monotone: live_in only
   ever grows, so it is seeded with the uses and the solver folds the
   change test into the union (a row that did not grow cannot
   propagate). *)
let dense_setup prog =
  let n = Prog.length prog in
  let num = Numbering.of_prog prog in
  let bpw = Bitset.bits_per_word in
  let nw = max 1 (Bitset.words_for (Numbering.size num)) in
  let idx r = Numbering.index num r in
  let live_in = Array.make (n * nw) 0 in
  let live_out = Array.make (n * nw) 0 in
  for i = 0 to n - 1 do
    List.iter
      (fun r ->
        let b = idx r in
        let p = (i * nw) + (b / bpw) in
        live_in.(p) <- live_in.(p) lor (1 lsl (b mod bpw)))
      (Instr.uses (Prog.instr prog i))
  done;
  let defs =
    Array.init n (fun i ->
        Array.of_list (List.map idx (Instr.defs (Prog.instr prog i))))
  in
  { num; nw; live_in; live_out; defs }

(* One backward transfer of instruction [i]: recompute live_out from the
   successors' live_in rows, union (out \ defs) into live_in. Returns
   whether live_in.(i) grew. *)
let transfer d ~succs ~tmp i =
  let bpw = Bitset.bits_per_word in
  let nw = d.nw in
  let live_in = d.live_in and live_out = d.live_out in
  let row = i * nw in
  (match succs.(i) with
  | [] -> ()  (* out stays empty *)
  | [ s ] -> Array.blit live_in (s * nw) live_out row nw
  | ss ->
    Array.fill live_out row nw 0;
    List.iter
      (fun s ->
        let srow = s * nw in
        for k = 0 to nw - 1 do
          live_out.(row + k) <- live_out.(row + k) lor live_in.(srow + k)
        done)
      ss);
  Array.blit live_out row tmp 0 nw;
  Array.iter
    (fun b -> tmp.(b / bpw) <- tmp.(b / bpw) land lnot (1 lsl (b mod bpw)))
    d.defs.(i);
  let grew = ref false in
  for k = 0 to nw - 1 do
    let v = live_in.(row + k) lor tmp.(k) in
    if v <> live_in.(row + k) then begin
      live_in.(row + k) <- v;
      grew := true
    end
  done;
  !grew

let compute prog =
  let n = Prog.length prog in
  let d = dense_setup prog in
  let succs = Prog.succs_array prog in
  (* [Prog.preds] would build the successor array a second time. *)
  let preds = Array.make n [] in
  Array.iteri (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss) succs;
  let tmp = Array.make d.nw 0 in
  let on_worklist = Array.make n true in
  let worklist = Queue.create () in
  for i = n - 1 downto 0 do
    Queue.add i worklist
  done;
  while not (Queue.is_empty worklist) do
    let i = Queue.pop worklist in
    on_worklist.(i) <- false;
    if transfer d ~succs ~tmp i then
      List.iter
        (fun p ->
          if not on_worklist.(p) then begin
            on_worklist.(p) <- true;
            Queue.add p worklist
          end)
        preds.(i)
  done;
  { prog; repr = Dense d }

(* ---------------- reference engine (tree sets) ---------------- *)

let compute_reference prog =
  let n = Prog.length prog in
  let live_in = Array.make n Reg.Set.empty in
  let live_out = Array.make n Reg.Set.empty in
  let preds = Prog.preds prog in
  let on_worklist = Array.make n true in
  let worklist = Queue.create () in
  for i = n - 1 downto 0 do
    Queue.add i worklist
  done;
  let uses = Array.init n (fun i -> Reg.Set.of_list (Instr.uses (Prog.instr prog i))) in
  let defs = Array.init n (fun i -> Reg.Set.of_list (Instr.defs (Prog.instr prog i))) in
  while not (Queue.is_empty worklist) do
    let i = Queue.pop worklist in
    on_worklist.(i) <- false;
    let out =
      List.fold_left
        (fun acc s -> Reg.Set.union acc live_in.(s))
        Reg.Set.empty (Prog.succs prog i)
    in
    let inn = Reg.Set.union uses.(i) (Reg.Set.diff out defs.(i)) in
    live_out.(i) <- out;
    if not (Reg.Set.equal inn live_in.(i)) then begin
      live_in.(i) <- inn;
      List.iter
        (fun p ->
          if not on_worklist.(p) then begin
            on_worklist.(p) <- true;
            Queue.add p worklist
          end)
        preds.(i)
    end
  done;
  { prog; repr = Sets { live_in; live_out } }

(* ---------------- accessors ---------------- *)

let set_of_bits num bits =
  Bitset.fold (fun i acc -> Reg.Set.add (Numbering.reg num i) acc) bits
    Reg.Set.empty

let row d flat i =
  Bitset.load_words
    (Bitset.create (Numbering.size d.num))
    ~src:flat ~pos:(i * d.nw)

let live_in t i =
  match t.repr with
  | Dense d -> set_of_bits d.num (row d d.live_in i)
  | Sets s -> s.live_in.(i)

let live_out t i =
  match t.repr with
  | Dense d -> set_of_bits d.num (row d d.live_out i)
  | Sets s -> s.live_out.(i)

let live_across t i =
  (* Values that survive instruction [i]'s context-switch boundary. The
     destination of a load is written back only after the thread resumes,
     so it is excluded (the paper's transfer-register rule). *)
  match t.repr with
  | Dense d ->
    let out = row d d.live_out i in
    Array.iter (Bitset.remove out) d.defs.(i);
    set_of_bits d.num out
  | Sets s ->
    let defs = Reg.Set.of_list (Instr.defs (Prog.instr t.prog i)) in
    Reg.Set.diff s.live_out.(i) defs

let dense t =
  match t.repr with
  | Dense d -> d
  | Sets _ ->
    invalid_arg
      "Liveness: dense accessor on a reference (tree-set) analysis"

let numbering t = (dense t).num

let live_in_bits t i =
  let d = dense t in
  row d d.live_in i

let live_across_bits t i =
  let d = dense t in
  let out = row d d.live_out i in
  Array.iter (Bitset.remove out) d.defs.(i);
  out
