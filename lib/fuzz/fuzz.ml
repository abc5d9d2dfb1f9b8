(* Fuzzing harness: random bytes, mutated kernels and round-trips
   through the full pipeline. See the interface for the model.

   Deterministic: its own xorshift PRNG (same recipe as
   {!Npra_workloads.Synthetic}), seeded explicitly, so a failing seed
   reproduces exactly. *)

open Npra_workloads
open Npra_core
open Npra_sim

type lang = Asm | Npc

let lang_name = function Asm -> "asm" | Npc -> "npc"

type outcome =
  | Rejected of Npra_diag.Diag.t list
  | Accepted
  | Alloc_failed
  | Verify_failed of int
  | Budget_stopped of string
  | Crashed of string

let outcome_name = function
  | Rejected _ -> "rejected"
  | Accepted -> "accepted"
  | Alloc_failed -> "alloc-failed"
  | Verify_failed _ -> "verify-failed"
  | Budget_stopped _ -> "budget-stopped"
  | Crashed _ -> "crashed"

(* ------------------------------------------------------------------ *)
(* One input through the whole pipeline.                               *)

(* The register file every input is allocated for, the simulator's
   cycle budget per input, and the wall clock past which an input
   counts as a hang. *)
let nreg = 64
let max_cycles = 30_000
let hang_budget_s = 10.

let run_input lang src =
  let front =
    match lang with
    | Asm -> Pipeline.run_asm ~nreg ~optimize:true src
    | Npc -> Pipeline.run_npc ~nreg ~optimize:true src
  in
  match front with
  | Error (Pipeline.Frontend ds) -> Rejected ds
  | Error (Pipeline.Alloc _) -> Alloc_failed
  | Ok bal -> (
    match bal.Pipeline.verify_errors with
    | _ :: _ as errs -> Verify_failed (List.length errs)
    | [] -> (
      let config = { Machine.default_config with nreg; max_cycles } in
      match
        Machine.run ~config ~sentinel:`Trap ~mem_image:[] bal.Pipeline.programs
      with
      | _ -> Accepted
      | exception Machine.Stuck s ->
        Budget_stopped (Fmt.str "%a" Machine.pp_stuck s)
      | exception Machine.Corruption c ->
        (* a verified allocation must not corrupt; treat as a crash so
           the harness fails loudly *)
        Crashed (Fmt.str "sentinel trapped on a verified allocation: %a"
                   Machine.pp_corruption c)))

let run_input lang src =
  match run_input lang src with
  | outcome -> outcome
  | exception e -> Crashed (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Corpora.                                                            *)

(* Historical and representative crashers. Every one of these must map
   to a structured rejection; the first entry is the oversized register
   literal that used to escape as [Failure "int_of_string"]. *)
let crasher_corpus =
  [
    (Asm, "movi v99999999999999999999, 1\nhalt\n");
    (Asm, "add r99999999999999999999, v0, v1\nhalt\n");
    (Asm, "movi v0, 999999999999999999999999\nhalt\n");
    (Asm, "movi v1000000000, 1\nhalt\n");
    (Asm, "@ $ ?\n\x00\x01\xff\nhalt\n");
    (Asm, "load v0, [v1+\nhalt\n");
    (Asm, ".bogus\nhalt\n");
    (Asm, ".thread\nhalt\n");
    (Asm, "br nowhere\nhalt\n");
    (Asm, "nop nop\nhalt\n");
    (Asm, "movi v0, 5");
    (Asm, "x:\nnop\nx:\nhalt\n");
    (Asm, "");
    (Npc, "/* unterminated");
    (Npc, "thread t { var x = 0x; }");
    (Npc, "thread t { mem[ }");
    (Npc, "thread t { var v = 99999999999999999999999; }");
    (Npc, "thread t { x = ; }");
    (Npc, "thread");
    (Npc, "fun f( { }");
    (Npc, "}{");
    (Npc, "thread t { mem[0] = $$$; }");
    (Npc, "");
  ]

let crashers_rejected () =
  List.filter_map
    (fun (lang, src) ->
      match run_input lang src with
      | Rejected (_ :: _) -> None
      | outcome ->
        Some (lang, src, Fmt.str "expected rejection, got %s"
                (outcome_name outcome)))
    crasher_corpus

(* Small valid NPC programs: mutation seeds for the npc frontend. *)
let npc_corpus =
  [
    "thread checksum {\n  var sum = 0;\n  var p = 1000;\n  var n = 4;\n\
    \  while (n > 0) {\n    sum = sum + mem[p];\n    p = p + 1;\n\
    \    n = n - 1;\n  }\n  mem[2000] = sum;\n}\n";
    "thread t {\n  var s = 0;\n  for (var i = 0; i < 5; i = i + 1) {\n\
    \    s = s + i;\n  }\n  mem[0] = s;\n}\n";
    "fun clamp(x) {\n  if (x > 10) { return 10; }\n  return x;\n}\n\
     thread a { mem[0] = clamp(99); }\nthread b { yield; mem[1] = \
     clamp(4); }\n";
    "thread t {\n  var a = 1;\n  if (a && mem[5] == 0) { mem[0] = ~a; }\n\
    \  else { mem[0] = a << 2 | 1; }\n  halt;\n}\n";
    "thread w {\n  var i = 0;\n  while (1) {\n    i = i + 1;\n\
    \    if (i == 3) { break; }\n    yield;\n  }\n  mem[9] = i;\n}\n";
  ]

(* Printed valid kernels: mutation seeds for the asm frontend. *)
let asm_corpus () =
  let kernels =
    List.map
      (fun spec ->
        Npra_asm.Printer.to_string
          (Registry.instantiate spec ~slot:0).Workload.prog)
      Registry.all
  in
  let synth = Npra_asm.Printer.to_string (Synthetic.large ~size:250 ()) in
  let tiny =
    "top:\n  movi v0, 3\n  load v1, [v0+4]\n  add v0, v0, v1\n\
    \  bne v0, 0, top\n  ctx_switch\n  halt\n"
  in
  kernels @ [ synth; tiny ]

(* ------------------------------------------------------------------ *)
(* Deterministic generators.                                           *)

let make_rand seed =
  let state = ref (if seed = 0 then 0x9E3779B9 else seed land 0x3FFFFFFF) in
  fun bound ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) in
    let x = x land 0x3FFFFFFF in
    state := if x = 0 then 1 else x;
    if bound <= 1 then 0 else x mod bound

let printable =
  " \n\tabcdefghijklmnopqrstuvwxyz0123456789vr.,:[]+-_#;{}()=<>&|!~*/"

let random_printable rand =
  let len = rand 300 in
  String.init len (fun _ -> printable.[rand (String.length printable)])

let random_bytes rand =
  let len = rand 200 in
  String.init len (fun _ -> Char.chr (rand 256))

(* Tokens both grammars find interesting: mnemonics, keywords,
   punctuation, limit-probing literals. *)
let dictionary =
  [|
    "add"; "movi"; "load"; "store"; "bne"; "br"; "halt"; "nop"; "ctx_switch";
    "v0"; "r1"; "v99999999999999999999"; "r4096"; "v1000000";
    "0x"; "0xG"; "99999999999999999999"; "-"; "["; "]"; "+"; ","; ":";
    ".thread"; ".bogus"; "nowhere"; "thread"; "fun"; "var"; "while"; "for";
    "if"; "else"; "mem"; "yield"; "return"; "break"; "{"; "}"; "("; ")";
    ";"; "="; "=="; "&&"; "<<"; "!"; "~"; "*/"; "/*"; "//x";
  |]

let pick_dict rand = dictionary.(rand (Array.length dictionary))

let mutate_bytes rand src =
  let b = Buffer.create (String.length src + 16) in
  Buffer.add_string b src;
  let edits = 1 + rand 6 in
  let s = ref (Buffer.contents b) in
  for _ = 1 to edits do
    let str = !s in
    let n = String.length str in
    if n = 0 then s := String.make 1 (Char.chr (rand 256))
    else
      let at = rand n in
      s :=
        (match rand 3 with
        | 0 ->
          (* flip *)
          String.mapi
            (fun i c -> if i = at then Char.chr (rand 256) else c)
            str
        | 1 ->
          (* delete *)
          String.sub str 0 at ^ String.sub str (at + 1) (n - at - 1)
        | _ ->
          (* insert *)
          String.sub str 0 at
          ^ String.make 1 (Char.chr (rand 256))
          ^ String.sub str at (n - at))
  done;
  !s

let mutate_lines rand src =
  let lines = String.split_on_char '\n' src in
  let arr = Array.of_list lines in
  let n = Array.length arr in
  if n = 0 then src
  else begin
    (match rand 4 with
    | 0 ->
      (* drop a line *)
      arr.(rand n) <- ""
    | 1 ->
      (* duplicate a line onto another *)
      arr.(rand n) <- arr.(rand n)
    | 2 ->
      (* swap two lines *)
      let i = rand n and j = rand n in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    | _ ->
      (* inject a dictionary token as its own line *)
      arr.(rand n) <- pick_dict rand);
    String.concat "\n" (Array.to_list arr)
  end

let mutate_tokens rand src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let n = Array.length lines in
  if n = 0 then src
  else begin
    let li = rand n in
    let words = String.split_on_char ' ' lines.(li) in
    let warr = Array.of_list words in
    let wn = Array.length warr in
    if wn > 0 then begin
      (match rand 3 with
      | 0 -> warr.(rand wn) <- pick_dict rand
      | 1 -> warr.(rand wn) <- ""
      | _ ->
        let i = rand wn and j = rand wn in
        let t = warr.(i) in
        warr.(i) <- warr.(j);
        warr.(j) <- t);
      lines.(li) <- String.concat " " (Array.to_list warr)
    end;
    String.concat "\n" (Array.to_list lines)
  end

let truncate rand src =
  let n = String.length src in
  if n = 0 then src else String.sub src 0 (rand n)

let splice rand a b =
  let cut s = String.sub s 0 (if String.length s = 0 then 0 else rand (String.length s)) in
  let tail s =
    let n = String.length s in
    if n = 0 then "" else let k = rand n in String.sub s k (n - k)
  in
  cut a ^ tail b

let mutate rand corpus src =
  let once s =
    match rand 5 with
    | 0 -> mutate_bytes rand s
    | 1 -> mutate_lines rand s
    | 2 -> mutate_tokens rand s
    | 3 -> truncate rand s
    | _ -> splice rand s corpus.(rand (Array.length corpus))
  in
  let s = once src in
  if rand 3 = 0 then once s else s

(* ------------------------------------------------------------------ *)
(* The driver.                                                         *)

type stats = {
  seed : int;
  inputs : int;
  rejected : int;
  accepted : int;
  alloc_failed : int;
  verify_failed : int;
  budget_stopped : int;
  crashes : int;
  hangs : int;
  slowest_s : float;
  crash_reports : (lang * string * string) list;
}

let excerpt s =
  let s = if String.length s > 120 then String.sub s 0 120 ^ "..." else s in
  String.map (fun c -> if Char.code c < 0x20 && c <> '\n' then '?' else c) s

let run ?(pool = Npra_par.Pool.sequential) ?(seed = 1) ?(count = 12_000) () =
  let rand = make_rand seed in
  let asm_seeds = Array.of_list (asm_corpus ()) in
  let npc_seeds = Array.of_list npc_corpus in
  (* The input list is generated up front, sequentially: the chained
     PRNG makes input [i] a pure function of [seed], independent of any
     outcome. Evaluation then fans out over the pool — each input runs
     the whole pipeline in isolation — and the stats fold walks the
     task-indexed outcomes in input order, so the counts and the capped
     crash-report list are identical at any job count. Only the
     wall-clock fields ([slowest_s], [hangs]) can differ between runs;
     they are timing observations, not properties of the inputs. *)
  (* the regression corpus and the pristine round-trip corpus always
     run first, so even --quick counts exercise them *)
  let fixed =
    crasher_corpus
    @ List.map (fun src -> (Asm, src)) (Array.to_list asm_seeds)
    @ List.map (fun src -> (Npc, src)) (Array.to_list npc_seeds)
  in
  let generated = max 0 (count - List.length fixed) in
  let gen_rev = ref [] in
  for _ = 1 to generated do
    let input =
      match rand 10 with
      | 0 -> (Asm, random_printable rand)
      | 1 ->
        let lang = if rand 2 = 0 then Asm else Npc in
        (lang, random_bytes rand)
      | 2 -> (Npc, random_printable rand)
      | k when k < 7 ->
        (* asm kernel mutation, the paper's restored-assembly path *)
        let src = asm_seeds.(rand (Array.length asm_seeds)) in
        (Asm, mutate rand asm_seeds src)
      | _ ->
        let src = npc_seeds.(rand (Array.length npc_seeds)) in
        (Npc, mutate rand npc_seeds src)
    in
    gen_rev := input :: !gen_rev
  done;
  let inputs = Array.of_list (fixed @ List.rev !gen_rev) in
  let outcomes =
    Npra_par.Pool.tasks pool (Array.length inputs) (fun i ->
        let lang, src = inputs.(i) in
        let t0 = Unix.gettimeofday () in
        let outcome = run_input lang src in
        let dt = Unix.gettimeofday () -. t0 in
        (outcome, dt))
  in
  let stats =
    ref
      {
        seed; inputs = 0; rejected = 0; accepted = 0; alloc_failed = 0;
        verify_failed = 0; budget_stopped = 0; crashes = 0; hangs = 0;
        slowest_s = 0.; crash_reports = [];
      }
  in
  Array.iteri
    (fun i (outcome, dt) ->
      let lang, src = inputs.(i) in
      let s = !stats in
      let s = { s with inputs = s.inputs + 1; slowest_s = max s.slowest_s dt } in
      let s = if dt > hang_budget_s then { s with hangs = s.hangs + 1 } else s in
      stats :=
        (match outcome with
        | Rejected _ -> { s with rejected = s.rejected + 1 }
        | Accepted -> { s with accepted = s.accepted + 1 }
        | Alloc_failed -> { s with alloc_failed = s.alloc_failed + 1 }
        | Verify_failed _ -> { s with verify_failed = s.verify_failed + 1 }
        | Budget_stopped _ -> { s with budget_stopped = s.budget_stopped + 1 }
        | Crashed exn ->
          {
            s with
            crashes = s.crashes + 1;
            crash_reports =
              (if List.length s.crash_reports < 10 then
                 s.crash_reports @ [ (lang, excerpt src, exn) ]
               else s.crash_reports);
          }))
    outcomes;
  !stats

let ok s = s.crashes = 0 && s.hangs = 0

let to_json s =
  let crash (lang, src, exn) =
    Json.Obj
      [ ("lang", String (lang_name lang)); ("input", String src);
        ("exception", String exn) ]
  in
  Json.Obj
    [ ("benchmark", String "fuzz"); ("seed", Int s.seed);
      ("inputs", Int s.inputs); ("rejected", Int s.rejected);
      ("accepted", Int s.accepted); ("alloc_failed", Int s.alloc_failed);
      ("verify_failed", Int s.verify_failed);
      ("budget_stopped", Int s.budget_stopped); ("crashes", Int s.crashes);
      ("hangs", Int s.hangs);
      ("crash_reports", List (List.map crash s.crash_reports)) ]
