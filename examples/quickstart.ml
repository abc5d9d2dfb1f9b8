(* Quickstart: build two tiny threads, balance their registers, inspect
   the allocation, and run the result on the cycle-level machine.

   Run with:  dune exec examples/quickstart.exe *)

open Npra_ir
open Npra_regalloc
open Npra_core

(* Thread 1 — the paper's Figure 3 example: [a] survives a context
   switch (it must stay private), [b] and [c] live only between
   switches (they may share registers with other threads). *)
let thread_one () =
  let b = Builder.create ~name:"producer" in
  let a = Builder.reg b "a"
  and x = Builder.reg b "x"
  and y = Builder.reg b "y" in
  Builder.movi b a 5;
  Builder.ctx_switch b;
  Builder.if_ b Instr.Ne a (Builder.imm 0)
    ~then_:(fun () ->
      Builder.movi b y 11;
      Builder.add b y a (Builder.rge y);
      Builder.movi b x 13)
    ~else_:(fun () ->
      Builder.movi b x 7;
      Builder.add b x a (Builder.rge x);
      Builder.movi b y 9);
  Builder.add b x x (Builder.rge y);
  Builder.store b x x 0;
  Builder.halt b;
  Builder.finish b

(* Thread 2 — a value that never crosses a switch: fully shareable. *)
let thread_two () =
  let b = Builder.create ~name:"consumer" in
  let d = Builder.reg b "d" in
  Builder.ctx_switch b;
  Builder.movi b d 100;
  Builder.add b d d (Builder.imm 1);
  Builder.store b d d 0;
  Builder.halt b;
  Builder.finish b

let () =
  let progs = [ thread_one (); thread_two () ] in

  (* Balance the two threads over a tiny register file of 3 GPRs —
     separate allocation would need 4 (3 + 1). *)
  let bal = Pipeline.balanced_exn ~nreg:3 progs in
  Fmt.pr "@[<v>== allocation ==@]@.";
  Fmt.pr "served by: %a@." Pipeline.pp_stage bal.Pipeline.provenance;
  Option.iter (Fmt.pr "%a" Inter.pp) bal.Pipeline.inter;
  Fmt.pr "%a" Assign.pp bal.Pipeline.layout;
  Fmt.pr "moves inserted: %d@." bal.Pipeline.moves;
  (match bal.Pipeline.verify_errors with
  | [] -> Fmt.pr "safety verification: OK@."
  | errs ->
    List.iter (fun e -> Fmt.pr "verify: %a@." Verify.pp_error e) errs;
    exit 1);

  (* Show the rewritten physical code. *)
  Fmt.pr "@.== rewritten threads ==@.";
  List.iter
    (fun p -> Fmt.pr "%s@." (Npra_asm.Printer.to_string p))
    bal.Pipeline.programs;

  (* Run both threads concurrently on the machine model. *)
  let machine = Npra_sim.Machine.run ~mem_image:[] bal.Pipeline.programs in
  Fmt.pr "== simulation ==@.%a" Npra_sim.Machine.pp_report
    (Npra_sim.Machine.report machine);

  (* And confirm the allocation preserved behaviour. *)
  if Pipeline.differential ~mem_image:[] progs bal.Pipeline.programs then
    Fmt.pr "differential check: traces identical@."
  else begin
    Fmt.pr "differential check FAILED@.";
    exit 1
  end
