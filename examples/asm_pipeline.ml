(* Assembly-to-machine pipeline: write threads in the textual assembly
   language, parse them, balance their registers, and print the
   rewritten physical code — the workflow a user porting existing IXP
   microcode would follow.

   Run with:  dune exec examples/asm_pipeline.exe *)

open Npra_core

let source =
  {|
; A two-thread checksum/logger module written directly in assembly.
; Virtual registers (v0, v1, ...) are allocated by the balancer.

.thread checksum
  movi v0, 0        ; sum
  movi v1, 1000     ; packet pointer
  movi v2, 4        ; words remaining
loop:
  load v3, [v1]     ; context switch: sum/ptr/count must be private
  add v0, v0, v3
  add v1, v1, 1
  sub v2, v2, 1
  bgt v2, 0, loop
  movi v4, 2000
  store v0, [v4]
  halt

.thread logger
  ctx_switch
  movi v0, 7        ; lives only between switches: shareable
  mul v0, v0, 3
  movi v1, 2100
  store v0, [v1]
  halt
|}

let () =
  let progs = Npra_asm.Parser.parse_exn source in
  Fmt.pr "parsed %d threads: %s@.@." (List.length progs)
    (String.concat ", " (List.map (fun p -> p.Npra_ir.Prog.name) progs));

  (* Allocate against a deliberately small file to show sharing: the
     checksum thread needs 4 private registers (sum, ptr, count live
     across loads) while the logger's values can share. *)
  let bal = Pipeline.balanced_exn ~nreg:6 progs in
  Option.iter (Fmt.pr "%a" Npra_regalloc.Inter.pp) bal.Pipeline.inter;
  Fmt.pr "%a@." Npra_regalloc.Assign.pp bal.Pipeline.layout;
  (match bal.Pipeline.verify_errors with
  | [] -> ()
  | errs ->
    List.iter (fun e -> Fmt.epr "verify: %a@." Npra_regalloc.Verify.pp_error e) errs;
    exit 1);

  Fmt.pr "== physical code ==@.";
  List.iter
    (fun p -> Fmt.pr "%s@." (Npra_asm.Printer.to_string p))
    bal.Pipeline.programs;

  let mem_image = List.init 4 (fun i -> (1000 + i, 10 + i)) in
  let report =
    Npra_sim.Machine.report
      (Npra_sim.Machine.run ~mem_image bal.Pipeline.programs)
  in
  Fmt.pr "== run ==@.%a" Npra_sim.Machine.pp_report report;
  (* the checksum of 10+11+12+13 lands at address 2000 *)
  let mem = [ (2000, 46); (2100, 21) ] in
  ignore mem;
  if Pipeline.differential ~mem_image progs bal.Pipeline.programs then
    Fmt.pr "differential check: traces identical@."
  else exit 1
