(* IPv4 forwarding module — the paper's second scenario.

   One processing unit runs a complete forwarding module: a receive
   thread and a send thread (the plumbing), plus two MD5 digest threads
   (the performance-critical payload work). The example contrasts the
   conventional fixed 32-register partition, which forces the digest
   threads to spill, against the balanced allocation, which lends them
   registers from the plumbing threads.

   Run with:  dune exec examples/ipv4_forwarding.exe *)

open Npra_workloads
open Npra_core

let () =
  let ids = [ "l2l3fwd_rx"; "l2l3fwd_tx"; "md5"; "md5" ] in
  let { Registry.workloads = ws; progs; mem_image; spill_bases } =
    Registry.system (List.map Registry.find_exn ids)
  in
  let iters = List.map (fun w -> w.Workload.iters) ws in

  Fmt.pr "IPv4 forwarding module: %s@.@."
    (String.concat " + " (List.map (fun w -> w.Workload.name) ws));

  (* Conventional allocation: each thread gets 32 registers, spills. *)
  let base = Pipeline.baseline ~nreg:128 ~spill_bases progs in
  List.iteri
    (fun i w ->
      let spilled = List.nth base.Pipeline.spilled_ranges i in
      Fmt.pr "  %-12s fixed partition: %d live ranges spilled@."
        w.Workload.name spilled)
    ws;
  let base_report =
    Npra_sim.Machine.report
      (Npra_sim.Machine.run ~mem_image base.Pipeline.base_programs)
  in
  let base_cycles = Pipeline.cycles_per_iteration base_report iters in

  (* Balanced allocation: registers follow the pressure. *)
  let bal = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
  assert (bal.Pipeline.verify_errors = []);
  let inter = Option.get bal.Pipeline.inter in
  Fmt.pr "@.balanced allocation:@.";
  Fmt.pr "%a" Npra_regalloc.Inter.pp inter;
  let bal_report =
    Npra_sim.Machine.report
      (Npra_sim.Machine.run ~mem_image bal.Pipeline.programs)
  in
  let bal_cycles = Pipeline.cycles_per_iteration bal_report iters in

  Fmt.pr "@.%-12s  %12s  %12s  %8s@." "thread" "cyc/iter" "cyc/iter" "change";
  Fmt.pr "%-12s  %12s  %12s@." "" "(spilling)" "(balanced)";
  List.iteri
    (fun i w ->
      let a = List.nth base_cycles i and b = List.nth bal_cycles i in
      Fmt.pr "%-12s  %12.1f  %12.1f  %+7.1f%%@." w.Workload.name a b
        (100. *. ((b /. a) -. 1.)))
    ws;
  let md5 = inter.Npra_regalloc.Inter.threads.(2) in
  Fmt.pr
    "@.The digest threads now reach %d registers (%d private + %d shared) \
     instead of 32 and stopped spilling;@."
    (md5.Npra_regalloc.Inter.pr + md5.Npra_regalloc.Inter.sr)
    md5.Npra_regalloc.Inter.pr md5.Npra_regalloc.Inter.sr;
  Fmt.pr "the forwarding threads paid almost nothing for it.@."
