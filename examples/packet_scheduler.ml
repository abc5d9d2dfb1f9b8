(* WRAPS packet scheduler — the paper's third scenario.

   The WRAPS receive/send threads keep a large per-flow credit table in
   registers; under a fixed 32-register partition those credits spill
   inside the hot loop. Balancing lends the scheduler registers taken
   from the lightweight fir2dim and frag threads running on the same
   processing unit, and this example also demonstrates asymmetric
   register allocation (every thread runs different code).

   Run with:  dune exec examples/packet_scheduler.exe *)

open Npra_workloads
open Npra_regalloc
open Npra_core

let () =
  let ids = [ "wraps_rx"; "wraps_tx"; "fir2dim"; "frag" ] in
  let { Registry.workloads = ws; progs; mem_image; spill_bases } =
    Registry.system (List.map Registry.find_exn ids)
  in
  let iters = List.map (fun w -> w.Workload.iters) ws in

  (* Show each thread's register appetite first. *)
  Fmt.pr "per-thread register demand (MinPR / MinR .. MaxPR / MaxR):@.";
  List.iter
    (fun w ->
      let prog = Npra_cfg.Webs.rename w.Workload.prog in
      let ctx = Context.create prog in
      let _, b = Estimate.run ctx in
      Fmt.pr "  %-10s %a@." w.Workload.name Estimate.pp_bounds b)
    ws;

  let bal = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
  assert (bal.Pipeline.verify_errors = []);
  let inter = Option.get bal.Pipeline.inter in
  Fmt.pr "@.balanced allocation over 128 GPRs:@.%a" Inter.pp inter;
  Fmt.pr "%a@." Assign.pp bal.Pipeline.layout;

  (* The scheduler threads now own private blocks larger than the 32
     registers a fixed partition would give them. *)
  Array.iteri
    (fun i th ->
      if th.Inter.pr > 32 then
        Fmt.pr "thread %d (%s) owns %d private registers — impossible under \
                a fixed partition@."
          i th.Inter.name th.Inter.pr)
    inter.Inter.threads;

  (* Measure both systems. *)
  let base = Pipeline.baseline ~nreg:128 ~spill_bases progs in
  let cycles programs =
    let report =
      Npra_sim.Machine.report (Npra_sim.Machine.run ~mem_image programs)
    in
    Pipeline.cycles_per_iteration report iters
  in
  let base_cycles = cycles base.Pipeline.base_programs in
  let bal_cycles = cycles bal.Pipeline.programs in
  Fmt.pr "@.%-10s  %11s  %11s  %8s@." "thread" "spilling" "balanced" "change";
  List.iteri
    (fun i w ->
      let a = List.nth base_cycles i and b = List.nth bal_cycles i in
      Fmt.pr "%-10s  %11.1f  %11.1f  %+7.1f%%@." w.Workload.name a b
        (100. *. ((b /. a) -. 1.)))
    ws
