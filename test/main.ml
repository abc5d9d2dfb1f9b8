(* Every suite but the portfolio races and the allocator's, which run
   from [Main_portfolio] and [Main_alloc] so dune runs the three at
   once. *)
let () =
  Alcotest.run "npra"
    (List.concat
       [
         Test_ir.suite; Test_cfg.suite;
         Test_rewrite.suite; Test_sim.suite; Test_asm.suite;
         Test_workloads.suite; Test_props.suite;
         Test_npc.suite; Test_opt.suite; Test_paper_examples.suite; Test_more.suite; Test_kernel_semantics.suite;
         Test_dataflow.suite; Test_verify.suite; Test_fault.suite;
         Test_diag.suite; Test_fuzz.suite; Test_sim_memory.suite;
         Test_traffic.suite; Test_par.suite;
         Test_chaos.suite; Test_adapt.suite; Test_rng.suite;
         Test_chip.suite; Test_json.suite; Test_checks.suite;
         Test_stops.suite; Test_trapping.suite;
       ])
