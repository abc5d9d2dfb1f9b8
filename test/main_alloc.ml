(* The intra- and inter-thread allocators and the pipeline around them. *)
let () =
  Alcotest.run "npra-alloc"
    (List.concat [ Test_regalloc.suite; Test_inter.suite; Test_pipeline.suite ])
