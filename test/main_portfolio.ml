(* The portfolio races. *)
let () = Alcotest.run "npra-portfolio" Test_portfolio.suite
