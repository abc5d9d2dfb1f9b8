(* Tests for the cycle-level machine and the reference executor. *)

open Npra_ir
open Npra_sim

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* tiny physical programs *)
let prog name code labels = Prog.make ~name ~code ~labels

let store_all name ~addr values =
  (* write the given immediates to consecutive addresses *)
  let code =
    List.concat
      (List.mapi
         (fun i v ->
           [
             Instr.Movi { dst = Reg.P 0; imm = v };
             Instr.Movi { dst = Reg.P 1; imm = addr + i };
             Instr.Store { src = Reg.P 0; addr = Reg.P 1; off = 0 };
           ])
         values)
    @ [ Instr.Halt ]
  in
  prog name code []

let machine_tests =
  [
    test "alu instructions cost one cycle each" (fun () ->
        let p =
          prog "alu"
            [
              Instr.Movi { dst = Reg.P 0; imm = 1 };
              Instr.Alu { op = Instr.Add; dst = Reg.P 0; src1 = Reg.P 0; src2 = Instr.Imm 2 };
              Instr.Halt;
            ]
            []
        in
        let m = Machine.run [ p ] in
        let r = Machine.report m in
        (* movi + add + halt = 3 cycles *)
        check Alcotest.int "cycles" 3 r.Machine.total_cycles);
    test "load blocks for the memory latency" (fun () ->
        let p =
          prog "load"
            [
              Instr.Movi { dst = Reg.P 1; imm = 100 };
              Instr.Load { dst = Reg.P 0; addr = Reg.P 1; off = 0 };
              Instr.Halt;
            ]
            []
        in
        let m = Machine.run [ p ] in
        let r = Machine.report m in
        (* movi(1) + load(1) + block(20) + switch + halt *)
        check Alcotest.bool "at least 22" true (r.Machine.total_cycles >= 22));
    test "loaded value is visible after resume" (fun () ->
        let p =
          prog "load_use"
            [
              Instr.Movi { dst = Reg.P 1; imm = 100 };
              Instr.Load { dst = Reg.P 0; addr = Reg.P 1; off = 0 };
              Instr.Store { src = Reg.P 0; addr = Reg.P 1; off = 1 };
              Instr.Halt;
            ]
            []
        in
        let m = Machine.run ~mem_image:[ (100, 77) ] [ p ] in
        let r = Machine.report m in
        let tr = List.hd r.Machine.thread_reports in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "store" [ (101, 77) ] tr.Machine.store_trace);
    test "two threads interleave on loads" (fun () ->
        let a = store_all "a" ~addr:10 [ 1; 2; 3 ]
        and b = store_all "b" ~addr:20 [ 4; 5; 6 ] in
        let m = Machine.run [ a; b ] in
        let r = Machine.report m in
        (* both complete, and the total is far below the serialized sum
           because memory latencies overlap *)
        List.iter
          (fun tr ->
            check Alcotest.bool "completed" true (tr.Machine.completion <> None))
          r.Machine.thread_reports;
        let solo = Machine.report (Machine.run [ a ]) in
        check Alcotest.bool "overlap" true
          (r.Machine.total_cycles < 2 * solo.Machine.total_cycles));
    test "ctx_switch rotates between ready threads" (fun () ->
        let yield name v =
          prog name
            [
              Instr.Movi { dst = Reg.P (if v = 1 then 0 else 2); imm = v };
              Instr.Ctx_switch;
              Instr.Movi { dst = Reg.P 1; imm = 900 };
              Instr.Store { src = Reg.P (if v = 1 then 0 else 2); addr = Reg.P 1; off = v };
              Instr.Halt;
            ]
            []
        in
        let m = Machine.run [ yield "y1" 1; yield "y2" 2 ] in
        let r = Machine.report m in
        List.iter
          (fun tr -> check Alcotest.int "one ctx" 2 tr.Machine.context_switches)
          r.Machine.thread_reports);
    test "unsafe register sharing corrupts results (negative control)"
      (fun () ->
        (* both threads use r0 across a ctx_switch: the second thread
           clobbers the first one's value *)
        let clobber name v addr =
          prog name
            [
              Instr.Movi { dst = Reg.P 0; imm = v };
              Instr.Ctx_switch;
              Instr.Movi { dst = Reg.P 1; imm = addr };
              Instr.Store { src = Reg.P 0; addr = Reg.P 1; off = 0 };
              Instr.Halt;
            ]
            []
        in
        let m = Machine.run [ clobber "c1" 11 300; clobber "c2" 22 301 ] in
        let r = Machine.report m in
        let t1 = List.hd r.Machine.thread_reports in
        (* thread 1 wrote thread 2's value: exactly the unsafety the
           verifier exists to prevent *)
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "corrupted" [ (300, 22) ] t1.Machine.store_trace);
    test "virtual registers are rejected" (fun () ->
        let p =
          prog "virt" [ Instr.Movi { dst = Reg.V 0; imm = 1 }; Instr.Halt ] []
        in
        try
          ignore (Machine.run [ p ]);
          Alcotest.fail "expected Stuck"
        with Machine.Stuck _ -> ());
    test "runaway execution is caught" (fun () ->
        let p =
          prog "spin" [ Instr.Br { target = "top" } ] [ ("top", 0) ]
        in
        let config = { Machine.default_config with max_cycles = 1000 } in
        try
          ignore (Machine.run ~config [ p ]);
          Alcotest.fail "expected Stuck"
        with Machine.Stuck _ -> ());
    test "memory image preloads" (fun () ->
        let p =
          prog "pre"
            [
              Instr.Movi { dst = Reg.P 1; imm = 50 };
              Instr.Load { dst = Reg.P 0; addr = Reg.P 1; off = 0 };
              Instr.Store { src = Reg.P 0; addr = Reg.P 1; off = 10 };
              Instr.Halt;
            ]
            []
        in
        let m = Machine.run ~mem_image:[ (50, 123) ] [ p ] in
        check Alcotest.int "value" 123 (Memory.peek (Machine.memory m) 60));
  ]

(* both threads keep a value in r0 across a ctx_switch — the canonical
   clobber the sentinel exists to catch *)
let clobber_pair () =
  let clobber name v addr =
    prog name
      [
        Instr.Movi { dst = Reg.P 0; imm = v };
        Instr.Ctx_switch;
        Instr.Movi { dst = Reg.P 1; imm = addr };
        Instr.Store { src = Reg.P 0; addr = Reg.P 1; off = 0 };
        Instr.Halt;
      ]
      []
  in
  [ clobber "c1" 11 300; clobber "c2" 22 301 ]

let each_engine f = List.iter f [ `Legacy; `Soa ]

(* Runs every thread to a halt or a trap in [run_until] slices. *)
let run_until_done m =
  ignore (Machine.run_until m ~horizon:(Machine.cycle m + 1000) : Machine.pause)

(* Drives an armed machine with [drive]; the sentinel must trap. *)
let run_trap ~engine ?mem_image drive progs =
  let m = Machine.create ~engine ?mem_image ~sentinel:`Trap progs in
  match drive m with
  | () -> Alcotest.fail "expected Corruption"
  | exception Machine.Corruption c -> c

let sentinel_tests =
  [
    test "trap mode reports the full corruption diagnostic" (fun () ->
        match Machine.run ~sentinel:`Trap (clobber_pair ()) with
        | (_ : Machine.t) -> Alcotest.fail "expected Corruption"
        | exception Machine.Corruption c ->
          check Alcotest.int "register" 0 c.Machine.corrupt_reg;
          check Alcotest.int "reader" 0 c.Machine.reader;
          check Alcotest.string "reader name" "c1" c.Machine.reader_name;
          check Alcotest.int "clobberer" 1 c.Machine.clobberer;
          check Alcotest.string "clobberer name" "c2" c.Machine.clobberer_name;
          check (Alcotest.option Alcotest.int) "victim value" (Some 11)
            c.Machine.victim_value;
          check Alcotest.int "observed value" 22 c.Machine.observed_value;
          check Alcotest.bool "clobber precedes read" true
            (c.Machine.clobber_cycle < c.Machine.read_cycle);
          (* c1 issues at 1-2, the switch costs cycle 3, c2 clobbers r0
             at 4 and yields at 5, and c1 reads r0 at 8 *)
          check Alcotest.int "clobber cycle" 4 c.Machine.clobber_cycle;
          check Alcotest.int "read cycle" 8 c.Machine.read_cycle);
    test "trap mode raises the same diagnostic from run_until slices"
      (fun () ->
        let whole =
          match Machine.run ~sentinel:`Trap (clobber_pair ()) with
          | (_ : Machine.t) -> Alcotest.fail "expected Corruption"
          | exception Machine.Corruption c -> c
        in
        let m = Machine.create ~sentinel:`Trap (clobber_pair ()) in
        let rec slices n =
          if n = 0 then Alcotest.fail "no Corruption within 100 slices"
          else
            match Machine.run_until m ~horizon:(Machine.cycle m + 3) with
            | `Horizon | `Idle | `Halted _ -> slices (n - 1)
            | exception Machine.Corruption c -> c
        in
        check
          (Alcotest.of_pp Machine.pp_corruption)
          "same corruption" whole (slices 100));
    test "sentinel stays silent on a safe interleaving" (fun () ->
        (* same shape, but each thread keeps its switch-crossing value in
           its own register *)
        let safe name r v addr =
          prog name
            [
              Instr.Movi { dst = Reg.P r; imm = v };
              Instr.Ctx_switch;
              Instr.Movi { dst = Reg.P (r + 1); imm = addr };
              Instr.Store { src = Reg.P r; addr = Reg.P (r + 1); off = 0 };
              Instr.Halt;
            ]
            []
        in
        let m =
          Machine.run ~sentinel:`Trap [ safe "s1" 0 11 300; safe "s2" 4 22 301 ]
        in
        let r = Machine.report m in
        List.iter
          (fun tr ->
            check Alcotest.bool "completed" true (tr.Machine.completion <> None))
          r.Machine.thread_reports);
    test "victim is None when the reader did not own it at its last switch"
      (fun () ->
        (* a owns r0 at its first switch but not at its second: b's
           clobber lands in between, so what a held earlier is stale *)
        let a =
          prog "a"
            [
              Instr.Movi { dst = Reg.P 0; imm = 11 };
              Instr.Ctx_switch;
              Instr.Ctx_switch;
              Instr.Alu { op = Instr.Add; dst = Reg.P 1; src1 = Reg.P 0; src2 = Instr.Imm 1 };
              Instr.Halt;
            ]
            []
        and b =
          prog "b"
            [ Instr.Movi { dst = Reg.P 0; imm = 22 }; Instr.Ctx_switch; Instr.Halt ]
            []
        in
        each_engine (fun engine ->
            let c = run_trap ~engine run_until_done [ a; b ] in
            check Alcotest.int "clobberer" 1 c.Machine.clobberer;
            check (Alcotest.option Alcotest.int) "victim" None
              c.Machine.victim_value;
            check Alcotest.int "observed" 22 c.Machine.observed_value));
    test "a self-overwrite, then a storm mid-slice: the victim is the value \
          at the switch"
      (fun () ->
        let a =
          prog "a"
            [
              Instr.Movi { dst = Reg.P 0; imm = 11 };
              Instr.Ctx_switch;
              Instr.Movi { dst = Reg.P 0; imm = 33 };
              Instr.Alu { op = Instr.Add; dst = Reg.P 0; src1 = Reg.P 0; src2 = Instr.Imm 1 };
              Instr.Halt;
            ]
            []
        in
        each_engine (fun engine ->
            let c =
              run_trap ~engine
                (fun m ->
                  (* movi, ctx_switch, movi: the slice ends after the
                     rewrite, and the storm hits r0 *)
                  ignore (Machine.run_until m ~horizon:3 : Machine.pause);
                  check Alcotest.int "storm hits r0" 1
                    (Machine.scribble m ~seed:9 ~count:1000);
                  run_until_done m)
                [ a ]
            in
            check Alcotest.string "clobberer" "chaos-storm"
              c.Machine.clobberer_name;
            check Alcotest.int "read cycle" 4 c.Machine.read_cycle;
            check (Alcotest.option Alcotest.int) "victim" (Some 11)
              c.Machine.victim_value));
    test "a load write-back at dispatch displaces the thread's own value"
      (fun () ->
        let a =
          prog "a"
            [
              Instr.Movi { dst = Reg.P 1; imm = 100 };
              Instr.Movi { dst = Reg.P 0; imm = 11 };
              Instr.Load { dst = Reg.P 0; addr = Reg.P 1; off = 0 };
              Instr.Mov { dst = Reg.P 2; src = Reg.P 0 };
              Instr.Halt;
            ]
            []
        in
        each_engine (fun engine ->
            let c =
              run_trap ~engine ~mem_image:[ (100, 55) ]
                (fun m ->
                  (* the load issues at 3 and returns at 23: the slice
                     ends on the dispatch that writes r0 back *)
                  ignore (Machine.run_until m ~horizon:23 : Machine.pause);
                  ignore (Machine.scribble m ~seed:9 ~count:1000 : int);
                  run_until_done m)
                [ a ]
            in
            check Alcotest.int "register" 0 c.Machine.corrupt_reg;
            check Alcotest.string "clobberer" "chaos-storm"
              c.Machine.clobberer_name;
            check (Alcotest.option Alcotest.int) "victim: the value at the \
                                                  load's switch"
              (Some 11) c.Machine.victim_value));
    test "swap_programs, then a clobber: victim None" (fun () ->
        let a =
          prog "a" [ Instr.Movi { dst = Reg.P 0; imm = 11 }; Instr.Halt ] []
        and b =
          prog "b" [ Instr.Movi { dst = Reg.P 0; imm = 22 }; Instr.Halt ] []
        and a' =
          prog "a2"
            [
              Instr.Movi { dst = Reg.P 0; imm = 5 };
              Instr.Mov { dst = Reg.P 1; src = Reg.P 0 };
              Instr.Halt;
            ]
            []
        and b' = prog "b2" [ Instr.Halt ] [] in
        each_engine (fun engine ->
            let c =
              run_trap ~engine
                (fun m ->
                  (* b's clobber displaces a's r0 after a's halt *)
                  run_until_done m;
                  (match Machine.swap_programs m [ a'; b' ] with
                  | Ok () -> ()
                  | Error e -> Alcotest.failf "swap: %a" Machine.pp_swap_error e);
                  Machine.restart_thread m 0;
                  ignore
                    (Machine.run_until m ~horizon:(Machine.cycle m + 1)
                      : Machine.pause);
                  check Alcotest.int "storm hits r0" 1
                    (Machine.scribble m ~seed:9 ~count:1000);
                  run_until_done m)
                [ a; b ]
            in
            check Alcotest.string "reader" "a2" c.Machine.reader_name;
            check (Alcotest.option Alcotest.int) "victim" None
              c.Machine.victim_value));
    test "a restart after a halt reports the value at the halt" (fun () ->
        let a =
          prog "a"
            [
              Instr.Mov { dst = Reg.P 1; src = Reg.P 0 };
              Instr.Movi { dst = Reg.P 0; imm = 11 };
              Instr.Halt;
            ]
            []
        and b =
          prog "b" [ Instr.Movi { dst = Reg.P 0; imm = 22 }; Instr.Halt ] []
        in
        each_engine (fun engine ->
            let c =
              run_trap ~engine
                (fun m ->
                  run_until_done m;
                  Machine.restart_thread m 0;
                  run_until_done m)
                [ a; b ]
            in
            check Alcotest.int "clobberer" 1 c.Machine.clobberer;
            check (Alcotest.option Alcotest.int) "victim" (Some 11)
              c.Machine.victim_value;
            check Alcotest.int "observed" 22 c.Machine.observed_value));
    test "off mode reproduces the silent corruption" (fun () ->
        let m = Machine.run ~sentinel:`Off (clobber_pair ()) in
        let r = Machine.report m in
        let t1 = List.hd r.Machine.thread_reports in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "corrupted store went through" [ (300, 22) ] t1.Machine.store_trace);
  ]

let stuck_tests =
  [
    test "runaway execution is Cycle_limit, with thread status" (fun () ->
        let p = prog "spin" [ Instr.Br { target = "top" } ] [ ("top", 0) ] in
        let config = { Machine.default_config with max_cycles = 1000 } in
        match Machine.run ~config [ p ] with
        | (_ : Machine.t) -> Alcotest.fail "expected Stuck"
        | exception Machine.Stuck (Machine.Cycle_limit { limit; threads }) ->
          check Alcotest.int "limit" 1000 limit;
          check Alcotest.int "one thread" 1 (List.length threads);
          check Alcotest.bool "runnable" true
            ((List.hd threads).Machine.st_state = Machine.Runnable)
        | exception Machine.Stuck s ->
          Alcotest.failf "wrong stuck: %a" Machine.pp_stuck s);
    test "blocked past the budget is Deadlock, not Cycle_limit" (fun () ->
        let p =
          prog "sleeper"
            [
              Instr.Movi { dst = Reg.P 1; imm = 100 };
              Instr.Load { dst = Reg.P 0; addr = Reg.P 1; off = 0 };
              Instr.Halt;
            ]
            []
        in
        let config =
          { Machine.default_config with mem_latency = 5000; max_cycles = 10 }
        in
        match Machine.run ~config [ p ] with
        | (_ : Machine.t) -> Alcotest.fail "expected Stuck"
        | exception Machine.Stuck (Machine.Deadlock { threads; _ }) ->
          check Alcotest.bool "waiting on memory" true
            (match (List.hd threads).Machine.st_state with
            | Machine.Waiting _ -> true
            | _ -> false)
        | exception Machine.Stuck s ->
          Alcotest.failf "wrong stuck: %a" Machine.pp_stuck s);
    test "out-of-file register index is reported" (fun () ->
        let p =
          prog "oof" [ Instr.Movi { dst = Reg.P 200; imm = 1 }; Instr.Halt ] []
        in
        match Machine.run [ p ] with
        | (_ : Machine.t) -> Alcotest.fail "expected Stuck"
        | exception Machine.Stuck (Machine.Out_of_file { reg; nreg }) ->
          check Alcotest.int "reg" 200 reg;
          check Alcotest.int "nreg" 128 nreg
        | exception Machine.Stuck s ->
          Alcotest.failf "wrong stuck: %a" Machine.pp_stuck s);
    test "virtual registers are Not_physical, naming the thread" (fun () ->
        let p =
          prog "virt" [ Instr.Movi { dst = Reg.V 0; imm = 1 }; Instr.Halt ] []
        in
        match Machine.run [ p ] with
        | (_ : Machine.t) -> Alcotest.fail "expected Stuck"
        | exception Machine.Stuck (Machine.Not_physical { thread; _ }) ->
          check Alcotest.string "thread" "virt" thread
        | exception Machine.Stuck s ->
          Alcotest.failf "wrong stuck: %a" Machine.pp_stuck s);
  ]

let refexec_tests =
  [
    test "refexec matches machine on a single thread" (fun () ->
        let p = store_all "s" ~addr:40 [ 9; 8; 7 ] in
        let a = Refexec.run p in
        let m = Machine.report (Machine.run [ p ]) in
        let tr = List.hd m.Machine.thread_reports in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "traces agree" a.Refexec.store_trace tr.Machine.store_trace);
    test "refexec executes virtual programs" (fun () ->
        let r = Npra_sim.Refexec.run (Fixtures.diamond_loop ()) in
        check Alcotest.int "one store" 1 (List.length r.Refexec.store_trace));
    test "refexec counts loads" (fun () ->
        let r = Refexec.run (Fixtures.fig4_frag ()) in
        check Alcotest.bool "loads > 0" true (r.Refexec.loads > 0));
    test "refexec catches runaways" (fun () ->
        let p = prog "spin" [ Instr.Br { target = "t" } ] [ ("t", 0) ] in
        try
          ignore (Refexec.run ~max_steps:100 p);
          Alcotest.fail "expected Runaway"
        with Refexec.Runaway _ -> ());
    test "diamond loop computes the expected accumulator" (fun () ->
        (* n counts 4,3,2,1: arm +10 when n=2, else +1 -> acc = 13 *)
        let r = Refexec.run (Fixtures.diamond_loop ()) in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "store" [ (600, 13) ] r.Refexec.store_trace);
  ]

let memory_tests =
  [
    test "unwritten memory reads zero" (fun () ->
        let m = Memory.create () in
        check Alcotest.int "zero" 0 (Memory.read m 42));
    test "write then read" (fun () ->
        let m = Memory.create () in
        Memory.write m 7 99;
        check Alcotest.int "read" 99 (Memory.read m 7));
    test "dump is sorted" (fun () ->
        let m = Memory.create () in
        Memory.write m 9 1;
        Memory.write m 3 2;
        Memory.write m 5 3;
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "sorted" [ (3, 2); (5, 3); (9, 1) ] (Memory.dump m));
    test "peek does not count as a read" (fun () ->
        let m = Memory.create () in
        ignore (Memory.peek m 1);
        check Alcotest.int "reads" 0 (Memory.reads m));
  ]

(* ---------------- soa vs legacy engines ---------------- *)

(* The [`Soa] burst must be indistinguishable from the legacy Instr.t
   interpreter: same cycle counts, same per-thread reports, same store
   traces, and the same traps on the same cycle. Every registry kernel,
   allocated as a four-thread system, is the witness set; traps are
   exercised by hand-built out-of-file programs. Each kernel gets two
   comparisons: sentinel armed (every register quad flagged and checked)
   and sentinel off (the unchecked arms). *)
let engine_report ?(sentinel = `Trap) engine progs mem_image =
  Machine.report (Machine.run ~engine ~sentinel ~mem_image progs)

let kernel_system spec =
  let sys = Npra_workloads.Registry.system (List.init 4 (fun _ -> spec)) in
  let bal =
    Npra_core.Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases
      sys.progs
  in
  (bal.Npra_core.Pipeline.programs, sys.mem_image)

let check_engines_equal ?sentinel progs mem_image =
  let r = engine_report ?sentinel `Legacy progs mem_image in
  let c = engine_report ?sentinel `Soa progs mem_image in
  check Alcotest.int "total cycles" r.Machine.total_cycles
    c.Machine.total_cycles;
  check Alcotest.string "full report"
    (Fmt.str "%a" Machine.pp_report r)
    (Fmt.str "%a" Machine.pp_report c);
  Alcotest.(check bool) "structurally equal" true (r = c)

let engine_differential_tests =
  let open Npra_workloads in
  List.concat_map
    (fun spec ->
      [
        test
          (Fmt.str "soa = legacy on kernel %s (sentinel armed)"
             spec.Workload.id)
          (fun () ->
            let progs, mem_image = kernel_system spec in
            check_engines_equal progs mem_image);
        test
          (Fmt.str "soa burst = legacy on kernel %s (sentinel off)"
             spec.Workload.id)
          (fun () ->
            let progs, mem_image = kernel_system spec in
            check_engines_equal ~sentinel:`Off progs mem_image);
      ])
    Registry.all

(* Each trap case compares both engines with the sentinel off, so
   [`Soa] raises from inside its burst loop wherever the code is
   register-clean. *)
let stuck_outcome ?config engine progs =
  match Machine.run ?config ~engine progs with
  | (_ : Machine.t) -> Alcotest.fail "expected Stuck"
  | exception Machine.Stuck s -> Fmt.str "%a" Machine.pp_stuck s

let check_same_stuck ?config progs =
  check Alcotest.string "soa stuck diagnostic"
    (stuck_outcome ?config `Legacy progs)
    (stuck_outcome ?config `Soa progs)

(* A clean thread beside one whose code writes the out-of-file register
   r999 behind a branch taken only when [reach]. Either way that quad is
   flagged, so [`Soa] bursts both threads and checks it alone. *)
let unclean_pair ~reach =
  [
    store_all "clean" ~addr:10 [ 1; 2; 3 ];
    prog "unclean"
      [
        Instr.Movi { dst = Reg.P 2; imm = (if reach then 1 else 0) };
        Instr.Movi { dst = Reg.P 3; imm = 40 };
        Instr.Store { src = Reg.P 2; addr = Reg.P 3; off = 0 };
        Instr.Brc
          { cond = Instr.Eq; src1 = Reg.P 2; src2 = Instr.Imm 0; target = "out" };
        Instr.Movi { dst = Reg.P 999; imm = 7 };
        Instr.Halt;
      ]
      [ ("out", 5) ];
  ]

(* One machine through a sequence of hot-swapped program sets: each
   phase restarts every thread and runs it to completion, recording the
   report, or the trap diagnostic that ended the run. *)
let swap_drive engine phases =
  let m = Machine.create ~engine ~sentinel:`Off (List.hd phases) in
  List.mapi
    (fun i progs ->
      (if i > 0 then
         match Machine.swap_programs m progs with
         | Ok () -> List.iteri (fun j _ -> Machine.restart_thread m j) progs
         | Error e -> Alcotest.failf "swap %d: %a" i Machine.pp_swap_error e);
      match Machine.run_until m ~horizon:(Machine.cycle m + 10_000) with
      | (_ : Machine.pause) -> Fmt.str "%a" Machine.pp_report (Machine.report m)
      | exception Machine.Stuck s ->
        Fmt.str "stuck at %d: %a" (Machine.cycle m) Machine.pp_stuck s)
    phases

(* The machine state a trap leaves behind: the diagnostic, the clock,
   every thread's pc and state, and the report. A flagged quad must
   leave exactly what [step_legacy] leaves. *)
let trap_state ?(sentinel = `Off) engine progs =
  let m = Machine.create ~engine ~sentinel progs in
  let diag =
    match Machine.run_until m ~horizon:10_000 with
    | (_ : Machine.pause) -> "no trap"
    | exception Machine.Stuck s -> Fmt.str "%a" Machine.pp_stuck s
    | exception Machine.Corruption c -> Fmt.str "%a" Machine.pp_corruption c
    | exception Invalid_argument msg -> "invalid argument: " ^ msg
  in
  Fmt.str "%s@.cycle %d@.%a@.%a" diag (Machine.cycle m)
    Fmt.(list ~sep:cut Machine.pp_thread_status)
    (Machine.thread_statuses m) Machine.pp_report (Machine.report m)

let check_same_trap_state ?sentinel progs =
  let l = trap_state ?sentinel `Legacy (progs ()) in
  Alcotest.(check bool) "the run traps" false
    (String.starts_with ~prefix:"no trap" l);
  check Alcotest.string "state at the trap" l
    (trap_state ?sentinel `Soa (progs ()))

let r n = Reg.P n

(* Thread "a" keeps r0 and r1 across a switch while "b" overwrites
   both, then reads them back through [use]: the sentinel must name the
   register the legacy engine reads first. *)
let clobbered_reads use =
  [
    prog "a"
      ([
         Instr.Movi { dst = r 0; imm = 1 };
         Instr.Movi { dst = r 1; imm = 2 };
         Instr.Ctx_switch;
       ]
      @ use @ [ Instr.Halt ])
      [ ("end", 3 + List.length use) ];
    prog "b"
      [
        Instr.Movi { dst = r 0; imm = 7 };
        Instr.Movi { dst = r 1; imm = 8 };
        Instr.Halt;
      ]
      [];
  ]

let flagged_trap_tests =
  let case name ?sentinel progs =
    test ("engines leave the same state at a trap: " ^ name) (fun () ->
        check_same_trap_state ?sentinel progs)
  in
  let solo code labels () = [ prog "t" code labels ] in
  [
    case "mov from an out-of-file register"
      (solo
         [
           Instr.Movi { dst = r 0; imm = 1 };
           Instr.Mov { dst = r 1; src = r 999 };
           Instr.Halt;
         ]
         []);
    case "ALU write outside the file"
      (solo
         [
           Instr.Movi { dst = r 0; imm = 1 };
           Instr.Alu { op = Instr.Add; dst = r 500; src1 = r 0; src2 = Instr.Imm 1 };
           Instr.Halt;
         ]
         []);
    case "brc reading outside the file"
      (solo
         [
           Instr.Movi { dst = r 0; imm = 1 };
           Instr.Brc
             { cond = Instr.Eq; src1 = r 0; src2 = Instr.Reg (r 300); target = "end" };
           Instr.Halt;
         ]
         [ ("end", 2) ]);
    case "store of an out-of-file register"
      (solo
         [
           Instr.Movi { dst = r 1; imm = 50 };
           Instr.Store { src = r 200; addr = r 1; off = 0 };
           Instr.Halt;
         ]
         []);
    case "load into an out-of-file register, at its write-back"
      (solo
         [
           Instr.Movi { dst = r 1; imm = 50 };
           Instr.Load { dst = r 200; addr = r 1; off = 0 };
           Instr.Halt;
         ]
         []);
    case "ALU reading two clobbered registers" ~sentinel:`Trap (fun () ->
        clobbered_reads
          [ Instr.Alu { op = Instr.Add; dst = r 2; src1 = r 0; src2 = Instr.Reg (r 1) } ]);
    case "brc reading two clobbered registers" ~sentinel:`Trap (fun () ->
        clobbered_reads
          [
            Instr.Brc
              { cond = Instr.Lt; src1 = r 0; src2 = Instr.Reg (r 1); target = "end" };
          ]);
    case "mov reading a clobbered register" ~sentinel:`Trap (fun () ->
        clobbered_reads [ Instr.Mov { dst = r 2; src = r 0 } ]);
    case "store reading two clobbered registers" ~sentinel:`Trap (fun () ->
        clobbered_reads [ Instr.Store { src = r 0; addr = r 1; off = 0 } ]);
    case "a pc past the end of a program" (fun () ->
        let p = prog "runoff" [ Instr.Nop; Instr.Halt ] [] in
        (* only a program mutated after validation can fall off its end *)
        p.Prog.code.(1) <- Instr.Nop;
        [ p ]);
  ]

let engine_trap_tests =
  [
    test "engines trap identically on an out-of-file read" (fun () ->
        check_same_stuck
          [ prog "oob"
             [
               Instr.Movi { dst = Reg.P 0; imm = 1 };
               Instr.Alu
                 {
                   op = Instr.Add;
                   dst = Reg.P 0;
                   src1 = Reg.P 4000;
                   src2 = Instr.Imm 1;
                 };
               Instr.Halt;
             ]
             [] ]);
    test "engines trap identically on an out-of-file write" (fun () ->
        check_same_stuck
          [ prog "oob-dst"
             [ Instr.Movi { dst = Reg.P 999; imm = 1 }; Instr.Halt ]
             [] ]);
    test "engines reject virtual registers identically" (fun () ->
        check_same_stuck
          [ prog "virt"
             [ Instr.Mov { dst = Reg.P 0; src = Reg.V 3 }; Instr.Halt ]
             [] ]);
    test "engines hit the cycle limit identically" (fun () ->
        (* the spin loop runs entirely inside the soa burst, so this
           pins the burst's strict cycle budget to the per-step one *)
        let p = prog "spin" [ Instr.Br { target = "top" } ] [ ("top", 0) ] in
        let config = { Machine.default_config with max_cycles = 1000 } in
        check_same_stuck ~config [ p ]);
    test "engines agree beside an out-of-file operand never executed"
      (fun () -> check_engines_equal ~sentinel:`Off (unclean_pair ~reach:false) []);
    test "engines trap identically beside a clean thread" (fun () ->
        check_same_stuck (unclean_pair ~reach:true));
    test "swap_programs recomputes the burst decision" (fun () ->
        (* clean -> unclean (operand unreached) -> clean -> unclean
           (operand reached): stale rows would replay the previous
           programs, and a burst over unclean code would write r999
           unchecked instead of trapping *)
        let phases =
          [
            [ store_all "a" ~addr:10 [ 1; 2 ]; store_all "b" ~addr:20 [ 3; 4 ] ];
            unclean_pair ~reach:false;
            [ store_all "a" ~addr:30 [ 5 ]; store_all "b" ~addr:40 [ 6; 7; 8 ] ];
            unclean_pair ~reach:true;
          ]
        in
        let l = swap_drive `Legacy phases in
        check Alcotest.(list string) "phase outcomes" l (swap_drive `Soa phases);
        List.iteri
          (fun i (what, traps) ->
            Alcotest.(check bool) what traps
              (String.starts_with ~prefix:"stuck" (List.nth l i)))
          [
            ("before the swaps", false);
            ("swapped into out-of-file code", false);
            ("swapped back to clean code", false);
            ("last phase trapped", true);
          ]);
  ]

(* ---------------- the scheduler, pinned ---------------- *)

(* Both engines run under one scheduler, so a differential between them
   cannot see a scheduling change that moves both together. Golden
   digests of the report and the raw timeline pin the schedule of every
   registry kernel (a four-thread system): one strict [run] and
   [run_until] slices of 1, 7 and 97 cycles, under both engines with the
   sentinel off and armed. A safe allocation never trips the sentinel,
   so all four runs of a kernel give the same digest. *)

let event_name = function
  | Machine.Dispatched -> "dispatch"
  | Machine.Blocked_on_memory -> "memory"
  | Machine.Yielded -> "yield"
  | Machine.Halted -> "halt"

let schedule_text m =
  Fmt.str "%a%a" Machine.pp_report (Machine.report m)
    Fmt.(
      list ~sep:nop (fun ppf (c, i, e) -> pf ppf "%d %d %s@." c i (event_name e)))
    (Machine.timeline m)

let all_completed m =
  List.for_all
    (fun i ->
      match Machine.thread_state m i with
      | Machine.Completed _ -> true
      | Machine.Runnable | Machine.Waiting _ -> false)
    (List.init (Machine.num_threads m) Fun.id)

let sliced_run ~engine ~sentinel ~slice ~mem_image progs =
  let m = Machine.create ~engine ~sentinel ~timeline:true ~mem_image progs in
  let horizon = ref 0 in
  while not (all_completed m) do
    horizon := !horizon + slice;
    if !horizon > 10_000_000 then Alcotest.fail "slice run did not converge";
    ignore (Machine.run_until m ~horizon:!horizon : Machine.pause)
  done;
  m

let schedule_digest ~engine ~sentinel progs mem_image =
  let whole = Machine.run ~engine ~sentinel ~timeline:true ~mem_image progs in
  let sliced slice = sliced_run ~engine ~sentinel ~slice ~mem_image progs in
  Digest.to_hex
    (Digest.string
       (String.concat "--\n"
          (List.map schedule_text (whole :: List.map sliced [ 1; 7; 97 ]))))

let pinned_schedules =
  [
    ("md5", "6a4b4f9959791dab69c78c7b8fc484ca");
    ("fir2dim", "7eeb54bcef7d774efee0d1caeae5dde6");
    ("frag", "39d752ef7856a123e19ecddbb74893ce");
    ("crc32", "881cc4c9df3a5da2616101dd1ad1b4c2");
    ("drr", "72853daf1076695c40525074fe2b0209");
    ("url", "285c984c0e7c68f1ea1a2015213c1649");
    ("route", "4e786b843caeea9c10a3ef9353f765be");
    ("l2l3fwd_rx", "897621c8281dea4487477bb0c5c5cb04");
    ("l2l3fwd_tx", "88b7f5cc989f8b39eaac3ac844a36ab3");
    ("wraps_rx", "e3fb52c81f93e477abd1d6d4d0c17136");
    ("wraps_tx", "4340a409eb143f645005f660d8bb285a");
  ]

let scheduler_tests =
  List.map
    (fun spec ->
      let id = spec.Npra_workloads.Workload.id in
      test (Fmt.str "pinned schedule of kernel %s" id) (fun () ->
          let progs, mem_image = kernel_system spec in
          let pinned =
            match List.assoc_opt id pinned_schedules with
            | Some d -> d
            | None -> Alcotest.failf "no pinned digest for %s" id
          in
          List.iter
            (fun (engine, sentinel, what) ->
              check Alcotest.string what pinned
                (schedule_digest ~engine ~sentinel progs mem_image))
            [
              (`Soa, `Off, "soa, sentinel off");
              (`Soa, `Trap, "soa, sentinel armed");
              (`Legacy, `Off, "legacy, sentinel off");
              (`Legacy, `Trap, "legacy, sentinel armed");
            ]))
    Npra_workloads.Registry.all

(* The timeline is scheduler output, so both engines must record the
   same one; the armed sentinel and an out-of-file operand that is never
   reached must not change it either. *)
let check_timelines_equal ?(sentinel = `Off) progs mem_image =
  let run engine = Machine.run ~engine ~sentinel ~timeline:true ~mem_image progs in
  let l = run `Legacy and s = run `Soa in
  check Alcotest.string "report and timeline" (schedule_text l) (schedule_text s);
  Alcotest.(check bool) "timelines equal" true
    (Machine.timeline l = Machine.timeline s)

let timeline_tests =
  [
    test "soa = legacy timeline on kernel md5 (sentinel off and armed)"
      (fun () ->
        let progs, mem_image =
          kernel_system (Npra_workloads.Registry.find_exn "md5")
        in
        check_timelines_equal progs mem_image;
        check_timelines_equal ~sentinel:`Trap progs mem_image);
    test "soa = legacy timeline beside an unreached out-of-file operand"
      (fun () -> check_timelines_equal (unclean_pair ~reach:false) []);
  ]

(* ---------------- soa burst under the dispatcher's conditions ------ *)

(* The batched burst must also be equivalent where the traffic fabric
   actually drives machines: tiered memory latencies, bounded
   [run_until] slices, chaos stalls, and scribble storms under the
   quarantine sentinel. *)

let three_tiers =
  Memory.scratch_sram_sdram ~scratch_words:100 ~sram_words:1000
    ~scratch_latency:2 ~sram_latency:12 ~sdram_latency:40

(* one thread per tier: movi/load/store at a scratch, SRAM and SDRAM
   address, each thread on its own registers *)
let tier_probes () =
  List.mapi
    (fun i addr ->
      let r = 4 * i in
      prog (Fmt.str "tier%d" i)
        [
          Instr.Movi { dst = Reg.P (r + 1); imm = addr };
          Instr.Load { dst = Reg.P r; addr = Reg.P (r + 1); off = 0 };
          Instr.Store { src = Reg.P r; addr = Reg.P (r + 1); off = 1 };
          Instr.Halt;
        ]
        [])
    [ 10; 600; 5000 ]

let slice_report ?(mem_image = []) engine ~slice progs =
  let m = Machine.create ~engine ~sentinel:`Off ~mem_image progs in
  let horizon = ref 0 in
  let pauses = ref [] in
  let continue = ref true in
  while !continue do
    horizon := !horizon + slice;
    (match Machine.run_until m ~horizon:!horizon with
    | `Idle when Machine.cycle m >= !horizon ->
      (* idle at the horizon forever once all threads halted *)
      pauses := `Idle :: !pauses;
      continue :=
        List.exists
          (fun i ->
            match Machine.thread_state m i with
            | Machine.Completed _ -> false
            | _ -> true)
          (List.init (Machine.num_threads m) Fun.id)
    | p -> pauses := p :: !pauses);
    if !horizon > 1_000_000 then Alcotest.fail "slice run did not converge"
  done;
  (List.rev !pauses, Machine.report m)

let check_slices_equal ?mem_image ~slice progs =
  let lp, lr = slice_report ?mem_image `Legacy ~slice (progs ()) in
  let sp, sr = slice_report ?mem_image `Soa ~slice (progs ()) in
  check Alcotest.int
    (Fmt.str "pause count at slice %d" slice)
    (List.length lp) (List.length sp);
  Alcotest.(check bool) (Fmt.str "same pauses at slice %d" slice) true (lp = sp);
  check Alcotest.string
    (Fmt.str "same report at slice %d" slice)
    (Fmt.str "%a" Machine.pp_report lr)
    (Fmt.str "%a" Machine.pp_report sr)

let soa_burst_tests =
  [
    test "soa = legacy under tiered memory latencies" (fun () ->
        let config = { Machine.default_config with tiers = Some three_tiers } in
        let report sentinel engine =
          Machine.report (Machine.run ~config ~engine ~sentinel (tier_probes ()))
        in
        List.iter
          (fun sentinel ->
            let l = report sentinel `Legacy and s = report sentinel `Soa in
            check Alcotest.string "soa = legacy"
              (Fmt.str "%a" Machine.pp_report l)
              (Fmt.str "%a" Machine.pp_report s);
            Alcotest.(check bool) "structurally equal" true (s = l))
          [ `Trap; `Off ];
        (* and the tiers really engaged: a flat-latency run differs *)
        let flat = Machine.report (Machine.run (tier_probes ())) in
        Alcotest.(check bool) "tier latencies observable" true
          (flat.Machine.total_cycles <> (report `Off `Soa).Machine.total_cycles));
    test "soa = legacy across bounded run_until slices" (fun () ->
        let progs () =
          [ store_all "a" ~addr:10 [ 1; 2; 3 ]; store_all "b" ~addr:20 [ 4; 5; 6 ] ]
        in
        List.iter (fun slice -> check_slices_equal ~slice progs) [ 1; 7; 64 ];
        (* a sliced soa run equals one strict soa run *)
        let _, sliced = slice_report `Soa ~slice:7 (progs ()) in
        let whole = Machine.report (Machine.run ~engine:`Soa (progs ())) in
        Alcotest.(check bool) "sliced = whole" true (sliced = whole));
    test "soa = legacy under a chaos stall" (fun () ->
        let drive engine =
          let m =
            Machine.create ~engine ~sentinel:`Off
              [ store_all "a" ~addr:10 [ 1; 2; 3; 4 ] ]
          in
          let p1 = Machine.run_until m ~horizon:5 in
          Machine.stall m ~until:40;
          let p2 = Machine.run_until m ~horizon:20 in
          let retired_mid = Machine.instructions_retired m in
          let p3 = Machine.run_until m ~horizon:10_000 in
          ( p1, p2, p3, retired_mid, Machine.cycle m,
            Fmt.str "%a" Machine.pp_report (Machine.report m) )
        in
        Alcotest.(check bool) "identical stall behaviour" true
          (drive `Legacy = drive `Soa));
    test "soa = legacy under a scribble storm (trap sentinel)" (fun () ->
        let drive engine =
          let m = Machine.create ~engine ~sentinel:`Trap (clobber_pair ()) in
          let until h =
            match Machine.run_until m ~horizon:h with
            | p -> Ok p
            | exception Machine.Corruption c -> Error c
          in
          let p1 = until 2 in
          let hit = Machine.scribble m ~seed:5 ~count:8 in
          let p2 = until 10_000 in
          ( p1, hit, p2, Machine.cycle m,
            Fmt.str "%a" Machine.pp_report (Machine.report m) )
        in
        let ((_, _, p2, _, _) as legacy) = drive `Legacy in
        Alcotest.(check bool) "the storm run traps" true (Result.is_error p2);
        Alcotest.(check bool) "identical storm behaviour, trap included" true
          (legacy = drive `Soa));
  ]
  @ List.map
      (fun spec ->
        test
          (Fmt.str "soa burst = legacy on kernel %s in run_until slices"
             spec.Npra_workloads.Workload.id)
          (fun () ->
            let progs, mem_image = kernel_system spec in
            check_slices_equal ~mem_image ~slice:97 (fun () -> progs)))
      Npra_workloads.Registry.all


(* ---------------- the sentinel on generated systems ---------------- *)

(* A fixed-seed corpus of random straight-line systems: 2-4 threads
   sharing r0..r5, each with a private address register (r6 + its
   index), drawn from movi, alu, mov, load, store and ctx_switch. Each
   case runs under both engines in random [run_until] slices, with a
   [scribble] storm before some slices and every thread restarted once
   after all have halted, until the first trap. One MD5 over every
   diagnostic and final report pins the sentinel's observable
   behaviour, victim values included: safe registry kernels never trap,
   so nothing else checks what a trap reports as [expected]. *)

let corpus_cases = 20_000
let corpus_shared = 6

let corpus_alu =
  [| Instr.Add; Instr.Sub; Instr.And; Instr.Or; Instr.Xor; Instr.Shl;
     Instr.Shr; Instr.Mul |]

let corpus_system ~seed =
  let rng = Npra_core.Rng.create ~seed in
  let below = Npra_core.Rng.below rng in
  let shared () = Reg.P (below corpus_shared) in
  let instr addr =
    match below 6 with
    | 0 ->
      let dst = shared () in
      Instr.Movi { dst; imm = below 100 }
    | 1 ->
      let op = corpus_alu.(below 8) in
      let dst = shared () in
      let src1 = shared () in
      let src2 =
        if below 2 = 0 then Instr.Reg (shared ()) else Instr.Imm (below 8)
      in
      Instr.Alu { op; dst; src1; src2 }
    | 2 ->
      let dst = shared () in
      Instr.Mov { dst; src = shared () }
    | 3 ->
      let dst = shared () in
      Instr.Load { dst; addr; off = below 4 }
    | 4 ->
      let src = shared () in
      Instr.Store { src; addr; off = below 4 }
    | _ -> Instr.Ctx_switch
  in
  let nthd = 2 + below 3 in
  List.init nthd (fun i ->
      let addr = Reg.P (corpus_shared + i) in
      let body = List.init (3 + below 12) (fun _ -> instr addr) in
      prog (Fmt.str "g%d" i)
        ((Instr.Movi { dst = addr; imm = 100 * (i + 1) } :: body)
        @ [ Instr.Halt ])
        [])

(* The case's outcome line and final report; the slice and storm draws
   come from [seed], so both engines see the same sequence. *)
let corpus_run ~engine ~seed progs =
  let rng = Npra_core.Rng.create ~seed in
  let below = Npra_core.Rng.below rng in
  let m = Machine.create ~engine ~sentinel:`Trap progs in
  let rec go ~restarted slices =
    if slices = 0 then "unfinished"
    else begin
      if below 3 = 0 then
        ignore (Machine.scribble m ~seed:(below 1000) ~count:(1 + below 4) : int);
      ignore
        (Machine.run_until m ~horizon:(Machine.cycle m + 1 + below 24)
          : Machine.pause);
      if not (all_completed m) then go ~restarted (slices - 1)
      else if restarted then "halted"
      else begin
        for i = 0 to Machine.num_threads m - 1 do
          Machine.restart_thread m i
        done;
        go ~restarted:true (slices - 1)
      end
    end
  in
  let outcome =
    match go ~restarted:false 200 with
    | s -> s
    | exception Machine.Corruption c ->
      Fmt.str "corruption: %a" Machine.pp_corruption c
    | exception Machine.Stuck s -> Fmt.str "stuck: %a" Machine.pp_stuck s
  in
  Fmt.str "%s@.%a" outcome Machine.pp_report (Machine.report m)

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let corpus_tests =
  [
    test "golden corruption corpus: diagnostics and reports pinned"
      (fun () ->
        let traps = ref 0 and victims = ref 0 and storm_victims = ref 0 in
        let texts =
          List.init corpus_cases (fun i ->
              let progs = corpus_system ~seed:(1 + i) in
              let seed = 7919 * (i + 1) in
              let legacy = corpus_run ~engine:`Legacy ~seed progs in
              let soa = corpus_run ~engine:`Soa ~seed progs in
              if soa <> legacy then
                Alcotest.failf "case %d: soa@.%s@.legacy@.%s" i soa legacy;
              if String.starts_with ~prefix:"corruption" legacy then begin
                incr traps;
                if contains ~sub:"expected" legacy then begin
                  incr victims;
                  if contains ~sub:"chaos-storm" legacy then incr storm_victims
                end
              end;
              legacy)
        in
        (* the corpus really exercises victim reporting, storms included *)
        check Alcotest.int "traps" 19622 !traps;
        check Alcotest.int "traps reporting an expected value" 1363 !victims;
        check Alcotest.int "of them after a storm" 280 !storm_victims;
        check Alcotest.string "digest" "bdab4f53bffe1c72fc7662c706e9d646"
          (Digest.to_hex (Digest.string (String.concat "--\n" texts))));
  ]

(* ---------------- the sentinel on generated branchy systems -------- *)

(* A fixed-seed corpus of 2-4-thread systems with control flow: counted
   loops that never yield, loops that yield, diamonds, [br] chains and
   [nop]s, over per-thread registers and three shared ones (r0-r2), with
   one out-of-file write per system behind a diamond arm. Every program
   writes each register it reads before its first read, so swapping to
   a second generated set of the same shape is legal. Each case runs
   under both engines with the sentinel armed, in random [run_until]
   slices (so bursts resume mid-segment, inside loops too), with a
   [scribble] storm before some slices; once every thread has halted the
   machine swaps to the second set and restarts, then restarts once
   more. One MD5 over every outcome, report and timeline pins what the
   sentinel reports on code whose reads flow through branches and
   loops. *)

let branchy_cases = 5_000
let branchy_nreg = 32
let branchy_config = { Machine.default_config with nreg = branchy_nreg }

type branchy_item = I of Instr.t | L of string

let branchy_prog ~rng ~name ~thread ~oof =
  let below = Npra_core.Rng.below rng in
  let base = 3 + (5 * thread) in
  let addr = Reg.P base and counter = Reg.P (base + 1) in
  let data = [| Reg.P (base + 2); Reg.P (base + 3); Reg.P (base + 4) |] in
  let value () = if below 12 = 0 then Reg.P (below 3) else data.(below 3) in
  let labels = ref 0 in
  let fresh () =
    incr labels;
    Fmt.str "l%d" !labels
  in
  let some f lo hi =
    List.concat (List.init (lo + below (hi - lo + 1)) (fun _ -> f ()))
  in
  let simple () =
    match below 5 with
    | 0 ->
      let dst = value () in
      [ I (Instr.Movi { dst; imm = below 50 }) ]
    | 1 | 2 ->
      let op = corpus_alu.(below 8) in
      let src2 = if below 2 = 0 then Instr.Reg (value ()) else Instr.Imm (below 8) in
      let src1 = value () in
      [ I (Instr.Alu { op; dst = value (); src1; src2 }) ]
    | 3 ->
      let src = value () in
      [ I (Instr.Mov { dst = value (); src }) ]
    | _ -> [ I Instr.Nop ]
  in
  let yield_ () =
    match below 3 with
    | 0 ->
      let dst = value () in
      [ I (Instr.Load { dst; addr; off = below 4 }) ]
    | 1 ->
      let src = value () in
      [ I (Instr.Store { src; addr; off = below 4 }) ]
    | _ -> [ I Instr.Ctx_switch ]
  in
  let oof_left = ref oof in
  let block () =
    match below 6 with
    | 0 -> some simple 1 4
    | 1 | 2 ->
      (* a counted loop; half of them give up the PU in the body *)
      let top = fresh () in
      [ I (Instr.Movi { dst = counter; imm = 1 + below 4 }); L top ]
      @ some simple 1 3
      @ (if below 2 = 0 then yield_ () @ some simple 0 2 else [])
      @ [
          I (Instr.Alu
               { op = Instr.Sub; dst = counter; src1 = counter; src2 = Instr.Imm 1 });
          I (Instr.Brc
               { cond = Instr.Gt; src1 = counter; src2 = Instr.Imm 0; target = top });
        ]
    | 3 ->
      (* a diamond on a data value; the system's out-of-file write sits
         in one else arm, behind an equality test that rarely holds *)
      let els = fresh () and join = fresh () in
      let oof_arm = !oof_left in
      let cond =
        if oof_arm then Instr.Eq else [| Instr.Eq; Instr.Ne; Instr.Lt; Instr.Ge |].(below 4)
      in
      let src1 = value () in
      let arm_else =
        if oof_arm then begin
          oof_left := false;
          [ I (Instr.Mov { dst = Reg.P (branchy_nreg + 8); src = data.(0) }) ]
        end
        else some simple 1 2
      in
      [ I (Instr.Brc { cond; src1; src2 = Instr.Imm (below 40); target = els }) ]
      @ some simple 1 3
      @ (if below 2 = 0 then yield_ () else [])
      @ [ I (Instr.Br { target = join }); L els ]
      @ arm_else @ [ L join ] @ some simple 0 1
    | 4 ->
      (* a br chain: forward over a skipped nop, back into the body, and
         forward again past the hop *)
      let hop = fresh () and body = fresh () and out = fresh () in
      [ I (Instr.Br { target = hop }); I Instr.Nop; L body ]
      @ some simple 1 2
      @ [ I (Instr.Br { target = out }); L hop; I (Instr.Br { target = body }); L out ]
    | _ -> some yield_ 1 2 @ some simple 0 2
  in
  let prologue =
    I (Instr.Movi { dst = addr; imm = 100 * (thread + 1) })
    :: List.map
         (fun r -> I (Instr.Movi { dst = r; imm = below 50 }))
         (Array.to_list data @ [ Reg.P 0; Reg.P 1; Reg.P 2 ])
  in
  let items = prologue @ some block 2 5 @ [ I Instr.Halt ] in
  let _, code_rev, labels =
    List.fold_left
      (fun (n, code, labels) -> function
        | I ins -> (n + 1, ins :: code, labels)
        | L l -> (n, code, (l, n) :: labels))
      (0, [], []) items
  in
  prog name (List.rev code_rev) labels

let branchy_system ?nthd ~seed () =
  let rng = Npra_core.Rng.create ~seed in
  let nthd =
    match nthd with Some n -> n | None -> 2 + Npra_core.Rng.below rng 3
  in
  let oof = Npra_core.Rng.below rng nthd in
  List.init nthd (fun i ->
      branchy_prog ~rng ~name:(Fmt.str "b%d" i) ~thread:i ~oof:(i = oof))

(* The case's outcome, the swap's result, the final report and the
   timeline; slice and storm draws come from [seed], so both engines
   see the same sequence. *)
let branchy_run ~engine ~seed first second =
  let rng = Npra_core.Rng.create ~seed in
  let below = Npra_core.Rng.below rng in
  let m =
    Machine.create ~config:branchy_config ~engine ~sentinel:`Trap ~timeline:true
      first
  in
  let swap = ref "no swap" in
  let restart_all () =
    for i = 0 to Machine.num_threads m - 1 do
      Machine.restart_thread m i
    done
  in
  let rec go ~phase slices =
    if slices = 0 then "unfinished"
    else begin
      if below 8 = 0 then
        ignore (Machine.scribble m ~seed:(below 1000) ~count:(1 + below 2) : int);
      ignore
        (Machine.run_until m ~horizon:(Machine.cycle m + 1 + below 24)
          : Machine.pause);
      if not (all_completed m) then go ~phase (slices - 1)
      else if phase = 2 then "halted"
      else begin
        if phase = 0 then
          swap :=
            (match Machine.swap_programs m second with
            | Ok () -> "swapped"
            | Error e -> Fmt.str "swap refused: %a" Machine.pp_swap_error e);
        restart_all ();
        go ~phase:(phase + 1) (slices - 1)
      end
    end
  in
  let outcome =
    match go ~phase:0 300 with
    | s -> s
    | exception Machine.Corruption c ->
      Fmt.str "corruption: %a" Machine.pp_corruption c
    | exception Machine.Stuck s -> Fmt.str "stuck: %a" Machine.pp_stuck s
  in
  Fmt.str "%s@.%s@.%s" outcome !swap (schedule_text m)

let branchy_tests =
  [
    test "golden branchy corpus: soa = legacy, diagnostics and timelines pinned"
      (fun () ->
        let traps = ref 0 and victims = ref 0 and swapped = ref 0
        and out_of_file = ref 0 and halted = ref 0 in
        let texts =
          List.init branchy_cases (fun i ->
              let first = branchy_system ~seed:(1 + (2 * i)) () in
              let second =
                branchy_system ~nthd:(List.length first) ~seed:(2 + (2 * i)) ()
              in
              let seed = 104_729 * (i + 1) in
              let legacy = branchy_run ~engine:`Legacy ~seed first second in
              let soa = branchy_run ~engine:`Soa ~seed first second in
              if soa <> legacy then
                Alcotest.failf "case %d: soa@.%s@.legacy@.%s" i soa legacy;
              if String.starts_with ~prefix:"corruption" legacy then begin
                incr traps;
                if contains ~sub:"expected" legacy then incr victims
              end;
              if String.starts_with ~prefix:"stuck: register" legacy then
                incr out_of_file;
              if String.starts_with ~prefix:"halted" legacy then incr halted;
              if contains ~sub:"\nswapped\n" legacy then incr swapped;
              legacy)
        in
        check Alcotest.int "traps" 3962 !traps;
        check Alcotest.int "traps reporting an expected value" 2409 !victims;
        check Alcotest.int "out-of-file traps" 60 !out_of_file;
        check Alcotest.int "runs that halted" 978 !halted;
        check Alcotest.int "runs that swapped" 2282 !swapped;
        check Alcotest.string "digest" "7dabb982aa79535d1750f3ff320c7e98"
          (Digest.to_hex (Digest.string (String.concat "--\n" texts))));
  ]

(* ---------------- images: guard sets and entry live-in ------------- *)

(* The read-before-write sets an armed image's bursts are guarded by, on
   hand-written programs: what one thread may read before writing it
   from a pc up to the next load, store, ctx_switch or halt. *)

let alu op dst src1 src2 = Instr.Alu { op; dst = r dst; src1 = r src1; src2 }

let guard_of prog pcs =
  let img = Machine.image ~sentinel:`Trap [ prog ] in
  List.map (fun pc -> (pc, Machine.guard_set img ~thread:0 ~pc)) pcs

let check_guards what prog expected =
  check
    Alcotest.(list (pair int (list int)))
    what expected
    (guard_of prog (List.map fst expected))

let guard_tests =
  [
    test "a counted loop with no yield: the back edge carries its reads"
      (fun () ->
        check_guards "guard sets"
          (prog "loop"
             [
               Instr.Movi { dst = r 1; imm = 3 };
               alu Instr.Add 2 2 (Instr.Reg (r 1));
               alu Instr.Sub 1 1 (Instr.Imm 1);
               Instr.Brc
                 { cond = Instr.Gt; src1 = r 1; src2 = Instr.Imm 0; target = "top" };
               Instr.Store { src = r 4; addr = r 4; off = 0 };
               Instr.Halt;
             ]
             [ ("top", 1) ])
          (* r2 at pc 2 is read only through the brc's taken edge *)
          [ (0, [ 2; 4 ]); (1, [ 1; 2; 4 ]); (2, [ 1; 2; 4 ]);
            (3, [ 1; 2; 4 ]); (4, [ 4 ]); (5, []) ]);
    test "a diamond: both arms, and a nop that does not end the segment"
      (fun () ->
        check_guards "guard sets"
          (prog "diamond"
             [
               Instr.Brc
                 { cond = Instr.Eq; src1 = r 1; src2 = Instr.Imm 0; target = "else" };
               alu Instr.Add 2 3 (Instr.Imm 1);
               Instr.Br { target = "join" };
               Instr.Mov { dst = r 2; src = r 4 };
               Instr.Nop;
               alu Instr.Add 5 2 (Instr.Reg (r 6));
               Instr.Ctx_switch;
               alu Instr.Add 7 7 (Instr.Imm 1);
               Instr.Halt;
             ]
             [ ("else", 3); ("join", 4) ])
          [ (0, [ 1; 3; 4; 6 ]); (1, [ 3; 6 ]); (3, [ 4; 6 ]); (4, [ 2; 6 ]);
            (6, []); (7, [ 7 ]) ]);
    test "between a write and a later read in one segment" (fun () ->
        check_guards "guard sets"
          (prog "between"
             [
               Instr.Movi { dst = r 1; imm = 5 };
               Instr.Movi { dst = r 2; imm = 6 };
               alu Instr.Add 3 1 (Instr.Reg (r 2));
               Instr.Ctx_switch;
               Instr.Halt;
             ]
             [])
          [ (0, []); (1, [ 1 ]); (2, [ 1; 2 ]); (3, []) ]);
    test "a load's destination is read in the next segment" (fun () ->
        check_guards "guard sets"
          (prog "load"
             [
               Instr.Movi { dst = r 1; imm = 100 };
               Instr.Load { dst = r 2; addr = r 1; off = 0 };
               alu Instr.Add 3 2 (Instr.Imm 1);
               Instr.Halt;
             ]
             [])
          [ (0, []); (1, [ 1 ]); (2, [ 2 ]); (3, []) ]);
    test "a br to itself reads nothing" (fun () ->
        check_guards "guard sets"
          (prog "spin"
             [ alu Instr.Add 1 1 (Instr.Reg (r 2)); Instr.Br { target = "self" } ]
             [ ("self", 1) ])
          [ (0, [ 1; 2 ]); (1, []) ]);
    test "registers outside the file and disarmed images have no guard"
      (fun () ->
        let p =
          prog "oof"
            [ Instr.Mov { dst = r 1; src = r 999 }; alu Instr.Add 2 1 (Instr.Imm 1);
              Instr.Halt ]
            []
        in
        check_guards "armed" p [ (0, []); (1, [ 1 ]) ];
        check Alcotest.(list int) "disarmed" []
          (Machine.guard_set (Machine.image [ p ]) ~thread:0 ~pc:1));
    test "a swap's entry live-in check equals the allocator's liveness"
      (fun () ->
        (* every registry kernel's allocation, and the branchy corpus *)
        let live p =
          Reg.Set.elements
            (Reg.Set.filter Reg.is_physical
               (Npra_cfg.Liveness.live_in (Npra_cfg.Liveness.compute p) 0))
        in
        let refused p =
          (* a swap onto a parked machine reports the live-in set *)
          let m = Machine.create [ p ] in
          Machine.park_thread m 0;
          match Machine.swap_programs m [ p ] with
          | Ok () -> []
          | Error (Machine.Swap_live_in { regs; _ }) -> regs
          | Error e -> Alcotest.failf "swap: %a" Machine.pp_swap_error e
        in
        let progs =
          List.concat_map
            (fun spec -> fst (kernel_system spec))
            Npra_workloads.Registry.all
          @ List.concat
              (List.init 200 (fun i -> branchy_system ~seed:(1 + i) ()))
          @ [ prog "reads first"
                [ alu Instr.Add 1 1 (Instr.Reg (r 999)); Instr.Halt ] [] ]
        in
        List.iter
          (fun p ->
            check Alcotest.(list string) p.Prog.name
              (List.map Reg.to_string (live p))
              (List.map Reg.to_string (refused p)))
          progs);
    test "swap_image refuses an image for another file or sentinel mode"
      (fun () ->
        let p = store_all "a" ~addr:10 [ 1 ] in
        let m = Machine.create ~sentinel:`Trap [ p ] in
        Machine.park_thread m 0;
        List.iter
          (fun img ->
            match Machine.swap_image m img with
            | _ -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ())
          [ Machine.image [ p ];
            Machine.image
              ~config:{ Machine.default_config with nreg = 64 }
              ~sentinel:`Trap [ p ] ];
        check Alcotest.bool "a matching image swaps" true
          (Machine.swap_image m (Machine.image ~sentinel:`Trap [ p ]) = Ok ()));
  ]

let suite =
  [
    ("sim.machine", machine_tests);
    ("sim.sentinel", sentinel_tests);
    ("sim.stuck", stuck_tests);
    ( "sim.engines",
      engine_differential_tests @ engine_trap_tests @ flagged_trap_tests
      @ timeline_tests );
    ("sim.scheduler", scheduler_tests);
    ("sim.soa_burst", soa_burst_tests);
    ("sim.refexec", refexec_tests);
    ("sim.memory", memory_tests);
    ("sim.corpus", corpus_tests);
    ("sim.branchy", branchy_tests);
    ("sim.guard", guard_tests);
  ]
