(* Fault-injection harness tests.

   Every mutator is exercised against a kernel known to offer a
   violating candidate, and the injected system must be flagged by the
   static verifier AND (where the corruption is dynamically reachable)
   trapped by the simulator's sentinel. Kernels with no violating
   candidate must report the mutator as inapplicable rather than
   fabricate a fault. A qcheck property then throws random colour
   corruptions at every kernel: each one is either caught statically by
   Verify, or is a harmless re-colouring on which the sentinel must stay
   silent — and whenever the sentinel does trap, Verify must have
   flagged the system first (no false positives). *)

open Npra_ir
open Npra_regalloc
open Npra_sim
open Npra_workloads
open Npra_core
module Mutate = Npra_fault.Mutate
module Driver = Npra_fault.Driver

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let nthd = 4
let nreg = 128

(* A four-thread system of one kernel, allocated by the full pipeline
   (falling back to fixed-partition Chaitin where balancing is
   infeasible) — the same construction the detection-matrix driver
   uses. *)
let system id =
  let sys = Registry.system (List.init nthd (fun _ -> Registry.find_exn id)) in
  let bal =
    Pipeline.balanced_exn ~nreg ~spill_bases:sys.spill_bases sys.progs
  in
  (bal.Pipeline.layout, bal.Pipeline.programs, sys.mem_image)

let inject_exn id kind =
  let layout, progs, mem_image = system id in
  match Mutate.inject layout progs kind with
  | Mutate.Applied inj -> (layout, inj, mem_image)
  | Mutate.Not_applicable reason ->
    Alcotest.failf "%s: %s unexpectedly inapplicable: %s" id
      (Mutate.kind_name kind) reason

let sentinel_traps ~mem_image progs =
  match
    Machine.run ~sentinel:`Trap ~mem_image
      ~config:{ Machine.default_config with max_cycles = 2_000_000 }
      progs
  with
  | (_ : Machine.t) -> false
  | exception Machine.Corruption _ -> true
  | exception Machine.Stuck _ -> false

(* kernel known to offer a violating candidate, per mutator *)
let applicable_on =
  [
    (Mutate.Swap_colors, "crc32");
    (Mutate.Drop_move, "route");
    (Mutate.Shift_block, "crc32");
    (Mutate.Leak_csb_live, "crc32");
    (Mutate.Corrupt_writeback, "crc32");
  ]

let mutator_tests =
  List.concat_map
    (fun (kind, id) ->
      let name = Mutate.kind_name kind in
      [
        test (name ^ " on " ^ id ^ ": statically detected") (fun () ->
            let layout, inj, _ = inject_exn id kind in
            check Alcotest.bool
              (name ^ " produces a verifier error")
              true
              (Verify.check_system layout inj.Mutate.programs <> []));
        test (name ^ " on " ^ id ^ ": sentinel traps at run time") (fun () ->
            let _, inj, mem_image = inject_exn id kind in
            check Alcotest.bool (name ^ " trapped") true
              (sentinel_traps ~mem_image inj.Mutate.programs));
        test (name ^ " on " ^ id ^ ": mutation edits only one thread")
          (fun () ->
            let _, progs, _ = system id in
            let _, inj, _ = inject_exn id kind in
            let changed =
              List.map2
                (fun p p' -> Prog.to_string p <> Prog.to_string p')
                progs inj.Mutate.programs
              |> List.filter Fun.id |> List.length
            in
            check Alcotest.int "threads edited" 1 changed);
      ])
    applicable_on

let honesty_tests =
  [
    test "drop_move reports inapplicable when no split move exists" (fun () ->
        (* crc32 at nreg=128 needs no live-range splits *)
        let layout, progs, _ = system "crc32" in
        match Mutate.inject layout progs Mutate.Drop_move with
        | Mutate.Not_applicable _ -> ()
        | Mutate.Applied inj ->
          Alcotest.failf "unexpected drop_move on crc32: %s" inj.Mutate.detail);
    test "clean systems keep the sentinel silent" (fun () ->
        List.iter
          (fun id ->
            let _, progs, mem_image = system id in
            check Alcotest.bool (id ^ " clean run silent") false
              (sentinel_traps ~mem_image progs))
          [ "crc32"; "route"; "wraps_rx" ]);
  ]

let matrix_tests =
  [
    test "detection matrix: every injected fault is caught" (fun () ->
        let specs =
          List.map Registry.find_exn [ "crc32"; "route"; "wraps_rx" ]
        in
        let m = Driver.run ~specs () in
        let injected, detected, _ = Driver.totals m in
        check Alcotest.bool "some faults injected" true (injected > 0);
        check Alcotest.int "all detected" injected detected;
        check Alcotest.bool "all_detected" true (Driver.all_detected m);
        List.iter
          (fun k -> check Alcotest.(option string) "no clean-run trap" None
              k.Driver.clean_fault)
          m.Driver.kernels);
    test "detection matrix JSON is well-formed enough to grep" (fun () ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        let specs = [ Registry.find_exn "crc32" ] in
        let m = Driver.run ~specs () in
        let js = Npra_core.Json.to_string (Driver.to_json m) in
        List.iter
          (fun needle -> check Alcotest.bool needle true (contains js needle))
          [ {|"benchmark"|}; {|"kernels"|}; {|"all_detected": true|} ]);
  ]

(* ---------------- qcheck: random colour corruption ---------------- *)

(* The pre-allocated systems, one per kernel; built once. *)
let all_systems =
  lazy
    (List.map
       (fun spec ->
         let id = spec.Workload.id in
         let layout, progs, mem_image = system id in
         (id, layout, progs, mem_image))
       Registry.all)

(* Rename one physical register the victim thread actually uses to an
   arbitrary physical register — the shape of bug a broken allocator,
   spiller or rewriter would produce. *)
let corrupt_colour (layout, progs) ~thread ~pick ~target =
  let thread = thread mod List.length progs in
  let p = List.nth progs thread in
  let used =
    Prog.regs p |> Reg.Set.elements
    |> List.filter_map (function Reg.P n -> Some n | Reg.V _ -> None)
  in
  match used with
  | [] -> None
  | _ ->
    let from = List.nth used (pick mod List.length used) in
    let into = target mod layout.Assign.nreg in
    if from = into then None
    else
      let p' =
        Prog.map_regs
          (function Reg.P n when n = from -> Reg.P into | r -> r)
          p
      in
      Some
        ( thread,
          List.mapi (fun j q -> if j = thread then p' else q) progs )

let prop_random_corruption =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:
         "random colour corruption: caught by Verify, or harmless and \
          sentinel-silent"
       QCheck.(quad (int_bound 10) (int_bound 3) small_nat (int_bound 127))
       (fun (kidx, thread, pick, target) ->
         let id, layout, progs, mem_image =
           List.nth (Lazy.force all_systems) (kidx mod 11)
         in
         match corrupt_colour (layout, progs) ~thread ~pick ~target with
         | None -> true (* degenerate rename; nothing injected *)
         | Some (_, progs') ->
           let static = Verify.check_system layout progs' <> [] in
           if static then true
             (* caught statically; the sentinel may or may not also see
                it dynamically (the corrupt path may never execute) *)
           else begin
             (* verifies clean: the rename produced another valid
                allocation, so the sentinel must not cry wolf *)
             if sentinel_traps ~mem_image progs' then
               QCheck.Test.fail_reportf
                 "%s: sentinel trapped on a statically valid system" id
             else true
           end))

(* Without a watchdog nothing handles a trap: the engine keeps its
   trap fault and the packets it held, instead of being reported as a
   drain deadlock once traffic stops. *)
let dispatch_trap_tests =
  [
    test "an unwatched dispatcher trap keeps its fault and packets" (fun () ->
        let open Npra_traffic in
        let _, inj, mem_image = inject_exn "crc32" Mutate.Shift_block in
        let specs =
          List.init nthd (fun _ ->
              {
                Workload.arrival = Workload.Uniform { period = 400 };
                queue_capacity = 4;
                per_packet_iters = 1;
              })
        in
        let m =
          Dispatch.run ~sentinel:`Trap ~seed:3 ~duration:20_000 ~specs ~mem_image
            inj.Mutate.programs
        in
        match m.Metrics.rm_engines with
        | [ e ] ->
          (match e.Metrics.em_fault with
          | Some (Metrics.Engine_trap _) -> ()
          | f ->
            Alcotest.failf "expected a trap fault, got %s"
              (match f with Some f -> Metrics.fault_message f | None -> "none"));
          check Alcotest.bool "not live" false e.Metrics.em_live;
          check Alcotest.bool "holds packets" true (e.Metrics.em_residual > 0);
          check Alcotest.bool "conservation" true (Metrics.conservation_ok m)
        | es -> Alcotest.failf "expected one engine, got %d" (List.length es));
  ]

let suite =
  [
    ("fault.mutators", mutator_tests);
    ("fault.dispatch", dispatch_trap_tests);
    ("fault.honesty", honesty_tests);
    ("fault.matrix", matrix_tests);
    ("fault.random", [ prop_random_corruption ]);
  ]
