(* Tests for the chaos-hardened traffic fabric: fault schedules, the
   machine's chaos-injection hooks, watchdog quarantine + re-dispatch
   with golden recovery trails, overload shedding, the exact
   packet-conservation invariant, and replay determinism. *)

open Npra_sim
open Npra_workloads
open Npra_core
open Npra_traffic

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* The same allocated four-thread system builder the traffic tests use. *)
let system ids =
  let sys = Registry.system ~iters:2 (List.map Registry.find_exn ids) in
  let bal =
    Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases sys.progs
  in
  (bal.Pipeline.programs, sys.mem_image)

let light = lazy (system [ "crc32"; "frag" ])

let uniform_specs ?(capacity = 6) ?(period = 700) n =
  List.init n (fun _ ->
      {
        Workload.arrival = Workload.Uniform { period };
        queue_capacity = capacity;
        per_packet_iters = 2;
      })

let conservation m =
  check Alcotest.int "offered = served + dropped + residual"
    (Metrics.total_offered m)
    (Metrics.total_served m + Metrics.total_dropped m
   + Metrics.total_residual m);
  Alcotest.(check bool) "conservation_ok" true (Metrics.conservation_ok m)

(* ---------------- schedules ---------------- *)

let schedule_tests =
  [
    test "schedule: pure function of (seed, spec)" (fun () ->
        let spec =
          {
            Chaos.crashes = 2;
            permanent_hangs = 1;
            transient_hangs = 1;
            storms = 1;
            floods = 2;
          }
        in
        let s () =
          Chaos.schedule ~seed:7 ~engines:4 ~threads:4 ~duration:50_000 spec
        in
        check Alcotest.string "identical renderings"
          (Fmt.str "%a" Fmt.(list Chaos.pp_event) (s ()).Chaos.events)
          (Fmt.str "%a" Fmt.(list Chaos.pp_event) (s ()).Chaos.events);
        check Alcotest.int "event count" 7 (List.length (s ()).Chaos.events));
    test "schedule: events sorted, in range, mid-run" (fun () ->
        let duration = 40_000 in
        let t =
          Chaos.schedule ~seed:3 ~engines:3 ~threads:4 ~duration
            {
              Chaos.crashes = 3;
              permanent_hangs = 2;
              transient_hangs = 2;
              storms = 2;
              floods = 3;
            }
        in
        let last = ref 0 in
        List.iter
          (fun ev ->
            let at = Chaos.event_at ev in
            Alcotest.(check bool) "sorted" true (at >= !last);
            last := at;
            Alcotest.(check bool) "mid-run" true
              (at >= duration / 4 && at < (duration * 3) + 4);
            Alcotest.(check bool) "engine in range" true
              (Chaos.event_engine ev >= 0 && Chaos.event_engine ev < 3))
          t.Chaos.events);
    test "of_events: stable sort by cycle" (fun () ->
        let t =
          Chaos.of_events
            [
              Chaos.Crash { engine = 1; at = 500 };
              Chaos.Crash { engine = 0; at = 100 };
              Chaos.Storm { engine = 2; at = 500; writes = 4 };
            ]
        in
        check
          Alcotest.(list int)
          "order" [ 100; 500; 500 ]
          (List.map Chaos.event_at t.Chaos.events);
        check Alcotest.int "tie keeps construction order" 1
          (Chaos.event_engine (List.nth t.Chaos.events 1)));
  ]

(* ---------------- machine hooks ---------------- *)

let hook_tests =
  [
    test "stall: clock advances, nothing retires, then self-clears" (fun () ->
        let progs, mem_image = Lazy.force light in
        let m = Machine.create ~mem_image progs in
        Machine.stall m ~until:600;
        Alcotest.(check bool) "stalled" true (Machine.stalled m);
        (match Machine.run_until m ~horizon:400 with
        | `Idle -> ()
        | `Horizon | `Halted _ -> Alcotest.fail "expected `Idle while stalled");
        check Alcotest.int "clock at horizon" 400 (Machine.cycle m);
        check Alcotest.int "no instruction retired" 0
          (Machine.instructions_retired m);
        ignore (Machine.run_until m ~horizon:2_000);
        Alcotest.(check bool) "cleared" false (Machine.stalled m);
        Alcotest.(check bool) "retiring again" true
          (Machine.instructions_retired m > 0));
    test "scribble: hits owned registers only with a sentinel" (fun () ->
        let progs, mem_image = Lazy.force light in
        let plain = Machine.create ~mem_image progs in
        ignore (Machine.run_until plain ~horizon:300);
        check Alcotest.int "no sentinel, no-op" 0
          (Machine.scribble plain ~seed:5 ~count:64);
        let armed = Machine.create ~mem_image ~sentinel:`Trap progs in
        ignore (Machine.run_until armed ~horizon:300);
        Alcotest.(check bool) "sentinel armed, registers hit" true
          (Machine.scribble armed ~seed:5 ~count:64 > 0));
    test "scribble: the sentinel traps the storm as chaos-storm" (fun () ->
        let progs, mem_image = Lazy.force light in
        let m = Machine.create ~mem_image ~sentinel:`Trap progs in
        ignore (Machine.run_until m ~horizon:300);
        ignore (Machine.scribble m ~seed:5 ~count:64);
        match Machine.run_until m ~horizon:max_int with
        | exception Machine.Corruption c ->
          check Alcotest.string "attributed to the storm" "chaos-storm"
            c.Machine.clobberer_name
        | _ -> Alcotest.fail "expected the sentinel to trap the storm");
  ]

(* ---------------- golden recovery trails ---------------- *)

let trail_kinds m =
  List.map
    (function
      | Metrics.Injected _ -> "injected"
      | Metrics.Fault_observed _ -> "fault"
      | Metrics.Watchdog_fired _ -> "watchdog"
      | Metrics.Redispatched _ -> "redispatch"
      | Metrics.Backoff _ -> "backoff"
      | Metrics.Reset _ -> "reset"
      | Metrics.Recovered _ -> "recovered"
      | Metrics.Quarantined _ -> "quarantined"
      | Metrics.Rebalanced _ -> "rebalance"
      | Metrics.Swapped _ -> "swap")
    m.Metrics.rm_trail

let run_fabric ?shed ?(engines = 2) ?(duration = 20_000) ~chaos () =
  let progs, mem_image = Lazy.force light in
  Dispatch.run ~engines ~sentinel:`Trap ~chaos
    ~watchdog:Dispatch.default_watchdog ?shed ~seed:11 ~duration
    ~specs:(uniform_specs (List.length progs))
    ~mem_image progs

let trail_tests =
  [
    test "golden crash: inject, re-dispatch, quarantine; survivors carry on"
      (fun () ->
        let m =
          run_fabric
            ~chaos:(Chaos.of_events [ Chaos.Crash { engine = 1; at = 6_000 } ])
            ()
        in
        conservation m;
        check
          Alcotest.(list string)
          "exact trail"
          [ "injected"; "redispatch"; "quarantined" ]
          (trail_kinds m);
        check Alcotest.int "one survivor" 1 (Metrics.surviving_engines m);
        (match Metrics.faults m with
        | [ (1, msg) ] ->
          Alcotest.(check bool) "crash fault" true
            (String.length msg >= 11 && String.sub msg 0 11 = "chaos crash")
        | other -> Alcotest.failf "expected 1 fault, got %d" (List.length other));
        let e1 = List.nth m.Metrics.rm_engines 1 in
        Alcotest.(check bool) "engine 1 not live" false e1.Metrics.em_live;
        Alcotest.(check bool) "survivor still served" true
          (Metrics.total_served m > 0));
    test
      "golden hang: watchdog fires, bounded retries back off, then quarantine"
      (fun () ->
        let m =
          run_fabric
            ~chaos:
              (Chaos.of_events
                 [ Chaos.Hang { engine = 0; at = 5_000; stall = Chaos.Permanent } ])
            ()
        in
        conservation m;
        check
          Alcotest.(list string)
          "exact trail"
          [
            "injected";
            (* fire 1: retry with backoff *)
            "watchdog"; "redispatch"; "backoff"; "reset";
            (* fire 2: last retry *)
            "watchdog"; "redispatch"; "backoff"; "reset";
            (* fire 3: retries exhausted *)
            "watchdog"; "redispatch"; "quarantined";
          ]
          (trail_kinds m);
        (match Metrics.faults m with
        | [ (0, msg) ] ->
          Alcotest.(check bool) "watchdog fault" true
            (String.length msg >= 8 && String.sub msg 0 8 = "watchdog")
        | other -> Alcotest.failf "expected 1 fault, got %d" (List.length other));
        check Alcotest.int "one survivor" 1 (Metrics.surviving_engines m));
    test "a packet re-routed after duration is served after its re-route"
      (fun () ->
        (* engine 0 hangs and fills its queues; engine 1 drains and goes
           idle, so its clock stops at its last completion. The crash,
           sixteen 1024-cycle slices past [duration], re-routes engine
           0's packets onto that lagging engine. *)
        let progs, mem_image = Lazy.force light in
        let duration = 20_000 in
        let crash_at = duration + (16 * 1024) in
        let m =
          Dispatch.run ~engines:2 ~sentinel:`Trap
            ~chaos:
              (Chaos.of_events
                 [
                   Chaos.Hang { engine = 0; at = 5_000; stall = Chaos.Permanent };
                   Chaos.Crash { engine = 0; at = crash_at };
                 ])
            ~watchdog:{ Dispatch.stall_slices = 50; retries = 0; backoff_slices = 1 }
            ~drain_budget:40_000 ~seed:11 ~duration
            ~specs:(uniform_specs ~period:2_500 (List.length progs))
            ~mem_image progs
        in
        conservation m;
        check Alcotest.int "nothing left behind" 0 (Metrics.total_residual m);
        let at, moved =
          match
            List.filter_map
              (function
                | Metrics.Redispatched { cycle; packets; _ } -> Some (cycle, packets)
                | _ -> None)
              m.Metrics.rm_trail
          with
          | [ r ] -> r
          | rs -> Alcotest.failf "expected one re-dispatch, got %d" (List.length rs)
        in
        check Alcotest.int "re-routed at the crash" crash_at at;
        Alcotest.(check bool) "packets re-routed" true (moved > 0);
        let e1 = List.nth m.Metrics.rm_engines 1 in
        (* the survivor cannot finish a re-routed packet before [at] *)
        Alcotest.(check bool)
          (Fmt.str "survivor's clock %d passes the re-route"
             e1.Metrics.em_report.Machine.total_cycles)
          true
          (e1.Metrics.em_report.Machine.total_cycles > at);
        (* each re-routed packet arrived before [duration] and cannot
           start before [at], so its latency exceeds [at - duration] *)
        let late =
          List.concat_map (fun t -> t.Metrics.latencies) e1.Metrics.em_threads
          |> List.filter (fun l -> l > at - duration)
        in
        Alcotest.(check bool)
          (Fmt.str "%d re-routed packets, %d late latencies" moved (List.length late))
          true
          (List.length late >= moved));
    test "transient hang: stall clears itself, nobody is quarantined"
      (fun () ->
        let m =
          run_fabric
            ~chaos:
              (Chaos.of_events
                 [
                   Chaos.Hang
                     { engine = 0; at = 5_000; stall = Chaos.Transient 1_500 };
                 ])
            ()
        in
        conservation m;
        check Alcotest.int "all engines survive" 2
          (Metrics.surviving_engines m);
        Alcotest.(check bool) "no quarantine in the trail" false
          (List.mem "quarantined" (trail_kinds m)));
    test "storm: sentinel trap observed, engine reset, serves again"
      (fun () ->
        let m =
          run_fabric
            ~chaos:
              (Chaos.of_events [ Chaos.Storm { engine = 0; at = 6_000; writes = 64 } ])
            ()
        in
        conservation m;
        let kinds = trail_kinds m in
        Alcotest.(check bool) "trap observed" true (List.mem "fault" kinds);
        Alcotest.(check bool) "engine reset" true (List.mem "reset" kinds);
        Alcotest.(check bool) "engine recovered" true
          (List.mem "recovered" kinds);
        check Alcotest.int "all engines survive" 2
          (Metrics.surviving_engines m));
    test "flood: junk traffic counted separately, goodput fraction immune"
      (fun () ->
        let m =
          run_fabric
            ~chaos:
              (Chaos.of_events
                 [
                   Chaos.Flood
                     {
                       engine = 0;
                       thread = 1;
                       at = 5_000;
                       duration = 6_000;
                       period = 8;
                     };
                 ])
            ()
        in
        conservation m;
        Alcotest.(check bool) "flood offered" true
          (Metrics.total_flood_offered m > 100);
        Alcotest.(check bool) "flood drops recorded" true
          ((Metrics.total_drops m).Metrics.flood > 0);
        Alcotest.(check bool) "goodput above 0.9" true
          (Metrics.delivered_fraction m > 0.9));
    test "shedding: the credit refuses overload explicitly" (fun () ->
        let progs, mem_image = Lazy.force light in
        let m =
          Dispatch.run ~engines:1 ~sentinel:`Trap
            ~watchdog:Dispatch.default_watchdog
            ~shed:{ Dispatch.quantum = 1; burst = 1 } ~seed:3 ~duration:20_000
            ~specs:(uniform_specs ~capacity:8 ~period:60 (List.length progs))
            ~mem_image progs
        in
        conservation m;
        Alcotest.(check bool) "shed drops recorded" true
          ((Metrics.total_drops m).Metrics.shed > 0);
        Alcotest.(check bool) "still serving" true (Metrics.total_served m > 0));
    test "fabric drain deadlock: structured fault names the thread states"
      (fun () ->
        let progs, mem_image = system [ "md5" ] in
        let m =
          Dispatch.run ~watchdog:Dispatch.default_watchdog ~seed:1
            ~duration:200 ~drain_budget:1
            ~specs:(uniform_specs ~period:10 1)
            ~mem_image progs
        in
        conservation m;
        Alcotest.(check bool) "residual packets counted" true
          (Metrics.total_residual m > 0);
        match (List.hd m.Metrics.rm_engines).Metrics.em_fault with
        | Some (Metrics.Drain_deadlock { pending; threads; _ }) ->
          Alcotest.(check bool) "pending > 0" true (pending > 0);
          check Alcotest.int "one thread status per thread" 1
            (List.length threads)
        | _ -> Alcotest.fail "expected a structured Drain_deadlock");
  ]

(* ---------------- conservation over random schedules ---------------- *)

let spec_of_seed seed =
  {
    Chaos.crashes = seed mod 2;
    permanent_hangs = (seed / 2) mod 2;
    transient_hangs = (seed / 4) mod 2;
    storms = (seed / 8) mod 2;
    floods = (seed / 16) mod 2;
  }

let fabric_json seed =
  let progs, mem_image = Lazy.force light in
  let chaos =
    Chaos.schedule ~seed ~engines:3 ~threads:(List.length progs)
      ~duration:8_000 (spec_of_seed seed)
  in
  Metrics.to_json
    (Dispatch.run ~engines:3 ~sentinel:`Trap ~chaos
       ~shed:{ Dispatch.quantum = 4; burst = 12 } ~seed ~duration:8_000
       ~specs:(uniform_specs (List.length progs))
       ~mem_image progs)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:25
         ~name:"qcheck: conservation holds under random chaos schedules"
         QCheck.(int_range 0 1_000_000)
         (fun seed ->
           let progs, mem_image = Lazy.force light in
           let chaos =
             Chaos.schedule ~seed ~engines:3 ~threads:(List.length progs)
               ~duration:8_000 (spec_of_seed seed)
           in
           let m =
             Dispatch.run ~engines:3 ~sentinel:`Trap ~chaos ~seed
               ~duration:8_000
               ~specs:(uniform_specs (List.length progs))
               ~mem_image progs
           in
           Metrics.conservation_ok m));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:3
         ~name:"qcheck: chaos runs on a 4-job pool equal sequential runs"
         QCheck.(int_range 0 1_000_000)
         (fun seed ->
           (* three whole fabric runs, each one pool task *)
           let seeds = [ seed; seed + 1; seed + 2 ] in
           let sequential = List.map fabric_json seeds in
           let pool4 = Npra_par.Pool.create ~jobs:4 () in
           sequential = Npra_par.Pool.map_list pool4 fabric_json seeds));
    test "matrix cells replay byte-identically" (fun () ->
        let run () =
          Npra_core.Json.to_string
            (Npra_fault.Chaosdriver.to_json
               (Npra_fault.Chaosdriver.run ~seed:5 ~quick:true ()))
        in
        check Alcotest.string "equal" (run ()) (run ()));
    test "matrix: every scenario cell holds its bound" (fun () ->
        let m = Npra_fault.Chaosdriver.run ~seed:5 ~quick:true () in
        Alcotest.(check bool) "all cells ok" true
          (Npra_fault.Chaosdriver.all_ok m);
        let cells, ok = Npra_fault.Chaosdriver.totals m in
        check Alcotest.int "every cell counted ok" cells ok);
  ]

let suite =
  [
    ("chaos.schedule", schedule_tests);
    ("chaos.hooks", hook_tests);
    ("chaos.recovery", trail_tests);
    ("chaos.invariants", qcheck_tests);
  ]
