(* Tests for the packet-traffic subsystem: arrival streams, the bounded
   machine stepping it drives, the multi-engine dispatcher's accounting
   invariants, and the determinism contract (same seed, byte-identical
   metrics). *)

open Npra_sim
open Npra_workloads
open Npra_core
open Npra_traffic

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------------- arrival streams ---------------- *)

let gaps = function
  | [] | [ _ ] -> []
  | x :: rest -> List.rev (fst (List.fold_left (fun (acc, p) a -> ((a - p) :: acc, a)) ([], x) rest))

let arrival_tests =
  [
    test "uniform: first arrival phased, then exact period" (fun () ->
        let xs = Arrival.take ~seed:7 (Workload.Uniform { period = 50 }) 40 in
        Alcotest.(check bool) "phase < period" true (List.hd xs < 50);
        List.iter (fun g -> check Alcotest.int "gap" 50 g) (gaps xs));
    test "poisson: gaps >= 1, mean tracks mean_period" (fun () ->
        let mean = 200 in
        let xs =
          Arrival.take ~seed:11 (Workload.Poisson { mean_period = mean }) 2000
        in
        let gs = gaps xs in
        List.iter
          (fun g -> Alcotest.(check bool) "gap >= 1" true (g >= 1))
          gs;
        let avg =
          float_of_int (List.fold_left ( + ) 0 gs)
          /. float_of_int (List.length gs)
        in
        Alcotest.(check bool)
          (Fmt.str "mean %.1f within 30%% of %d" avg mean)
          true
          (avg > 0.7 *. float_of_int mean && avg < 1.3 *. float_of_int mean));
    test "bursty: every arrival lands inside an on-phase" (fun () ->
        let on_cycles = 300 and off_cycles = 700 in
        let xs =
          Arrival.take ~seed:3
            (Workload.Bursty { on_cycles; off_cycles; period = 40 })
            500
        in
        List.iter
          (fun a ->
            Alcotest.(check bool)
              (Fmt.str "cycle %d in on-phase" a)
              true
              (a mod (on_cycles + off_cycles) < on_cycles))
          xs);
    test "arrivals strictly increase past the first" (fun () ->
        List.iter
          (fun model ->
            let xs = Arrival.take ~seed:5 model 300 in
            List.iter
              (fun g -> Alcotest.(check bool) "strict" true (g >= 1))
              (gaps xs))
          [
            Workload.Uniform { period = 1 };
            Workload.Poisson { mean_period = 3 };
            Workload.Bursty { on_cycles = 10; off_cycles = 5; period = 2 };
          ]);
    test "same seed replays the identical stream" (fun () ->
        let m = Workload.Poisson { mean_period = 90 } in
        check
          Alcotest.(list int)
          "equal" (Arrival.take ~seed:42 m 200) (Arrival.take ~seed:42 m 200));
    test "exp_table: 256 non-increasing entries, mean near 1024" (fun () ->
        check Alcotest.int "length" 256 (Array.length Arrival.exp_table);
        Array.iteri
          (fun i v ->
            if i > 0 then
              Alcotest.(check bool) "non-increasing" true
                (v <= Arrival.exp_table.(i - 1)))
          Arrival.exp_table;
        let mean =
          Array.fold_left ( + ) 0 Arrival.exp_table / 256
        in
        Alcotest.(check bool)
          (Fmt.str "mean %d within 5%% of 1024" mean)
          true
          (mean > 973 && mean < 1075));
    test "every registry kernel has a default traffic model" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) s.Workload.id true
              (Registry.default_traffic s.Workload.id <> None))
          Registry.all);
  ]

(* ---------------- bounded stepping (run_until / park / restart) ----- *)

(* A small allocated multi-thread system, the same way the fault driver
   builds one. *)
let system ids =
  let sys = Registry.system ~iters:2 (List.map Registry.find_exn ids) in
  let bal =
    Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases sys.progs
  in
  (bal.Pipeline.programs, sys.mem_image)

let all_completed m =
  let rec go i =
    i >= Machine.num_threads m
    || (match Machine.thread_state m i with
       | Machine.Completed _ -> true
       | _ -> false)
       && go (i + 1)
  in
  go 0

let stepping_tests =
  [
    test "run_until slices replay run exactly" (fun () ->
        let progs, mem_image = system [ "crc32"; "frag"; "url"; "route" ] in
        let full = Machine.report (Machine.run ~mem_image progs) in
        let m = Machine.create ~mem_image progs in
        while not (all_completed m) do
          ignore (Machine.run_until m ~horizon:(Machine.cycle m + 97))
        done;
        let sliced = Machine.report m in
        List.iter2
          (fun (a : Machine.thread_report) (b : Machine.thread_report) ->
            check Alcotest.(option int) "completion" a.Machine.completion
              b.Machine.completion;
            check Alcotest.int "instructions" a.Machine.instructions
              b.Machine.instructions;
            check Alcotest.int "ctx switches" a.Machine.context_switches
              b.Machine.context_switches;
            check
              Alcotest.(list (pair int int))
              "store trace" a.Machine.store_trace b.Machine.store_trace)
          full.Machine.thread_reports sliced.Machine.thread_reports;
        check Alcotest.int "busy cycles" full.Machine.busy_cycles
          sliced.Machine.busy_cycles);
    test "an instantiated machine records no store trace; Machine.run does"
      (fun () ->
        let progs, mem_image = system [ "crc32"; "frag"; "url"; "route" ] in
        let m = Machine.instantiate ~mem_image (Machine.image progs) in
        while not (all_completed m) do
          ignore (Machine.run_until m ~horizon:(Machine.cycle m + 97))
        done;
        let full = Machine.report (Machine.run ~mem_image progs) in
        List.iter2
          (fun (p : Npra_ir.Prog.t) (a, b) ->
            let name = p.Npra_ir.Prog.name in
            Alcotest.(check bool)
              (name ^ " stored") true (a.Machine.store_count > 0);
            check Alcotest.int (name ^ " store count") a.Machine.store_count
              b.Machine.store_count;
            check
              Alcotest.(list (pair int int))
              (name ^ " instantiated") [] b.Machine.store_trace;
            check Alcotest.int (name ^ " digest of the trace")
              (Machine.digest_stores a.Machine.store_trace)
              a.Machine.store_digest;
            check Alcotest.int (name ^ " instantiated digest")
              a.Machine.store_digest b.Machine.store_digest;
            check
              Alcotest.(list (pair int int))
              (name ^ " run = Refexec")
              (Refexec.run ~mem_image p).Refexec.store_trace
              a.Machine.store_trace)
          progs
          (List.combine full.Machine.thread_reports
             (Machine.report m).Machine.thread_reports));
    test "park holds threads; idle advances the clock to the horizon"
      (fun () ->
        let progs, mem_image = system [ "crc32"; "crc32" ] in
        let m = Machine.create ~mem_image progs in
        List.iteri (fun i _ -> Machine.park_thread m i) progs;
        (match Machine.run_until m ~horizon:500 with
        | `Idle -> ()
        | `Horizon | `Halted _ -> Alcotest.fail "expected `Idle");
        check Alcotest.int "clock at horizon" 500 (Machine.cycle m));
    test "restart runs a parked thread to its halt; counters accumulate"
      (fun () ->
        let progs, mem_image = system [ "crc32"; "crc32" ] in
        let m = Machine.create ~mem_image progs in
        List.iteri (fun i _ -> Machine.park_thread m i) progs;
        Machine.restart_thread m 0;
        let first =
          match Machine.run_until ~stop_on_halt:true m ~horizon:max_int with
          | `Halted i -> i
          | `Horizon | `Idle -> Alcotest.fail "expected a halt"
        in
        check Alcotest.int "thread 0 halted" 0 first;
        let i1 =
          (List.hd (Machine.report m).Machine.thread_reports)
            .Machine.instructions
        in
        Machine.restart_thread m 0;
        (match Machine.run_until ~stop_on_halt:true m ~horizon:max_int with
        | `Halted 0 -> ()
        | _ -> Alcotest.fail "expected thread 0 to halt again");
        let i2 =
          (List.hd (Machine.report m).Machine.thread_reports)
            .Machine.instructions
        in
        check Alcotest.int "second run doubles the count" (2 * i1) i2);
  ]

(* ---------------- dispatcher invariants ---------------- *)

let uniform_specs ?(capacity = 4) ?(period = 300) n =
  List.init n (fun _ ->
      {
        Workload.arrival = Workload.Uniform { period };
        queue_capacity = capacity;
        per_packet_iters = 2;
      })

let dispatch_tests =
  [
    test "accounting: offered = served + dropped after a clean drain"
      (fun () ->
        let progs, mem_image = system [ "crc32"; "frag"; "url"; "route" ] in
        let m =
          Dispatch.run ~engines:2 ~sentinel:`Trap ~seed:9 ~duration:20_000
            ~specs:(uniform_specs 4) ~mem_image progs
        in
        check
          Alcotest.(list (pair int string))
          "no faults" [] (Metrics.faults m);
        check Alcotest.int "conservation"
          (Metrics.total_offered m)
          (Metrics.total_served m + Metrics.total_dropped m);
        Alcotest.(check bool) "served some" true (Metrics.total_served m > 0);
        List.iter
          (fun e ->
            List.iter
              (fun t ->
                check Alcotest.int
                  (Fmt.str "latency count = served (t%d)" t.Metrics.tm_thread)
                  t.Metrics.served
                  (List.length t.Metrics.latencies);
                List.iter
                  (fun l ->
                    Alcotest.(check bool) "latency >= 1" true (l >= 1))
                  t.Metrics.latencies)
              e.Metrics.em_threads)
          m.Metrics.rm_engines);
    test "Dispatch engines record no store trace, sentinel off or armed"
      (fun () ->
        let progs, mem_image = system [ "crc32"; "frag"; "url"; "route" ] in
        let threads sentinel =
          let m =
            Dispatch.run ~engines:2 ~sentinel ~seed:9 ~duration:20_000
              ~specs:(uniform_specs 4) ~mem_image progs
          in
          List.concat_map
            (fun e ->
              List.map
                (fun t ->
                  let what =
                    Fmt.str "engine %d %s" e.Metrics.em_engine t.Machine.name
                  in
                  Alcotest.(check bool)
                    (what ^ " stored") true (t.Machine.store_count > 0);
                  check
                    Alcotest.(list (pair int int))
                    what [] t.Machine.store_trace;
                  (what, t.Machine.store_digest))
                e.Metrics.em_report.Machine.thread_reports)
            m.Metrics.rm_engines
        in
        check
          Alcotest.(list (pair string int))
          "store digests, off = armed" (threads `Off) (threads `Trap));
    test "bounded queues: drops appear under overload and respect capacity"
      (fun () ->
        let progs, mem_image = system [ "md5"; "md5" ] in
        let m =
          Dispatch.run ~sentinel:`Trap ~seed:2 ~duration:30_000
            ~specs:(uniform_specs ~capacity:2 ~period:50 2)
            ~mem_image progs
        in
        check
          Alcotest.(list (pair int string))
          "no faults" [] (Metrics.faults m);
        Alcotest.(check bool) "dropped under overload" true
          (Metrics.total_dropped m > 0);
        List.iter
          (fun e ->
            List.iter
              (fun t ->
                Alcotest.(check bool) "max_queue <= capacity" true
                  (t.Metrics.max_queue <= 2))
              e.Metrics.em_threads)
          m.Metrics.rm_engines);
    test "every engine serves traffic; summaries aggregate across engines"
      (fun () ->
        let progs, mem_image = system [ "crc32"; "url" ] in
        let m =
          Dispatch.run ~engines:3 ~seed:5 ~duration:10_000
            ~specs:(uniform_specs 2) ~mem_image progs
        in
        check Alcotest.int "three engines" 3 (List.length m.Metrics.rm_engines);
        List.iter
          (fun e ->
            Alcotest.(check bool)
              (Fmt.str "engine %d served" e.Metrics.em_engine)
              true
              (List.fold_left
                 (fun a t -> a + t.Metrics.served)
                 0 e.Metrics.em_threads
              > 0))
          m.Metrics.rm_engines;
        let sums = Metrics.thread_summaries m in
        check Alcotest.int "one summary per thread" 2 (List.length sums);
        check Alcotest.int "summary aggregates engines"
          (Metrics.total_served m)
          (List.fold_left (fun a s -> a + s.Metrics.ts_served) 0 sums));
    test "an impossible drain budget reports a deadlocked engine" (fun () ->
        let progs, mem_image = system [ "md5" ] in
        let m =
          Dispatch.run ~seed:1 ~duration:200 ~drain_budget:1
            ~specs:(uniform_specs ~period:10 1)
            ~mem_image progs
        in
        match Metrics.faults m with
        | [ (0, msg) ] ->
          Alcotest.(check bool)
            (Fmt.str "mentions deadlock: %s" msg)
            true
            (String.length msg >= 8 && String.sub msg 0 8 = "deadlock")
        | other ->
          Alcotest.failf "expected one deadlock fault, got %d"
            (List.length other));
    test "run rejects zero engines, a spec count mismatch and no programs"
      (fun () ->
        let progs, mem_image = system [ "crc32" ] in
        let run ?(engines = 1) ~specs progs () =
          ignore
            (Dispatch.run ~engines ~seed:1 ~duration:100 ~specs ~mem_image
               progs)
        in
        Alcotest.check_raises "zero engines"
          (Invalid_argument "Dispatch.run: engines must be >= 1")
          (run ~engines:0 ~specs:(uniform_specs 1) progs);
        Alcotest.check_raises "two specs for one program"
          (Invalid_argument "Dispatch.run: one traffic spec per thread program")
          (run ~specs:(uniform_specs 2) progs);
        Alcotest.check_raises "no programs"
          (Invalid_argument "Dispatch.run: no thread programs")
          (run ~specs:[] []));
    test "per-port offered traffic does not depend on the allocation"
      (fun () ->
        (* dense arrivals put one within a few cycles of [duration],
           where an engine's last run can step over it *)
        let ids = [ "md5"; "crc32"; "url"; "route" ] in
        let { Registry.progs; mem_image; spill_bases; _ } =
          Registry.system ~iters:1 (List.map Registry.find_exn ids)
        in
        let base, bal = Pipeline.contenders ~nreg:128 ~spill_bases progs in
        let bal =
          match bal with
          | Ok b -> b.Pipeline.programs
          | Error _ -> Alcotest.fail "no balanced allocation"
        in
        let offered progs ~seed ~duration =
          let m =
            Dispatch.run ~engines:2 ~seed ~duration
              ~specs:(uniform_specs ~capacity:2 ~period:7 4)
              ~mem_image progs
          in
          List.map
            (fun e -> List.map (fun t -> t.Metrics.offered) e.Metrics.em_threads)
            m.Metrics.rm_engines
        in
        List.iter
          (fun seed ->
            List.iter
              (fun duration ->
                check
                  Alcotest.(list (list int))
                  (Fmt.str "seed %d, duration %d" seed duration)
                  (offered base.Pipeline.base_programs ~seed ~duration)
                  (offered bal ~seed ~duration))
              [ 2_000; 2_003; 2_011; 2_029 ])
          [ 1; 42 ]);
    test "the watchdog cannot change a fault-free run" (fun () ->
        let progs, mem_image = system [ "crc32"; "frag"; "url" ] in
        let refresh ~engine ~thread ~seq =
          [ (thread * 1024, (engine + (thread * 5) + seq) land 0xFFFF) ]
        in
        let specs =
          [
            {
              Workload.arrival = Workload.Poisson { mean_period = 400 };
              queue_capacity = 4;
              per_packet_iters = 2;
            };
            {
              Workload.arrival =
                Workload.Bursty { on_cycles = 900; off_cycles = 600; period = 150 };
              queue_capacity = 3;
              per_packet_iters = 2;
            };
            {
              Workload.arrival = Workload.Uniform { period = 350 };
              queue_capacity = 2;
              per_packet_iters = 2;
            };
          ]
        in
        let json ?watchdog seed =
          Metrics.to_json
            (Dispatch.run ~engines:3 ~sentinel:`Trap ~refresh ?watchdog ~seed
               ~duration:6_000 ~specs ~mem_image progs)
        in
        List.iter
          (fun seed ->
            check Alcotest.string (Fmt.str "seed %d" seed) (json seed)
              (json ~watchdog:Dispatch.default_watchdog seed))
          [ 3; 17 ]);
    test "percentiles: nearest rank on a known sample" (fun () ->
        match Metrics.percentiles (List.init 100 (fun i -> 100 - i)) with
        | None -> Alcotest.fail "expected percentiles"
        | Some p ->
          check Alcotest.int "p50" 50 p.Metrics.p50;
          check Alcotest.int "p95" 95 p.Metrics.p95;
          check Alcotest.int "p99" 99 p.Metrics.p99;
          check Alcotest.int "max" 100 p.Metrics.pmax);
  ]

(* A quiet slice costs the fabric no allocation: with every thread
   parked and no arrival, a run of 100 more slices allocates exactly as
   much as the shorter one, so neither the barrier nor an engine's
   advance pass allocates. *)
let parked_tests =
  [
    test "a parked run allocates nothing per slice" (fun () ->
        let progs, mem_image = system [ "crc32"; "frag" ] in
        let specs =
          List.map
            (fun _ ->
              {
                Workload.arrival =
                  Workload.Windowed
                    { from_cycle = 0; until_cycle = 0;
                      inner = Workload.Uniform { period = 100 } };
                queue_capacity = 4;
                per_packet_iters = 2;
              })
            progs
        in
        let image =
          Machine.image ~config:Dispatch.default_machine_config ~sentinel:`Trap
            progs
        in
        let words duration =
          let before = Gc.minor_words () in
          let m =
            Dispatch.run_image ~engines:4 ~seed:1 ~duration ~specs ~mem_image
              image
          in
          let after = Gc.minor_words () in
          check Alcotest.int "nothing offered" 0 (Metrics.total_offered m);
          after -. before
        in
        ignore (words 1024 : float);
        let short = words (10 * 1024) in
        let long = words (110 * 1024) in
        check (Alcotest.float 0.) "extra words over 100 slices" 0. (long -. short));
  ]

(* ---------------- determinism ---------------- *)

(* The regression the bench relies on: metrics are a pure function of
   the seed, so two identical runs serialise to byte-identical JSON. *)
let det_system = lazy (system [ "crc32"; "frag" ])

let det_json seed =
  let progs, mem_image = Lazy.force det_system in
  let refresh ~engine ~thread ~seq =
    [ (thread * 1024, (seed + (engine * 7) + seq) land 0xFFFF) ]
  in
  let specs =
    [
      {
        Workload.arrival = Workload.Poisson { mean_period = 250 };
        queue_capacity = 4;
        per_packet_iters = 2;
      };
      {
        Workload.arrival =
          Workload.Bursty { on_cycles = 800; off_cycles = 400; period = 120 };
        queue_capacity = 4;
        per_packet_iters = 2;
      };
    ]
  in
  Metrics.to_json
    (Dispatch.run ~engines:2 ~sentinel:`Trap ~refresh ~seed ~duration:4_000
       ~specs ~mem_image progs)

let determinism_tests =
  [
    test "same seed, byte-identical JSON (fixed seeds)" (fun () ->
        List.iter
          (fun seed ->
            check Alcotest.string (Fmt.str "seed %d" seed) (det_json seed)
              (det_json seed))
          [ 0; 1; 42; 123456 ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:20
         ~name:"same seed, byte-identical JSON (random seeds)"
         QCheck.(int_range 0 1_000_000)
         (fun seed -> String.equal (det_json seed) (det_json seed)));
    test "different seeds change the traffic" (fun () ->
        Alcotest.(check bool) "differ" true
          (not (String.equal (det_json 1) (det_json 2))));
  ]

let suite =
  [
    ("traffic.arrival", arrival_tests);
    ("traffic.stepping", stepping_tests);
    ("traffic.dispatch", dispatch_tests);
    ("traffic.parked", parked_tests);
    ("traffic.determinism", determinism_tests);
  ]
