(* Tests for the multicore execution engine: the domain pool's
   deterministic task-indexed semantics, the content-addressed
   allocation cache, and the cross-subsystem determinism contract —
   every pool-aware entry point (fault matrix, fuzz harness,
   contenders) must produce identical results at any job count, and
   whole traffic runs handed to the pool must equal the same runs made
   in the calling domain. *)

open Npra_workloads
open Npra_core

module Pool = Npra_par.Pool

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let prop ?(count = 10) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ---------------- pool semantics ---------------- *)

let pool_tests =
  [
    test "results land at their task index at any job count" (fun () ->
        let expected = Array.init 100 (fun i -> i * i) in
        List.iter
          (fun jobs ->
            let p = Pool.create ~jobs () in
            check
              Alcotest.(array int)
              (Fmt.str "%d jobs" jobs) expected
              (Pool.tasks p 100 (fun i -> i * i)))
          [ 1; 2; 3; 4; 8 ]);
    test "zero tasks yields an empty array" (fun () ->
        check Alcotest.int "length" 0
          (Array.length (Pool.tasks (Pool.create ~jobs:4 ()) 0 (fun i -> i))));
    test "map_list preserves order and length" (fun () ->
        let xs = List.init 37 (fun i -> i) in
        check
          Alcotest.(list int)
          "order" (List.map succ xs)
          (Pool.map_list (Pool.create ~jobs:4 ()) succ xs));
    test "the lowest task index's exception is re-raised" (fun () ->
        List.iter
          (fun jobs ->
            let p = Pool.create ~jobs () in
            match
              Pool.tasks p 64 (fun i ->
                  if i >= 17 then failwith (string_of_int i) else i)
            with
            | (_ : int array) -> Alcotest.fail "expected Failure"
            | exception Failure s ->
              check Alcotest.string (Fmt.str "%d jobs" jobs) "17" s)
          [ 1; 4 ]);
    test "create rejects a non-positive job count" (fun () ->
        List.iter
          (fun jobs ->
            match Pool.create ~jobs () with
            | (_ : Pool.t) -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ())
          [ 0; -3 ]);
    test "jobs accessor; sequential is single-worker" (fun () ->
        check Alcotest.int "sequential" 1 (Pool.jobs Pool.sequential);
        check Alcotest.int "create 5" 5 (Pool.jobs (Pool.create ~jobs:5 ())));
    test "every task is claimed exactly once under 4 workers" (fun () ->
        let p = Pool.create ~jobs:4 () in
        let claims = Array.make 64 0 in
        let (_ : unit array) =
          Pool.tasks p 64 (fun i ->
              (* each slot is claimed by exactly one worker, so this
                 non-atomic bump is private to the claimant *)
              claims.(i) <- claims.(i) + 1)
        in
        Array.iteri
          (fun i c -> check Alcotest.int (Fmt.str "task %d" i) 1 c)
          claims);
    test "tasks rejects a negative task count" (fun () ->
        List.iter
          (fun jobs ->
            match Pool.tasks (Pool.create ~jobs ()) (-1) (fun i -> i) with
            | (_ : int array) -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ())
          [ 1; 4 ]);
    test "fewer tasks than workers: every result lands" (fun () ->
        let p = Pool.create ~jobs:8 () in
        List.iter
          (fun n ->
            check
              Alcotest.(array int)
              (Fmt.str "%d tasks" n)
              (Array.init n (fun i -> 3 * i))
              (Pool.tasks p n (fun i -> 3 * i)))
          [ 1; 2; 3; 7 ]);
    test "one worker runs tasks in index order in the calling domain"
      (fun () ->
        let caller = Domain.self () in
        let order = ref [] in
        let (_ : unit array) =
          Pool.tasks (Pool.create ~jobs:1 ()) 10 (fun i ->
              if Domain.self () <> caller then Alcotest.fail "left the caller";
              order := i :: !order)
        in
        check Alcotest.(list int) "order" (List.init 10 Fun.id) (List.rev !order));
    test "a pool is reusable, also after a failing call" (fun () ->
        let p = Pool.create ~jobs:4 () in
        let expected = Array.init 40 (fun i -> i + 1) in
        for round = 1 to 5 do
          (match Pool.tasks p 40 (fun i -> if i = round then failwith "x" else i) with
          | (_ : int array) -> Alcotest.fail "expected Failure"
          | exception Failure _ -> ());
          check
            Alcotest.(array int)
            (Fmt.str "round %d" round) expected
            (Pool.tasks p 40 succ)
        done);
    test "map_list of the empty list is empty" (fun () ->
        check Alcotest.(list int) "empty" [] (Pool.map_list (Pool.create ~jobs:4 ()) succ []));
  ]

(* ---------------- work stealing ---------------- *)

(* Adversarially irregular task durations: busy-loop lengths drawn from
   the repo's xorshift, spanning several orders of magnitude, so the
   contiguous block deal is dominated by whichever worker drew the long
   tasks and idle workers must actually steal to finish early. *)
let busy_costs ~seed n =
  let s = ref (1 + (seed land 0x3FFFFFF)) in
  Array.init n (fun _ ->
      s := Npra_core.Rng.step !s;
      1 + (!s mod 3_000) * (if !s land 7 = 0 then 50 else 1))

(* A deterministic busy loop: the checksum makes the work irreducible
   and gives each task a value that would expose any misrouted result. *)
let spin k =
  let acc = ref 0 in
  for i = 1 to k do
    acc := (!acc + (i * i)) land 0xFFFFFF
  done;
  !acc

let stealing_tests =
  [
    test "irregular durations: results byte-identical at jobs 1/2/8"
      (fun () ->
        let costs = busy_costs ~seed:9 24 in
        let expected = Array.map spin costs in
        List.iter
          (fun jobs ->
            check
              Alcotest.(array int)
              (Fmt.str "%d jobs" jobs) expected
              (Pool.tasks (Pool.create ~jobs ()) 24 (fun i -> spin costs.(i))))
          [ 1; 2; 8 ]);
    prop ~count:5 "stealing is result-invariant (random irregular loads)"
      QCheck.(int_range 0 1_000_000)
      (fun seed ->
        let costs = busy_costs ~seed 16 in
        let expected = Array.map spin costs in
        Pool.tasks (Pool.create ~jobs:8 ()) 16 (fun i -> spin costs.(i))
        = expected);
    test "lowest-index exception wins under stealing at jobs 1/2/8" (fun () ->
        let costs = busy_costs ~seed:3 64 in
        List.iter
          (fun jobs ->
            let p = Pool.create ~jobs () in
            match
              Pool.tasks p 64 (fun i ->
                  let (_ : int) = spin costs.(i) in
                  if i >= 17 then failwith (string_of_int i) else i)
            with
            | (_ : int array) -> Alcotest.fail "expected Failure"
            | exception Failure s ->
              check Alcotest.string (Fmt.str "%d jobs" jobs) "17" s)
          [ 1; 2; 8 ]);
    test "steal_count: zero for a single worker" (fun () ->
        let solo = Pool.create ~jobs:1 () in
        let (_ : int array) = Pool.tasks solo 32 spin in
        check Alcotest.int "solo steals" 0 (Pool.steal_count solo));
    test "steal_count is cumulative and bounded by the tasks run" (fun () ->
        (* every heavy task sits in worker 0's block, so the other
           workers may steal; each steal runs one task, so a call of 16
           tasks adds at most 16 *)
        let costs = Array.init 16 (fun i -> if i < 4 then 200_000 else 1) in
        let p = Pool.create ~jobs:4 () in
        let (_ : int array) = Pool.tasks p 16 (fun i -> spin costs.(i)) in
        let c1 = Pool.steal_count p in
        let (_ : int array) = Pool.tasks p 16 (fun i -> spin costs.(i)) in
        let c2 = Pool.steal_count p in
        check Alcotest.bool "first call within bounds" true (c1 >= 0 && c1 <= 16);
        check Alcotest.bool "second call adds within bounds" true
          (c2 >= c1 && c2 - c1 <= 16));
  ]

(* ---------------- allocation cache ---------------- *)

let cache_progs ids =
  let sys = Registry.system (List.map Registry.find_exn ids) in
  (sys.progs, sys.spill_bases)

let cache_tests =
  [
    test "repeated allocation hits the cache" (fun () ->
        Pipeline.cache_clear ();
        let progs, spill_bases = cache_progs [ "crc32"; "url" ] in
        let b1 = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
        let s1 = Pipeline.cache_stats () in
        check Alcotest.int "one miss" 1 s1.Pipeline.misses;
        check Alcotest.int "no hit yet" 0 s1.Pipeline.hits;
        let b2 = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
        let s2 = Pipeline.cache_stats () in
        check Alcotest.int "one hit" 1 s2.Pipeline.hits;
        check Alcotest.int "still one miss" 1 s2.Pipeline.misses;
        check Alcotest.int "one entry" 1 s2.Pipeline.entries;
        (* The cached result is the original result. *)
        check Alcotest.bool "same provenance" true
          (b1.Pipeline.provenance = b2.Pipeline.provenance);
        check Alcotest.bool "same programs" true
          (List.for_all2
             (fun a b ->
               String.equal (Npra_ir.Prog.to_string a)
                 (Npra_ir.Prog.to_string b))
             b1.Pipeline.programs b2.Pipeline.programs));
    test "a hit is recorded in the trail with the original provenance"
      (fun () ->
        Pipeline.cache_clear ();
        let progs, spill_bases = cache_progs [ "route"; "frag" ] in
        let b1 = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
        check Alcotest.bool "first result carries no cache note" true
          (List.for_all
             (function
               | Pipeline.Cache_hit _ -> false
               | Pipeline.Rejected _ -> true)
             b1.Pipeline.trail);
        let b2 = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
        match
          List.filter_map
            (function
              | Pipeline.Cache_hit { stage; key } -> Some (stage, key)
              | Pipeline.Rejected _ -> None)
            b2.Pipeline.trail
        with
        | [ (stage, key) ] ->
          check Alcotest.bool "stage is the original provenance" true
            (stage = b1.Pipeline.provenance);
          check Alcotest.int "key is an MD5 hex digest" 32
            (String.length key)
        | notes ->
          Alcotest.failf "expected exactly one cache-hit note, got %d"
            (List.length notes));
    test "a config change misses" (fun () ->
        Pipeline.cache_clear ();
        let progs, spill_bases = cache_progs [ "crc32"; "url" ] in
        let (_ : Pipeline.balanced) =
          Pipeline.balanced_exn ~nreg:128 ~spill_bases progs
        in
        let (_ : Pipeline.balanced) =
          Pipeline.balanced_exn ~nreg:64 ~spill_bases progs
        in
        let (_ : Pipeline.balanced) =
          Pipeline.balanced_exn ~nreg:128 ~move_budget:3 ~spill_bases progs
        in
        let s = Pipeline.cache_stats () in
        check Alcotest.int "three distinct keys" 3 s.Pipeline.misses;
        check Alcotest.int "no hits" 0 s.Pipeline.hits);
    test "rejections filters cache notes out of a trail" (fun () ->
        let trail =
          [
            Pipeline.Rejected { stage = Pipeline.Balanced; reason = "x" };
            Pipeline.Cache_hit { stage = Pipeline.Balanced; key = "k" };
          ]
        in
        check Alcotest.int "one rejection" 1
          (List.length (Pipeline.rejections trail)));
  ]

(* ---------------- determinism across job counts ---------------- *)

let traffic_system ids =
  let sys = Registry.system ~iters:2 (List.map Registry.find_exn ids) in
  let bal =
    Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases sys.progs
  in
  (bal.Pipeline.programs, sys.mem_image)

(* Two whole dispatch runs, each one pool task: a plain dispatch (no
   watchdog) and a dispatch under chaos with the watchdog and shedding.
   Each yields its canonical JSON. *)
let dispatch_runs seed =
  let open Npra_traffic in
  let progs, mem_image = traffic_system [ "crc32"; "frag" ] in
  let refresh ~engine ~thread ~seq =
    [ (thread * 1024, (seed + (engine * 7) + seq) land 0xFFFF) ]
  in
  let specs =
    List.init 2 (fun _ ->
        {
          Workload.arrival = Workload.Uniform { period = 200 };
          queue_capacity = 4;
          per_packet_iters = 2;
        })
  in
  let dispatch ?chaos ?watchdog ?shed () =
    Metrics.to_json
      (Dispatch.run ~engines:3 ~sentinel:`Trap ~refresh ?chaos ?watchdog ?shed
         ~seed ~duration:4_000 ~specs ~mem_image progs)
  in
  let chaos =
    Chaos.schedule ~seed ~engines:3 ~threads:2 ~duration:4_000
      { Chaos.quiet with Chaos.crashes = 1; transient_hangs = 1; storms = 1;
        floods = 1 }
  in
  [ (fun () -> dispatch ());
    (fun () ->
      dispatch ~chaos ~watchdog:Dispatch.default_watchdog
        ~shed:{ Dispatch.quantum = 4; burst = 12 } ()) ]

(* Whole runs of every fabric kind: the two dispatch runs, an adaptive
   replay (a dispatch with an [Adapt] controller) and one packet
   chain. *)
let whole_runs seed =
  let chain =
    let stage id =
      { Npra_chip.Chain.st_kernel = Registry.find_exn id; st_width = 1;
        st_threads = 2; st_iters = 1 }
    in
    { Npra_chip.Chain.cf_stages =
        [ stage "l2l3fwd_rx"; stage "frag"; stage "l2l3fwd_tx" ];
      cf_arrival = Workload.Uniform { period = 90 };
      cf_sources = 2;
      cf_queue_capacity = 3;
      cf_quantum = 2;
      cf_slo_p99 = max_int }
  in
  dispatch_runs seed
  @ [ (fun () ->
      match
        Npra_fault.Adaptdriver.run_scenario ~seed ~quick:true "phase-shift"
      with
      | Some c -> Json.to_string (Npra_fault.Adaptdriver.cell_json c)
      | None -> Alcotest.fail "phase-shift scenario disappeared");
    (fun () ->
      Npra_chip.Chain.to_json
        (Npra_chip.Chain.run ~seed ~duration:8_000 chain)) ]

let fault_json ~jobs seed =
  let specs =
    List.map Registry.find_exn [ "crc32"; "url"; "route" ]
  in
  Npra_core.Json.to_string
    (Npra_fault.Driver.to_json
       (Npra_fault.Driver.run ~pool:(Pool.create ~jobs ()) ~seed ~specs ()))

(* Everything but the wall-clock observations must match. *)
let normalize_fuzz (s : Npra_fuzz.Fuzz.stats) =
  { s with Npra_fuzz.Fuzz.slowest_s = 0.; hangs = 0 }

let fuzz_stats ~jobs seed =
  normalize_fuzz
    (Npra_fuzz.Fuzz.run ~pool:(Pool.create ~jobs ()) ~seed ~count:150 ())

let determinism_tests =
  [
    test "whole traffic runs on the pool equal sequential runs at jobs 1/2/4"
      (fun () ->
        let run f = f () in
        List.iter
          (fun seed ->
            let runs = whole_runs seed in
            let sequential = List.map run runs in
            List.iter
              (fun jobs ->
                check
                  Alcotest.(list string)
                  (Fmt.str "seed %d, jobs %d" seed jobs)
                  sequential
                  (Pool.map_list (Pool.create ~jobs ()) run runs))
              [ 1; 2; 4 ])
          [ 1; 42 ]);
    prop ~count:3 "whole dispatch runs are pool-invariant (random seeds)"
      QCheck.(int_range 0 1_000_000)
      (fun seed ->
        let runs = dispatch_runs seed in
        List.map (fun f -> f ()) runs
        = Pool.map_list (Pool.create ~jobs:4 ()) (fun f -> f ()) runs);
    test "fault matrix JSON is byte-identical at jobs=1 and jobs=4"
      (fun () ->
        check Alcotest.string "seed 7" (fault_json ~jobs:1 7)
          (fault_json ~jobs:4 7));
    test "fuzz stats are jobs-invariant modulo wall clock" (fun () ->
        List.iter
          (fun seed ->
            check Alcotest.bool (Fmt.str "seed %d" seed) true
              (fuzz_stats ~jobs:1 seed = fuzz_stats ~jobs:4 seed))
          [ 42; 7 ]);
    test "contenders returns the same pair at jobs=1 and jobs=4" (fun () ->
        let progs, spill_bases = cache_progs [ "crc32"; "url" ] in
        let pair jobs =
          Pipeline.cache_clear ();
          let base, bal =
            Pipeline.contenders
              ~pool:(Pool.create ~jobs ())
              ~nreg:128 ~spill_bases progs
          in
          let bal =
            match bal with
            | Ok b -> b
            | Error _ -> Alcotest.fail "balanced failed"
          in
          ( List.map Npra_ir.Prog.to_string base.Pipeline.base_programs,
            List.map Npra_ir.Prog.to_string bal.Pipeline.programs,
            bal.Pipeline.provenance )
        in
        check Alcotest.bool "identical" true (pair 1 = pair 4));
  ]

let suite =
  [
    ("par.pool", pool_tests);
    ("par.stealing", stealing_tests);
    ("par.cache", cache_tests);
    ("par.determinism", determinism_tests);
  ]
