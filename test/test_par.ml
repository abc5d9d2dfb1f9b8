(* Tests for the multicore execution engine: the domain pool's
   deterministic task-indexed semantics, the content-addressed
   allocation cache, and the cross-subsystem determinism contract —
   every pool-aware entry point (traffic dispatch, fault matrix, fuzz
   harness, contenders) must produce identical results at any job
   count. *)

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
    test "irregular durations: results byte-identical at jobs 1/2/8, both \
          strategies"
      (fun () ->
        let costs = busy_costs ~seed:9 24 in
        let expected = Array.map spin costs in
        List.iter
          (fun strategy ->
            List.iter
              (fun jobs ->
                let p = Pool.create ~jobs ~strategy () in
                check
                  Alcotest.(array int)
                  (Fmt.str "%s, %d jobs"
                     (match strategy with `Fixed -> "fixed" | `Steal -> "steal")
                     jobs)
                  expected
                  (Pool.tasks p 24 (fun i -> spin costs.(i))))
              [ 1; 2; 8 ])
          [ `Fixed; `Steal ]);
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
            let p = Pool.create ~jobs ~strategy:`Steal () in
            match
              Pool.tasks p 64 (fun i ->
                  let (_ : int) = spin costs.(i) in
                  if i >= 17 then failwith (string_of_int i) else i)
            with
            | (_ : int array) -> Alcotest.fail "expected Failure"
            | exception Failure s ->
              check Alcotest.string (Fmt.str "%d jobs" jobs) "17" s)
          [ 1; 2; 8 ]);
    test "steal_count: zero for fixed pools and single workers" (fun () ->
        let fixed = Pool.create ~jobs:4 ~strategy:`Fixed () in
        let (_ : int array) = Pool.tasks fixed 32 spin in
        check Alcotest.int "fixed steals" 0 (Pool.steal_count fixed);
        let solo = Pool.create ~jobs:1 () in
        let (_ : int array) = Pool.tasks solo 32 spin in
        check Alcotest.int "solo steals" 0 (Pool.steal_count solo);
        check Alcotest.bool "strategy accessor" true
          (Pool.strategy fixed = `Fixed && Pool.strategy solo = `Steal));
  ]

(* ---------------- the virtual-time scheduling model ---------------- *)

let sum = Array.fold_left ( + ) 0

let plan_tests =
  [
    prop ~count:30 "steal makespan never exceeds fixed makespan"
      QCheck.(pair (int_range 0 1_000_000) (int_range 2 8))
      (fun (seed, jobs) ->
        let costs = busy_costs ~seed 16 in
        (Pool.plan ~strategy:`Steal ~jobs ~costs).Pool.p_makespan
        <= (Pool.plan ~strategy:`Fixed ~jobs ~costs).Pool.p_makespan);
    prop ~count:30 "plans conserve work and respect lower bounds"
      QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
      (fun (seed, jobs) ->
        let costs = busy_costs ~seed 12 in
        let total = sum costs and longest = Array.fold_left max 0 costs in
        List.for_all
          (fun strategy ->
            let p = Pool.plan ~strategy ~jobs ~costs in
            sum p.Pool.p_worker_busy = total
            && p.Pool.p_makespan >= longest
            && p.Pool.p_makespan * min jobs (Array.length costs) >= total)
          [ `Fixed; `Steal ]);
    test "a single worker's plan is the serial schedule" (fun () ->
        let costs = busy_costs ~seed:5 10 in
        List.iter
          (fun strategy ->
            let p = Pool.plan ~strategy ~jobs:1 ~costs in
            check Alcotest.int "makespan" (sum costs) p.Pool.p_makespan;
            check Alcotest.int "steals" 0 p.Pool.p_steals)
          [ `Fixed; `Steal ]);
    test "stealing visibly beats the fixed deal on a lopsided load" (fun () ->
        (* all the heavy tasks land in worker 0's block: fixed serializes
           them; stealing spreads them across the idle workers *)
        let costs =
          Array.init 16 (fun i -> if i < 4 then 900 else 1)
        in
        let fixed = Pool.plan ~strategy:`Fixed ~jobs:4 ~costs in
        let steal = Pool.plan ~strategy:`Steal ~jobs:4 ~costs in
        check Alcotest.int "fixed serializes the heavy block" 3600
          fixed.Pool.p_makespan;
        Alcotest.(check bool) "steals happened" true (steal.Pool.p_steals > 0);
        Alcotest.(check bool) "at least 2x better" true
          (2 * steal.Pool.p_makespan <= fixed.Pool.p_makespan));
    test "plan is a pure function of its inputs" (fun () ->
        let costs = busy_costs ~seed:11 20 in
        let p1 = Pool.plan ~strategy:`Steal ~jobs:4 ~costs in
        let p2 = Pool.plan ~strategy:`Steal ~jobs:4 ~costs in
        Alcotest.(check bool) "identical" true (p1 = p2));
    test "plan rejects bad inputs" (fun () ->
        (match Pool.plan ~strategy:`Steal ~jobs:0 ~costs:[| 1 |] with
        | (_ : Pool.plan) -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        match Pool.plan ~strategy:`Fixed ~jobs:2 ~costs:[| 1; -3 |] with
        | (_ : Pool.plan) -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

(* ---------------- allocation cache ---------------- *)

let cache_progs ids =
  let ws =
    List.mapi
      (fun i id -> Registry.instantiate (Registry.find_exn id) ~slot:i)
      ids
  in
  ( List.map (fun w -> w.Workload.prog) ws,
    List.map Workload.spill_base ws )

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
  let ws =
    List.mapi
      (fun i id ->
        Registry.instantiate (Registry.find_exn id) ~slot:i ~iters:2)
      ids
  in
  let progs = List.map (fun w -> w.Workload.prog) ws in
  let mem_image = List.concat_map (fun w -> w.Workload.mem_image) ws in
  let spill_bases = List.map Workload.spill_base ws in
  let bal = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
  (bal.Pipeline.programs, mem_image)

let dispatch_json ~jobs seed =
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
  Metrics.to_json
    (Dispatch.run
       ~pool:(Pool.create ~jobs ())
       ~engines:4 ~sentinel:`Trap ~refresh ~seed ~duration:4_000 ~specs
       ~mem_image progs)

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
    test "dispatch metrics are byte-identical at jobs=1 and jobs=4"
      (fun () ->
        List.iter
          (fun seed ->
            check Alcotest.string (Fmt.str "seed %d" seed)
              (dispatch_json ~jobs:1 seed)
              (dispatch_json ~jobs:4 seed))
          [ 1; 42 ]);
    prop ~count:5 "dispatch metrics are jobs-invariant (random seeds)"
      QCheck.(int_range 0 1_000_000)
      (fun seed ->
        String.equal (dispatch_json ~jobs:1 seed) (dispatch_json ~jobs:4 seed));
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
    ("par.plan", plan_tests);
    ("par.cache", cache_tests);
    ("par.determinism", determinism_tests);
  ]
