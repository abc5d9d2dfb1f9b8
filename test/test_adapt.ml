(* Tests for the adaptive re-allocation control loop: the hysteresis
   bound as a closed form and as a qcheck property under random traffic
   churn, the weighted register partition that implements a re-balance,
   the criticality score's strict priority order, and a golden
   re-balance trail for the mix-churn scenario. *)

open Npra_regalloc
open Npra_workloads
open Npra_core
open Npra_traffic
open Npra_fault

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------------- hysteresis bound, closed form ---------------- *)

let bound_tests =
  [
    test "max_rebalances: pinned values" (fun () ->
        let b ~slices ~min_dwell = Adapt.max_rebalances ~slices ~min_dwell in
        (* min_dwell * (2^k - 1) <= slices *)
        check Alcotest.int "19 slices, dwell 3" 2 (b ~slices:19 ~min_dwell:3);
        check Alcotest.int "39 slices, dwell 6" 2 (b ~slices:39 ~min_dwell:6);
        check Alcotest.int "21 slices, dwell 3" 3 (b ~slices:21 ~min_dwell:3);
        check Alcotest.int "no slices, no swaps" 0 (b ~slices:0 ~min_dwell:3);
        check Alcotest.int "1023 slices, dwell 1" 10
          (b ~slices:1023 ~min_dwell:1));
    test "max_rebalances: tight and monotone" (fun () ->
        for slices = 0 to 200 do
          List.iter
            (fun min_dwell ->
              let k = Adapt.max_rebalances ~slices ~min_dwell in
              (* k is feasible... *)
              Alcotest.(check bool) "feasible" true
                (min_dwell * ((1 lsl k) - 1) <= slices);
              (* ...and k+1 is not. *)
              Alcotest.(check bool) "tight" true
                (min_dwell * ((1 lsl (k + 1)) - 1) > slices);
              (* one more slice can only help *)
              Alcotest.(check bool) "monotone in slices" true
                (Adapt.max_rebalances ~slices:(slices + 1) ~min_dwell >= k))
            [ 1; 2; 3; 6; 10 ]
        done);
  ]

(* ---------------- weighted partition ---------------- *)

let partition_tests =
  [
    test "weighted_partition: critical thread gets the spare registers"
      (fun () ->
        let l = Assign.weighted_partition ~nreg:24 ~weights:[ 8; 1; 1; 1 ] in
        check
          Alcotest.(array int)
          "sizes" [| 12; 4; 4; 4 |] l.Assign.private_size;
        check Alcotest.int "nothing shared" 0 l.Assign.sgr;
        (* blocks are packed in thread order *)
        check Alcotest.(array int) "bases" [| 0; 12; 16; 20 |]
          l.Assign.private_base);
    test "weighted_partition: equal weights match the fixed partition"
      (fun () ->
        let w = Assign.weighted_partition ~nreg:24 ~weights:[ 1; 1; 1; 1 ] in
        let f = Assign.fixed_partition ~nreg:24 ~nthd:4 in
        check
          Alcotest.(array int)
          "sizes" f.Assign.private_size w.Assign.private_size);
    test "weighted_partition: every thread keeps a floor share" (fun () ->
        let l =
          Assign.weighted_partition ~nreg:32 ~weights:[ 1000; 1; 1; 1 ]
        in
        Array.iter
          (fun s ->
            Alcotest.(check bool) "at least half the equal share" true (s >= 4))
          l.Assign.private_size;
        check Alcotest.int "sum fills the file" 32
          (Array.fold_left ( + ) 0 l.Assign.private_size));
  ]

(* ---------------- criticality score ---------------- *)

let score_tests =
  [
    test "score: drops dominate queue dominates wait" (fun () ->
        let drop = Adapt.score ~d_dropped:1 ~d_served:50 ~d_wait:0 ~queue:0 in
        let queue =
          Adapt.score ~d_dropped:0 ~d_served:50 ~d_wait:0 ~queue:50
        in
        let wait =
          Adapt.score ~d_dropped:0 ~d_served:50 ~d_wait:40_000 ~queue:0
        in
        Alcotest.(check bool) "one drop beats a deep queue" true (drop > queue);
        Alcotest.(check bool) "queue beats wait" true (queue > wait);
        Alcotest.(check bool) "wait still counts" true (wait > 0));
    test "score: wait is averaged over the window's served packets"
      (fun () ->
        let busy =
          Adapt.score ~d_dropped:0 ~d_served:100 ~d_wait:10_000 ~queue:0
        in
        let slow =
          Adapt.score ~d_dropped:0 ~d_served:10 ~d_wait:10_000 ~queue:0
        in
        Alcotest.(check bool) "same wait, fewer served => more critical" true
          (slow > busy));
  ]

(* ---------------- qcheck: hysteresis bounds swaps under churn -------- *)

(* The same four-kernel system the adaptive matrix uses, but driven by
   seed-derived arrival mixes the controller has never been tuned for.
   Whatever the traffic does, the committed re-balance count must stay
   within the closed-form bound and packets must conserve exactly. *)
let churn_system =
  lazy
    (let sys =
       Registry.system ~iters:1
         (List.map Registry.find_exn [ "crc32"; "frag"; "url"; "route" ])
     in
     (sys.progs, sys.mem_image, sys.spill_bases))

let churn_duration = 10_240 (* 10 slices *)

(* tiny deterministic generator so the arrival mix is a pure function
   of the qcheck seed *)
let mix_of_seed seed =
  let r = ref (seed lor 1) in
  let next bound =
    r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
    !r mod bound
  in
  List.init 4 (fun _ ->
      let arrival =
        match next 3 with
        | 0 -> Workload.Uniform { period = 60 + next 600 }
        | 1 ->
            Workload.Bursty
              {
                on_cycles = 1_000 + next 3_000;
                off_cycles = 1_000 + next 3_000;
                period = 60 + next 400;
              }
        | _ ->
            let from_cycle = next churn_duration in
            Workload.Windowed
              {
                from_cycle;
                until_cycle = from_cycle + 1_000 + next churn_duration;
                inner = Workload.Uniform { period = 60 + next 400 };
              }
      in
      { Workload.arrival; queue_capacity = 4 + next 8; per_packet_iters = 1 })

let churn_run seed =
  let progs, mem_image, spill_bases = Lazy.force churn_system in
  let bal = Pipeline.balanced_exn ~nreg:24 ~spill_bases progs in
  let config =
    {
      Adapt.nreg = 24;
      spill_bases = Some spill_bases;
      (* the most trigger-happy controller we allow: every slice is a
         decision point and there is no score floor, so only the
         exponential cool-down stands between it and thrashing *)
      window = 1;
      min_dwell = 1;
      margin_pct = 0;
      min_score = 0;
    }
  in
  let adapt = Adapt.create ~config progs in
  let m =
    Dispatch.run ~engines:2 ~sentinel:`Trap
      ~controller:(Adapt.controller adapt) ~seed ~duration:churn_duration
      ~specs:(mix_of_seed seed) ~mem_image bal.Pipeline.programs
  in
  (adapt, m)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:10
         ~name:"qcheck: hysteresis bounds re-balances under random churn"
         QCheck.(int_range 0 1_000_000)
         (fun seed ->
           let adapt, m = churn_run seed in
           let bound =
             Adapt.max_rebalances
               ~slices:(churn_duration / 1024)
               ~min_dwell:1
           in
           Adapt.rebalance_count adapt <= bound
           && Adapt.alloc_failures adapt = 0
           && Metrics.conservation_ok m));
  ]

(* ---------------- golden re-balance trail ---------------- *)

let mix_churn = lazy (
  match Adaptdriver.run_scenario ~seed:42 ~quick:true "mix-churn" with
  | Some cell -> cell
  | None -> Alcotest.fail "mix-churn scenario disappeared")

let golden_tests =
  [
    test "golden: mix-churn re-balance trail is pinned" (fun () ->
        let c = Lazy.force mix_churn in
        check Alcotest.int "re-balances" 2 c.Adaptdriver.c_rebalances;
        check Alcotest.int "hysteresis bound" 2 c.Adaptdriver.c_bound;
        check Alcotest.int "no allocation failures" 0
          c.Adaptdriver.c_alloc_failures;
        match c.Adaptdriver.c_swaps with
        | [ s1; s2 ] ->
            check Alcotest.int "swap 1 slice" 4 s1.Adapt.sw_slice;
            check Alcotest.int "swap 1 cycle" 4_096 s1.Adapt.sw_cycle;
            check Alcotest.int "swap 1 critical" 2 s1.Adapt.sw_critical;
            check Alcotest.int "swap 1 dwell" 4 s1.Adapt.sw_dwell;
            check Alcotest.int "swap 1 required dwell" 3
              s1.Adapt.sw_required_dwell;
            check Alcotest.string "swap 1 provenance" "fixed-partition chaitin"
              s1.Adapt.sw_provenance;
            check Alcotest.int "swap 2 slice" 12 s2.Adapt.sw_slice;
            check Alcotest.int "swap 2 cycle" 12_288 s2.Adapt.sw_cycle;
            check Alcotest.int "swap 2 critical" 3 s2.Adapt.sw_critical;
            check
              Alcotest.(option int)
              "swap 2 displaces swap 1's pick" (Some 2) s2.Adapt.sw_previous;
            check Alcotest.int "swap 2 dwell" 8 s2.Adapt.sw_dwell;
            check Alcotest.int "swap 2 required dwell" 6
              s2.Adapt.sw_required_dwell
        | sw ->
            Alcotest.failf "expected exactly 2 swaps, got %d" (List.length sw));
    test "golden: mix-churn adaptive beats static on the churning threads"
      (fun () ->
        let c = Lazy.force mix_churn in
        let st = c.Adaptdriver.c_static and ad = c.Adaptdriver.c_adaptive in
        check Alcotest.int "static critical served" 139
          st.Adaptdriver.r_crit_served;
        check Alcotest.int "adaptive critical served" 188
          ad.Adaptdriver.r_crit_served;
        check
          Alcotest.(array int)
          "static per-thread" [| 15; 16; 75; 64 |]
          st.Adaptdriver.r_thread_served;
        check
          Alcotest.(array int)
          "adaptive per-thread" [| 15; 16; 120; 68 |]
          ad.Adaptdriver.r_thread_served;
        Alcotest.(check bool) "cell verdict" true c.Adaptdriver.c_ok);
    test "golden: flood on a non-critical thread never steals the regs"
      (fun () ->
        match Adaptdriver.run_scenario ~seed:42 ~quick:true "flood-noncrit" with
        | None -> Alcotest.fail "flood-noncrit scenario disappeared"
        | Some c ->
            Alcotest.(check bool) "cell verdict" true c.Adaptdriver.c_ok;
            List.iter
              (fun s ->
                check Alcotest.int "critical stays thread 0" 0
                  s.Adapt.sw_critical)
              c.Adaptdriver.c_swaps);
    test "the quick matrix equals its scenarios run as 4-job pool tasks"
      (fun () ->
        let cells m =
          List.map
            (fun c -> Npra_core.Json.to_string (Adaptdriver.cell_json c))
            m.Adaptdriver.m_cells
        in
        let matrix = cells (Adaptdriver.run ~seed:42 ~quick:true ()) in
        let scenario name =
          match Adaptdriver.run_scenario ~seed:42 ~quick:true name with
          | Some c -> Npra_core.Json.to_string (Adaptdriver.cell_json c)
          | None -> Alcotest.failf "scenario %s disappeared" name
        in
        check
          Alcotest.(list string)
          "identical cells" matrix
          (Npra_par.Pool.map_list
             (Npra_par.Pool.create ~jobs:4 ())
             scenario Adaptdriver.scenario_names));
    test "a seeded scenario prints the same cell twice in one process"
      (fun () ->
        (* the first run starts from an empty process-wide allocation
           cache and the second finds every allocation in it; nothing
           in the cell may show that *)
        Npra_core.Pipeline.cache_clear ();
        let cell () =
          match Adaptdriver.run_scenario ~seed:42 ~quick:true "phase-shift" with
          | Some c -> Npra_core.Json.to_string (Adaptdriver.cell_json c)
          | None -> Alcotest.fail "scenario phase-shift disappeared"
        in
        let first = cell () in
        check Alcotest.string "same cell JSON" first (cell ()));
  ]

let suite =
  [
    ("adapt.hysteresis", bound_tests @ qcheck_tests);
    ("adapt.partition", partition_tests);
    ("adapt.score", score_tests);
    ("adapt.golden", golden_tests);
  ]
