(* Tests for the full-chip fabric: tiered-memory semantics (a one-tier
   hierarchy is cycle-equal to the classic flat latency, and slower
   tiers really cost cycles), the shard spreader's partition and exact
   conservation across random seeds and shard counts (qcheck), the
   chain's bounded-queue back-pressure invariant under deliberate
   oversubscription, and jobs-count determinism of the whole quick chip
   matrix JSON. *)

open Npra_sim
open Npra_workloads
open Npra_chip

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------------- tiered memory ---------------- *)

let instantiate ids =
  let sys = Registry.system (List.map Registry.find_exn ids) in
  let bal =
    Npra_core.Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases
      sys.progs
  in
  (bal.Npra_core.Pipeline.programs, sys.mem_image)

let memory_tests =
  [
    test "one-tier hierarchy is cycle-equal to the flat latency" (fun () ->
        let progs, mem_image = instantiate [ "md5"; "url" ] in
        List.iter
          (fun latency ->
            let flat_config =
              { Machine.default_config with mem_latency = latency }
            in
            let tiered_config =
              {
                flat_config with
                (* mem_latency deliberately bogus: tiers must win *)
                mem_latency = latency + 13;
                tiers = Some (Memory.flat ~latency);
              }
            in
            let cycles config =
              Machine.cycle (Machine.run ~config ~mem_image progs)
            in
            check Alcotest.int
              (Fmt.str "latency %d" latency)
              (cycles flat_config) (cycles tiered_config))
          [ 0; 3; 20; 45 ]);
    test "slower tiers cost cycles" (fun () ->
        let progs, mem_image = instantiate [ "route" ] in
        let cycles tiers =
          Machine.cycle
            (Machine.run
               ~config:{ Machine.default_config with tiers = Some tiers }
               ~mem_image progs)
        in
        let fast = cycles (Memory.flat ~latency:3) in
        let slow =
          cycles
            (Memory.scratch_sram_sdram ~scratch_words:16 ~sram_words:64
               ~scratch_latency:3 ~sram_latency:20 ~sdram_latency:60)
        in
        Alcotest.(check bool)
          (Fmt.str "SDRAM run slower (%d vs %d)" slow fast)
          true (slow > fast));
    test "tier_index respects limits" (fun () ->
        let h =
          Memory.scratch_sram_sdram ~scratch_words:256 ~sram_words:1792
            ~scratch_latency:6 ~sram_latency:20 ~sdram_latency:45
        in
        check Alcotest.int "scratch" 6 (Memory.latency h 0);
        check Alcotest.int "scratch end" 6 (Memory.latency h 255);
        check Alcotest.int "sram begin" 20 (Memory.latency h 256);
        check Alcotest.int "sram end" 20 (Memory.latency h 2047);
        check Alcotest.int "sdram" 45 (Memory.latency h 2048);
        check Alcotest.int "sdram far" 45 (Memory.latency h 10_000_000));
    test "tiered rejects malformed hierarchies" (fun () ->
        let tier n l lat =
          { Memory.tier_name = n; tier_limit = l; tier_latency = lat }
        in
        let rejects tiers =
          match Memory.tiered tiers with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"
        in
        rejects [];
        rejects [ tier "a" 16 (-1) ];
        rejects [ tier "a" 16 5; tier "b" 16 9 ];
        rejects [ tier "a" 32 5; tier "b" 16 9 ]);
  ]

(* ---------------- shard spreader + conservation (qcheck) ------- *)

(* One shared small workload; the property re-runs the chip at random
   (seed, engines, shards). *)
let shard_fixture =
  lazy
    (let sys =
       Registry.system ~iters:1 (List.map Registry.find_exn [ "crc32"; "url" ])
     in
     let bal =
       Npra_core.Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases
         sys.progs
     in
     let specs =
       List.map
         (fun _ ->
           {
             Workload.arrival = Workload.Uniform { period = 400 };
             queue_capacity = 4;
             per_packet_iters = 1;
           })
         sys.workloads
     in
     (bal.Npra_core.Pipeline.programs, sys.mem_image, specs))

let shard_qcheck =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:12
         ~name:"chip conserves packets at any (seed, engines, shards)"
         QCheck.(
           triple (int_range 0 1_000_000) (int_range 1 12) (int_range 1 5))
         (fun (seed, engines, shards) ->
           let progs, mem_image, specs = Lazy.force shard_fixture in
           let t =
             Shard.run ~seed ~engines ~shards ~duration:3_000 ~specs
               ~mem_image progs
           in
           let spread = Shard.spread ~seed ~engines ~shards in
           Array.for_all (fun s -> s >= 0 && s < shards) spread
           && List.length t.Shard.c_runs = shards
           && (* every engine lands in exactly the shard the spreader
                 names: member lists partition the engine set *)
           List.for_all
             (fun r ->
               List.for_all
                 (fun e -> spread.(e) = r.Shard.sr_shard)
                 r.Shard.sr_members)
             t.Shard.c_runs
           && List.fold_left
                (fun acc r -> acc + List.length r.Shard.sr_members)
                0 t.Shard.c_runs
              = engines
           && Shard.conservation_ok t
           && (Shard.totals t).Shard.t_offered > 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:6
         ~name:"chip conserves packets under chaos across shards"
         QCheck.(pair (int_range 0 1_000_000) (int_range 2 4))
         (fun (seed, shards) ->
           let progs, mem_image, specs = Lazy.force shard_fixture in
           let t =
             Shard.run ~seed ~engines:6 ~shards ~duration:4_000
               ~chaos_spec:
                 {
                   Npra_traffic.Chaos.quiet with
                   Npra_traffic.Chaos.crashes = 1;
                   transient_hangs = 1;
                 }
               ~specs ~mem_image progs
           in
           Shard.conservation_ok t));
  ]

let shard_tests =
  [
    test "spread rejects empty chips" (fun () ->
        let rejects f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"
        in
        rejects (fun () -> Shard.spread ~seed:1 ~engines:0 ~shards:2);
        rejects (fun () -> Shard.spread ~seed:1 ~engines:4 ~shards:0));
    test "spread is deterministic and reasonably balanced" (fun () ->
        let a = Shard.spread ~seed:7 ~engines:64 ~shards:8 in
        let b = Shard.spread ~seed:7 ~engines:64 ~shards:8 in
        check Alcotest.(array int) "replays" a b;
        let counts = Array.make 8 0 in
        Array.iter (fun s -> counts.(s) <- counts.(s) + 1) a;
        (* no empty shard and no shard hoarding half the chip *)
        Array.iteri
          (fun s c ->
            Alcotest.(check bool)
              (Fmt.str "shard %d has %d engines" s c)
              true
              (c > 0 && c < 32))
          counts);
  ]

(* ---------------- chain back-pressure ---------------- *)

let chain_config ~period =
  let stage id width =
    {
      Chain.st_kernel = Registry.find_exn id;
      st_width = width;
      st_threads = 2;
      st_iters = 1;
    }
  in
  {
    Chain.cf_stages =
      [ stage "l2l3fwd_rx" 1; stage "frag" 1; stage "l2l3fwd_tx" 1 ];
    cf_arrival = Workload.Uniform { period };
    cf_sources = 2;
    cf_queue_capacity = 3;
    cf_quantum = 2;
    cf_slo_p99 = max_int;
  }

let chain_tests =
  [
    test "oversubscribed chain: queues bounded, conservation exact" (fun () ->
        (* period 40 against a service time in the hundreds: the
           ingress floods, so back-pressure and the queue bound carry
           the whole load. *)
        let t = Chain.run ~seed:11 ~duration:30_000 (chain_config ~period:40) in
        Alcotest.(check bool) "served some" true (t.Chain.ch_served > 0);
        Alcotest.(check bool) "dropped some" true (t.Chain.ch_dropped > 0);
        Alcotest.(check bool)
          (Fmt.str "max queue %d within capacity %d" t.Chain.ch_max_queue
             t.Chain.ch_queue_capacity)
          true
          (t.Chain.ch_max_queue <= t.Chain.ch_queue_capacity);
        Alcotest.(check bool) "conservation" true (Chain.conservation_ok t);
        (* every stage handled exactly what the next one consumed or
           still holds: stage handled counts are monotone down the
           chain *)
        let handled =
          List.map (fun s -> s.Chain.sm_handled) t.Chain.ch_stages
        in
        Alcotest.(check bool)
          (Fmt.str "monotone handled %a" Fmt.(Dump.list int) handled)
          true
          (match handled with
          | rx :: rest -> List.for_all (fun h -> h <= rx) rest
          | [] -> false));
    test "chain replays byte-identically" (fun () ->
        let run () =
          Chain.to_json
            (Chain.run ~seed:5 ~duration:15_000 (chain_config ~period:90))
        in
        check Alcotest.string "same JSON" (run ()) (run ()));
    test "run rejects a chain without stages or sources" (fun () ->
        let cf = chain_config ~period:90 in
        let run cf () = ignore (Chain.run ~seed:1 ~duration:1_000 cf) in
        Alcotest.check_raises "no stages"
          (Invalid_argument "Chain.run: no stages")
          (run { cf with Chain.cf_stages = [] });
        Alcotest.check_raises "no sources"
          (Invalid_argument "Chain.run: no sources")
          (run { cf with Chain.cf_sources = 0 }));
    test "chains run as 4-job pool tasks equal sequential runs" (fun () ->
        let run seed =
          Chain.to_json
            (Chain.run ~seed ~duration:8_000 (chain_config ~period:90))
        in
        let seeds = [ 3; 5; 11 ] in
        check
          Alcotest.(list string)
          "same JSON" (List.map run seeds)
          (Npra_par.Pool.map_list (Npra_par.Pool.create ~jobs:4 ()) run seeds));
  ]

(* ---------------- jobs determinism of the matrix ---------------- *)

let determinism_tests =
  [
    test "quick chip matrix byte-identical at 1 vs 4 jobs" (fun () ->
        let matrix pool =
          Npra_core.Json.to_string
            (Driver.to_json (Driver.run ~pool ~seed:42 ~quick:true ()))
        in
        let j1 = matrix Npra_par.Pool.sequential in
        let pool4 = Npra_par.Pool.create ~jobs:4 () in
        let j4 = matrix pool4 in
        check Alcotest.string "identical JSON" j1 j4);
  ]

(* ---------------- solo calibration ---------------- *)

(* The solo service times that size the shard cell's saturating
   arrivals: pinned, under the chip hierarchy and the flat default. *)
let solo_tests =
  [
    test "solo service times of the shard mix are pinned" (fun () ->
        let sys =
          Registry.system ~iters:1
            (List.map Registry.find_exn [ "md5"; "crc32"; "url"; "route" ])
        in
        let base =
          (Npra_core.Pipeline.baseline ~nreg:128 ~spill_bases:sys.spill_bases
             sys.progs)
            .Npra_core.Pipeline.base_programs
        in
        check
          Alcotest.(list int)
          "chip hierarchy" [ 1460; 119; 488; 251 ]
          (Npra_traffic.Arrival.solo_service ~config:Driver.chip_machine_config
             sys base);
        check
          Alcotest.(list int)
          "flat default" [ 1740; 119; 263; 126 ]
          (Npra_traffic.Arrival.solo_service sys base));
  ]

let suite =
  [
    ("chip.solo", solo_tests);
    ("chip.memory", memory_tests);
    ("chip.shard", shard_tests @ shard_qcheck);
    ("chip.chain", chain_tests);
    ("chip.determinism", determinism_tests);
  ]
