(* Tests for where the dispatcher pauses an engine: only at halts, at
   arrivals for idle ports and near slice ends, with the sentinel off
   or armed. On a safe allocation the sentinel never fires, so the two
   must agree byte for byte: a qcheck differential over traffic, queue,
   shedding, chaos, controller, engine-count and switch-cost settings.
   Golden digests pin both sides against a change that would shift
   them together. Armed runs that do trap are pinned in
   [test_trapping.ml]. *)

open Npra_sim
open Npra_workloads
open Npra_core
open Npra_traffic
open Npra_chip

let test name f = Alcotest.test_case name `Quick f

let instantiate ids = Registry.system ~iters:1 (List.map Registry.find_exn ids)

(* Pre-allocation programs at 24 registers (the adaptive matrix's mix),
   so a controller's re-balances change what each engine runs. *)
let mix =
  lazy
    (let { Registry.progs; mem_image; spill_bases; _ } =
       instantiate [ "crc32"; "frag"; "url"; "route" ]
     in
     let bal = Pipeline.balanced_exn ~nreg:24 ~spill_bases progs in
     (progs, bal.Pipeline.programs, mem_image, spill_bases))

let refresh ~engine ~thread ~seq =
  [ ((thread * 1024) + 7, (engine + (thread * 5) + (seq * 3)) land 0xFFFF) ]

(* ---------------- the differential ---------------- *)

type case = {
  cost : int;
  engines : int;
  duration : int;
  specs : Workload.traffic_spec list;
  shed : Dispatch.shed option;
  chaos : Chaos.spec option;
  adapt : bool;
}

(* Every setting is a pure function of the qcheck seed. *)
let case_of_seed seed =
  let r = ref (seed lor 1) in
  let next bound =
    r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
    (!r lsr 4) mod bound
  in
  let duration =
    let d = 2_000 + next 6_000 in
    if d mod 1024 = 0 then d + 1 else d
  in
  let period lo span = lo + next span in
  let specs =
    List.init 4 (fun _ ->
        let arrival =
          match next 4 with
          | 0 -> Workload.Uniform { period = period 10 400 }
          | 1 -> Workload.Poisson { mean_period = period 10 400 }
          | 2 ->
            Workload.Bursty
              {
                on_cycles = period 100 1_500;
                off_cycles = period 100 1_500;
                period = period 5 200;
              }
          | _ ->
            let from_cycle = next duration in
            Workload.Windowed
              {
                from_cycle;
                until_cycle = from_cycle + period 300 duration;
                inner = Workload.Uniform { period = period 10 300 };
              }
        in
        { Workload.arrival; queue_capacity = 1 + next 8; per_packet_iters = 1 })
  in
  let shed =
    if next 2 = 0 then None
    else Some { Dispatch.quantum = 1 + next 4; burst = 1 + next 8 }
  in
  let chaos =
    if next 3 = 0 then None
    else
      Some
        {
          Chaos.quiet with
          Chaos.crashes = next 2;
          transient_hangs = next 2;
          permanent_hangs = next 2;
          floods = next 3;
        }
  in
  {
    cost = next 4;
    engines = 1 + next 4;
    duration;
    specs;
    shed;
    chaos;
    adapt = next 4 = 0;
  }

let run_case ~seed ~sentinel c =
  let progs, bal, mem_image, spill_bases = Lazy.force mix in
  Pipeline.cache_clear ();
  let controller =
    if c.adapt then
      Some
        (Adapt.controller
           (Adapt.create
              ~config:
                {
                  Adapt.nreg = 24;
                  spill_bases = Some spill_bases;
                  window = 1;
                  min_dwell = 1;
                  margin_pct = 0;
                  min_score = 0;
                }
              progs))
    else None
  in
  let chaos =
    Option.map
      (fun spec ->
        Chaos.schedule ~seed ~engines:c.engines ~threads:4 ~duration:c.duration
          spec)
      c.chaos
  in
  Dispatch.run ~engines:c.engines ~sentinel
     ~machine_config:
       {
         Machine.default_config with
         Machine.max_cycles = max_int;
         ctx_switch_cost = c.cost;
       }
     ~refresh ?shed:c.shed ?chaos ?controller ~seed ~duration:c.duration
     ~specs:c.specs ~mem_image bal

(* [to_json] carries per-thread summaries; the structural comparison
   adds every engine's per-port latencies and store traces. *)
let differential =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"qcheck: bursting (sentinel off) = stepping (trap), byte for byte"
         QCheck.(int_range 0 1_000_000)
         (fun seed ->
           let c = case_of_seed seed in
           let off = run_case ~seed ~sentinel:`Off c in
           let trap = run_case ~seed ~sentinel:`Trap c in
           if
             String.equal (Metrics.to_json off) (Metrics.to_json trap)
             && compare off trap = 0
           then true
           else
             QCheck.Test.fail_reportf
               "seed %d (cost %d, %d engines, duration %d): metrics differ"
               seed c.cost c.engines c.duration));
  ]

(* ---------------- golden digests ---------------- *)

let md5 s = Digest.to_hex (Digest.string s)

(* The perfbench [chip] pair: md5+crc32+url+route at 128 registers on
   the tiered hierarchy, arrivals at twice the solo service rate, the
   fixed and the balanced allocation each through [Shard.run] with the
   sentinel off. *)
let chip_pair =
  lazy
    (let sys = instantiate [ "md5"; "crc32"; "url"; "route" ] in
     let base, bal =
       Pipeline.contenders ~nreg:128 ~spill_bases:sys.spill_bases sys.progs
     in
     let fixed = base.Pipeline.base_programs in
     let balanced = (Result.get_ok bal).Pipeline.programs in
     let specs =
       List.map
         (fun solo ->
           {
             Workload.arrival = Workload.Uniform { period = max 1 (solo / 4) };
             queue_capacity = 8;
             per_packet_iters = 1;
           })
         (Arrival.solo_service ~config:Driver.chip_machine_config sys fixed)
     in
     fun ~seed ->
       let run progs =
         Shard.to_json
           (Shard.run ~sentinel:`Off ~machine_config:Driver.chip_machine_config
              ~refresh:(Registry.refresh sys ~seed) ~seed ~engines:16 ~shards:4
              ~duration:90_000 ~specs ~mem_image:sys.mem_image progs)
       in
       md5 (run fixed ^ run balanced))

let golden =
  [
    test "chip pair digests at three seeds" (fun () ->
        List.iter
          (fun (seed, want) ->
            Alcotest.(check string)
              (Fmt.str "seed %d" seed) want
              (Lazy.force chip_pair ~seed))
          [
            (1, "279f8dae80ab7b168569afc8bc5991bf");
            (2, "37fe0d1e9f0649cc1ccc86885d32c2ac");
            (3, "5aa1654888003abdb67ae054f23bdd17");
          ]);
    test "bursting dispatch with shedding and a 3-cycle switch" (fun () ->
        let c =
          {
            cost = 3;
            engines = 3;
            duration = 9_001;
            specs =
              List.map
                (fun (arrival, queue_capacity) ->
                  { Workload.arrival; queue_capacity; per_packet_iters = 1 })
                [
                  (Workload.Uniform { period = 37 }, 2);
                  (Workload.Poisson { mean_period = 90 }, 4);
                  ( Workload.Bursty
                      { on_cycles = 700; off_cycles = 500; period = 20 },
                    3 );
                  (Workload.Uniform { period = 251 }, 1);
                ];
            shed = Some { Dispatch.quantum = 3; burst = 5 };
            chaos = None;
            adapt = false;
          }
        in
        Alcotest.(check string)
          "metrics digest" "5438529b76409102a9ee64d61cf454c0"
          (md5 (Metrics.to_json (run_case ~seed:11 ~sentinel:`Off c))));
  ]

let suite = [ ("dispatch.stops", differential @ golden) ]
