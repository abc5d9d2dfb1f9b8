(* Tests for the benchmark kernels: structural sanity, determinism, and
   behavioural fidelity under the reference executor. *)

open Npra_ir
open Npra_workloads

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let all_ids = Registry.ids ()

let per_workload name f =
  List.map
    (fun id ->
      test (Fmt.str "%s: %s" id name) (fun () ->
          f (Registry.instantiate (Registry.find_exn id) ~slot:0)))
    all_ids

let structure_tests =
  per_workload "program validates and is virtual" (fun w ->
      Prog.validate w.Workload.prog;
      check Alcotest.bool "virtual" true (Prog.all_virtual w.Workload.prog))
  @ per_workload "has context switches" (fun w ->
        check Alcotest.bool "has CSBs" true
          (Prog.count_ctx_switches w.Workload.prog > 0))
  @ per_workload "terminates under the reference executor" (fun w ->
        let r =
          Npra_sim.Refexec.run ~mem_image:w.Workload.mem_image w.Workload.prog
        in
        check Alcotest.bool "stores something" true
          (r.Npra_sim.Refexec.store_trace <> []))
  @ per_workload "memory image stays in its instance" (fun w ->
        List.iter
          (fun (a, _) ->
            check Alcotest.bool "in range" true
              (a >= w.Workload.mem_base
              && a < w.Workload.mem_base + Workload.instance_size))
          w.Workload.mem_image)

let determinism_tests =
  [
    test "instantiation is deterministic" (fun () ->
        List.iter
          (fun id ->
            let spec = Registry.find_exn id in
            let a = Registry.instantiate spec ~slot:0
            and b = Registry.instantiate spec ~slot:0 in
            check Alcotest.bool (id ^ " same code") true
              (a.Workload.prog.Prog.code = b.Workload.prog.Prog.code);
            check Alcotest.bool (id ^ " same image") true
              (a.Workload.mem_image = b.Workload.mem_image))
          all_ids);
    test "different slots use disjoint memory" (fun () ->
        let spec = Registry.find_exn "md5" in
        let a = Registry.instantiate spec ~slot:0
        and b = Registry.instantiate spec ~slot:1 in
        let addrs w =
          List.map fst w.Workload.mem_image |> List.sort_uniq compare
        in
        let inter =
          List.filter (fun x -> List.mem x (addrs b)) (addrs a)
        in
        check Alcotest.int "no overlap" 0 (List.length inter));
    test "random_words is seeded" (fun () ->
        check Alcotest.bool "same seed same words" true
          (Workload.random_words ~seed:7 16 = Workload.random_words ~seed:7 16);
        check Alcotest.bool "different seeds differ" true
          (Workload.random_words ~seed:7 16 <> Workload.random_words ~seed:8 16));
    test "registry finds every id and rejects unknowns" (fun () ->
        List.iter
          (fun id -> check Alcotest.bool id true (Registry.find id <> None))
          all_ids;
        check Alcotest.bool "unknown" true (Registry.find "nope" = None));
    test "registry has the paper's 11 benchmarks" (fun () ->
        check Alcotest.int "count" 11 (List.length all_ids));
  ]

(* Profile assertions: the properties DESIGN.md relies on. *)
let profile_tests =
  let bounds id =
    let w = Registry.instantiate (Registry.find_exn id) ~slot:0 in
    let prog = Npra_cfg.Webs.rename w.Workload.prog in
    let ctx = Npra_regalloc.Context.create prog in
    let _, b = Npra_regalloc.Estimate.run ctx in
    b
  in
  [
    test "md5 pressure exceeds the fixed 32-register partition" (fun () ->
        let b = bounds "md5" in
        check Alcotest.bool "min_r > 32" true (b.Npra_regalloc.Estimate.min_r > 32));
    test "wraps pressure exceeds the fixed partition" (fun () ->
        List.iter
          (fun id ->
            let b = bounds id in
            check Alcotest.bool (id ^ " min_r > 32") true
              (b.Npra_regalloc.Estimate.min_r > 32))
          [ "wraps_rx"; "wraps_tx" ]);
    test "fir2dim: high internal, low boundary pressure" (fun () ->
        let b = bounds "fir2dim" in
        check Alcotest.bool "boundary small" true
          (b.Npra_regalloc.Estimate.min_pr <= 8);
        check Alcotest.bool "internal much larger" true
          (b.Npra_regalloc.Estimate.min_r >= 2 * b.Npra_regalloc.Estimate.min_pr));
    test "light kernels fit the fixed partition" (fun () ->
        List.iter
          (fun id ->
            let b = bounds id in
            check Alcotest.bool (id ^ " fits 32") true
              (b.Npra_regalloc.Estimate.max_r <= 32))
          [ "frag"; "crc32"; "url"; "route"; "l2l3fwd_rx"; "l2l3fwd_tx"; "drr" ]);
  ]

(* ---------------- the system builder ---------------- *)

let system_qcheck =
  let nspecs = List.length Registry.all in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40
         ~name:
           "system: kernel i at slot i, registry spill bases, slot-order image"
         QCheck.(list_of_size Gen.(1 -- 4) (int_bound (nspecs - 1)))
         (fun picks ->
           let specs = List.map (List.nth Registry.all) picks in
           let alone =
             List.mapi (fun slot s -> Registry.instantiate s ~slot) specs
           in
           let sys = Registry.system specs in
           let tsys, traffic = Registry.traffic_system specs in
           List.length sys.Registry.workloads = List.length specs
           && List.for_all Fun.id
                (List.mapi
                   (fun i w -> w.Workload.mem_base = i * Workload.instance_size)
                   sys.workloads)
           && sys.progs = List.map (fun w -> w.Workload.prog) alone
           && sys.spill_bases = Npra_core.Pipeline.default_spill_bases sys.progs
           && sys.mem_image
              = List.concat_map (fun w -> w.Workload.mem_image) alone
           && tsys.spill_bases = sys.spill_bases
           && List.for_all2
                (fun w t -> w.Workload.iters = t.Workload.per_packet_iters)
                tsys.workloads traffic
           && traffic
              = List.map
                  (fun s -> Option.get (Registry.default_traffic s.Workload.id))
                  specs));
  ]

(* The per-service payload refresh, pinned to the values the chip and
   throughput benches have always poked into the input buffers. *)
let refresh_golden =
  [
    test "payload refresh: golden words per (seed, engine, thread, seq)"
      (fun () ->
        let sys =
          Registry.system ~iters:1
            (List.map Registry.find_exn [ "md5"; "crc32"; "url"; "route" ])
        in
        List.iter
          (fun (seed, engine, thread, seq, expect) ->
            let name = Fmt.str "refresh %d %d %d %d" seed engine thread seq in
            check
              Alcotest.(list (pair int int))
              name expect
              (Registry.refresh sys ~seed ~engine ~thread ~seq);
            check
              Alcotest.(list (pair int int))
              (name ^ " (pure)") expect
              (Workload.refresh ~seed ~engine ~thread ~seq
                 (List.nth sys.workloads thread)))
          [
            ( 42, 0, 0, 0,
              [
                (0, 11101449); (1, 744010413); (2, 567900875);
                (3, 523119851); (4, 863344626); (5, 355365335);
                (6, 311031805); (7, 109508870);
              ] );
            ( 1, 3, 2, 17,
              [
                (2048, 732556203); (2049, 413538405);
                (2050, 507143088); (2051, 643209302);
                (2052, 270368248); (2053, 718792457);
                (2054, 133049938); (2055, 151742272);
              ] );
            ( 7919, 63, 3, 100000,
              [
                (3072, 888105022); (3073, 242146698);
                (3074, 840408005); (3075, 193279282);
                (3076, 520050627); (3077, 150042048);
                (3078, 1040890468); (3079, 1048008231);
              ] );
          ]);
  ]

let suite =
  [
    ("workloads.system", system_qcheck @ refresh_golden);
    ("workloads.structure", structure_tests);
    ("workloads.determinism", determinism_tests);
    ("workloads.profile", profile_tests);
  ]
