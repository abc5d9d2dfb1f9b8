(* Integration tests: the full balanced pipeline and the spilling
   baseline, end to end, over real workload mixes — allocation fits,
   verification passes, and the rewritten threads behave identically to
   the originals both alone and interleaved on the machine. *)

open Npra_workloads
open Npra_core

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let mix ids = Registry.system (List.map Registry.find_exn ids)

let mixes =
  [
    ("fig-scenario-1", [ "md5"; "md5"; "fir2dim"; "fir2dim" ]);
    ("fig-scenario-2", [ "l2l3fwd_rx"; "l2l3fwd_tx"; "md5"; "md5" ]);
    ("fig-scenario-3", [ "wraps_rx"; "wraps_tx"; "fir2dim"; "frag" ]);
    ("light-mix", [ "crc32"; "url"; "route"; "drr" ]);
  ]

let balanced_tests =
  List.concat_map
    (fun (name, ids) ->
      let run () =
        let sys = mix ids in
        (sys, Pipeline.balanced_exn ~nreg:128 sys.progs)
      in
      [
        test (name ^ ": allocation fits and verifies") (fun () ->
            let _, bal = run () in
            check Alcotest.int "verify" 0
              (List.length bal.Pipeline.verify_errors);
            check Alcotest.bool "served by the balancer" true
              (bal.Pipeline.provenance = Pipeline.Balanced);
            match bal.Pipeline.inter with
            | None -> Alcotest.fail "balancer result carries no Inter.t"
            | Some inter ->
              check Alcotest.bool "fits" true
                (Npra_regalloc.Inter.demand inter.Npra_regalloc.Inter.threads
                <= 128));
        test (name ^ ": differential execution matches") (fun () ->
            let sys, bal = run () in
            check Alcotest.bool "identical behaviour" true
              (Pipeline.differential ~mem_image:sys.mem_image sys.progs
                 bal.Pipeline.programs));
      ])
    mixes

let baseline_tests =
  List.concat_map
    (fun (name, ids) ->
      [
        test (name ^ ": baseline preserves behaviour") (fun () ->
            let { Registry.progs; mem_image; spill_bases; _ } = mix ids in
            let base = Pipeline.baseline ~nreg:128 ~spill_bases progs in
            (* spill-area stores are allocator-internal, not behaviour *)
            let ignore_addr a =
              List.exists (fun b -> a >= b && a < b + 256) spill_bases
            in
            check Alcotest.bool "identical behaviour" true
              (Pipeline.differential ~ignore_addr ~mem_image progs
                 base.Pipeline.base_programs));
      ])
    mixes

(* The chain's trail as the CLI prints it, one diagnostic a line. The
   tests that pin it start from a cold cache, so no [Cache_hit] note
   joins the trail. *)
let render_trail bal =
  Fmt.str "%a" Fmt.(list ~sep:(any "\n") Pipeline.pp_diagnostic) bal.Pipeline.trail

let degradation_tests =
  [
    test "infeasible mix falls back to fixed-partition chaitin" (fun () ->
        (* four wraps_rx threads demand 4 x 33 = 132 > 128 registers: the
           balancer cannot serve this, and must degrade instead of raising *)
        let { Registry.progs; mem_image; spill_bases; _ } =
          mix [ "wraps_rx"; "wraps_rx"; "wraps_rx"; "wraps_rx" ]
        in
        Pipeline.cache_clear ();
        match Pipeline.balanced ~nreg:128 ~spill_bases progs with
        | Error trail ->
          Alcotest.failf "no fallback served the mix: %a"
            (Fmt.list Pipeline.pp_diagnostic) trail
        | Ok bal ->
          check Alcotest.bool "provenance is the chaitin fallback" true
            (bal.Pipeline.provenance = Pipeline.Chaitin_fallback);
          check Alcotest.bool "trail records the degradation" true
            (List.exists
               (function
                 | Pipeline.Rejected { stage; _ } -> stage = Pipeline.Balanced
                 | Pipeline.Cache_hit _ -> false)
               bal.Pipeline.trail);
          check Alcotest.string "the full trail"
            "balanced rejected: register demand 132 exceeds 128 and no \
             thread can be reduced further\n\
             balanced (relaxed move budget) rejected: register demand 132 \
             exceeds 128 and no thread can be reduced further"
            (render_trail bal);
          check Alcotest.bool "no inter result on the fallback path" true
            (bal.Pipeline.inter = None);
          check Alcotest.int "fallback still verifies" 0
            (List.length bal.Pipeline.verify_errors);
          (* and the degraded allocation actually runs, sentinel armed *)
          let r =
            Npra_sim.Machine.report
              (Npra_sim.Machine.run ~sentinel:`Trap ~mem_image
                 bal.Pipeline.programs)
          in
          List.iter
            (fun tr ->
              check Alcotest.bool "thread completed" true
                (tr.Npra_sim.Machine.completion <> None))
            r.Npra_sim.Machine.thread_reports);
    test "zero move budget degrades to balanced-relaxed" (fun () ->
        (* drr squeezed into 24 registers needs paid reductions — split
           moves get inserted; with the budget at zero the result is
           kept but flagged as over budget *)
        let progs = (mix [ "drr" ]).progs in
        Pipeline.cache_clear ();
        match Pipeline.balanced ~nreg:24 ~move_budget:0 progs with
        | Error trail ->
          Alcotest.failf "unexpected error: %a"
            (Fmt.list Pipeline.pp_diagnostic) trail
        | Ok bal ->
          check Alcotest.bool "moves were inserted" true (bal.Pipeline.moves > 0);
          check Alcotest.bool "provenance is balanced-relaxed" true
            (bal.Pipeline.provenance = Pipeline.Balanced_relaxed);
          check Alcotest.int "one rejection in the trail" 1
            (List.length (Pipeline.rejections bal.Pipeline.trail));
          check Alcotest.string "the full trail"
            "balanced rejected: 3 moves exceed the budget of 0"
            (render_trail bal);
          check Alcotest.int "still verifies" 0
            (List.length bal.Pipeline.verify_errors);
          (* the same system under the default budget is plain Balanced *)
          match Pipeline.balanced ~nreg:24 progs with
          | Error _ -> Alcotest.fail "default budget should succeed"
          | Ok bal' ->
            check Alcotest.bool "default budget accepts the moves" true
              (bal'.Pipeline.provenance = Pipeline.Balanced));
    test "balanced_exn raises only on a total failure" (fun () ->
        (* the fallback chain serves the infeasible mix, so even _exn
           returns *)
        let sys = mix [ "wraps_rx"; "wraps_tx"; "wraps_rx"; "wraps_tx" ] in
        let bal =
          Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases sys.progs
        in
        check Alcotest.bool "served" true
          (bal.Pipeline.provenance <> Pipeline.Balanced));
  ]

let experiment_tests =
  [
    test "table1 computes a row per benchmark" (fun () ->
        let rows = Experiments.table1 () in
        check Alcotest.int "rows" 11 (List.length rows);
        List.iter
          (fun r ->
            check Alcotest.bool "bounds ordered" true
              (r.Experiments.regp_csb_max <= r.Experiments.regp_max
              && r.Experiments.regp_max <= r.Experiments.max_r
              && r.Experiments.max_pr <= r.Experiments.max_r);
            check Alcotest.bool "cycles measured" true
              (r.Experiments.cycles_per_iter > 0.))
          rows);
    test "fig14 savings are non-negative everywhere" (fun () ->
        let rows = Experiments.fig14 () in
        List.iter
          (fun r ->
            match r.Experiments.f14_data with
            | None ->
              Alcotest.fail (r.Experiments.f14_name ^ " row is annotated")
            | Some d ->
              check Alcotest.bool
                (r.Experiments.f14_name ^ " saving >= 0")
                true
                (d.Experiments.saving_pct >= -0.001))
          rows;
        check Alcotest.bool "average in a sane band" true
          (Experiments.fig14_average rows > 5.));
    test "table2 reaches every benchmark's lower bounds" (fun () ->
        let rows = Experiments.table2 () in
        check Alcotest.int "rows" 11 (List.length rows);
        List.iter
          (fun r ->
            match r.Experiments.t2_data with
            | None ->
              Alcotest.fail (r.Experiments.t2_name ^ " row is annotated")
            | Some d ->
              check Alcotest.bool "overhead bounded" true
                (d.Experiments.overhead_pct < 50.))
          rows);
    test "table3 scenarios: critical up, others mildly down" (fun () ->
        let rows = Experiments.table3 () in
        check Alcotest.int "scenarios" 3 (List.length rows);
        List.iter
          (fun row ->
            check Alcotest.int "verified" 0 row.Experiments.t3_verify_errors;
            List.iter
              (fun t ->
                let crit =
                  List.mem t.Experiments.t3_name
                    [ "md5"; "wraps_rx"; "wraps_tx" ]
                in
                if crit then begin
                  (* the paper's 18-24% speed-up band, give or take *)
                  check Alcotest.bool
                    (t.Experiments.t3_name ^ " speeds up")
                    true
                    (t.Experiments.change_pct < -10.);
                  check Alcotest.bool
                    (t.Experiments.t3_name ^ " speeds up solo too")
                    true
                    (t.Experiments.solo_change_pct < -10.)
                end
                else begin
                  (* the allocation itself costs the light threads almost
                     nothing (the paper's 1-4% attribution to moves); the
                     contended figure additionally absorbs PU-scheduling
                     effects of the faster critical threads *)
                  check Alcotest.bool
                    (t.Experiments.t3_name ^ " solo cost is tiny")
                    true
                    (t.Experiments.solo_change_pct < 5.);
                  check Alcotest.bool
                    (t.Experiments.t3_name ^ " contended cost bounded")
                    true
                    (t.Experiments.change_pct < 25.)
                end)
              row.Experiments.threads)
          rows);
  ]

(* Registry mixes with the register file each is allocated into:
   [`Full] is the 128-register file, [`Under d] is [d] under the mix's
   starting demand (the greedy balancer commits steps; past the bound
   the Chaitin floor serves). *)
let pinned_mixes =
  [
    ([ "md5"; "wraps_tx"; "crc32"; "url" ], `Full);
    ([ "md5"; "md5"; "fir2dim"; "fir2dim" ], `Full);
    ([ "l2l3fwd_rx"; "l2l3fwd_tx"; "md5"; "md5" ], `Full);
    ([ "wraps_rx"; "wraps_tx"; "fir2dim"; "frag" ], `Full);
    ([ "wraps_rx"; "wraps_rx"; "wraps_rx"; "wraps_rx" ], `Full);
    ([ "drr"; "fir2dim"; "frag"; "url" ], `Under 1);
    ([ "fir2dim"; "crc32"; "drr"; "route" ], `Under 2);
    ([ "l2l3fwd_tx"; "drr"; "url"; "fir2dim" ], `Under 5);
    ([ "md5"; "drr"; "url"; "route" ], `Under 1);
    ([ "frag"; "crc32"; "url"; "route" ], `Under 1);
    ([ "url"; "route"; "l2l3fwd_rx"; "crc32" ], `Under 1);
    ([ "crc32"; "l2l3fwd_tx"; "frag"; "l2l3fwd_rx" ], `Under 1);
  ]

let pinned_allocation (ids, target) =
  let progs = (mix ids).progs in
  let nreg =
    match target with
    | `Full -> 128
    | `Under d ->
      let threads =
        Array.of_list
          (List.map (fun p -> Npra_regalloc.Inter.init_thread (Npra_cfg.Webs.rename p)) progs)
      in
      min 128 (Npra_regalloc.Inter.demand threads) - d
  in
  (nreg, Pipeline.balanced_exn ~nreg progs)

(* Per-mix MD5 of the provenance and the printed programs
   [Pipeline.balanced] returns, taken before the balancer's step memo and
   the shared physical registers went in: both must leave every
   allocation byte-identical. *)
let pinned_digests =
  [
    "md5+wraps_tx+crc32+url@128 balanced bddcc01c6eecc64ef21657d138c1b16c";
    "md5+md5+fir2dim+fir2dim@128 balanced b74bb101ea358b24d67921695fb9d281";
    "l2l3fwd_rx+l2l3fwd_tx+md5+md5@128 balanced aa85824548fbfb144e093404d515314c";
    "wraps_rx+wraps_tx+fir2dim+frag@128 balanced 7d6c2857d223ad56edc9d3d01b496877";
    "wraps_rx+wraps_rx+wraps_rx+wraps_rx@128 fixed-partition chaitin \
     087d18743ba2cc676f3e5b30de5d0c08";
    "drr+fir2dim+frag+url@58 balanced 12349b242f04397b6cb229fbeb9449a3";
    "fir2dim+crc32+drr+route@54 balanced cd3cf0a9220dbfb7c625fa7f1ebb0d13";
    "l2l3fwd_tx+drr+url+fir2dim@56 balanced 99335575c2c245d2ca780f6b1b0d1362";
    "md5+drr+url+route@76 balanced 9e1f2d68bbbe5e66de49ec74f8847c10";
    "frag+crc32+url+route@25 fixed-partition chaitin 9d085948d2ca5095644e288de756937b";
    "url+route+l2l3fwd_rx+crc32@30 fixed-partition chaitin 128d3454d43b9e927a6f3c4187879a26";
    "crc32+l2l3fwd_tx+frag+l2l3fwd_rx@33 balanced 38f36597403261e0dd1ac04129681006";
  ]

let pin_tests =
  [
    test "twelve registry mixes allocate byte-identically to the pinned digests" (fun () ->
        let digest (ids, target) =
          let nreg, bal = pinned_allocation (ids, target) in
          Fmt.str "%s@%d %a %s" (String.concat "+" ids) nreg Pipeline.pp_stage
            bal.Pipeline.provenance
            (Digest.to_hex
               (Digest.string (Npra_asm.Printer.to_string_many bal.Pipeline.programs)))
        in
        check Alcotest.(list string) "digests" pinned_digests
          (List.map digest pinned_mixes));
    test "allocation output shares one block per physical register" (fun () ->
        let open Npra_ir in
        check Alcotest.bool "Reg.phys k == Reg.phys k" true
          (List.for_all (fun k -> Reg.phys k == Reg.phys k) [ 0; 1; 64; 127; 255 ]);
        check Alcotest.bool "past the table, still P k" true
          (Reg.equal (Reg.phys 4095) (Reg.P 4095));
        let shared what ok = if not ok then Alcotest.failf "unshared %s" what in
        List.iter
          (fun m ->
            let _, bal = pinned_allocation m in
            List.iter
              (fun p ->
                Array.iter
                  (fun ins ->
                    List.iter
                      (fun r ->
                        match r with
                        | Reg.P k -> shared (Reg.to_string r) (r == Reg.phys k)
                        | Reg.V _ -> Alcotest.failf "virtual %a left" Reg.pp r)
                      (Instr.defs ins @ Instr.uses ins);
                    match ins with
                    | Instr.Alu { src2 = Instr.Reg r as o; _ }
                    | Instr.Brc { src2 = Instr.Reg r as o; _ } ->
                      shared (Instr.to_string ins) (o == Instr.reg_operand r)
                    | _ -> ())
                  p.Prog.code)
              bal.Pipeline.programs)
          pinned_mixes);
  ]

let suite =
  [
    ("pipeline.balanced", balanced_tests);
    ("pipeline.pinned", pin_tests);
    ("pipeline.baseline", baseline_tests);
    ("pipeline.degradation", degradation_tests);
    ("pipeline.experiments", experiment_tests);
  ]
