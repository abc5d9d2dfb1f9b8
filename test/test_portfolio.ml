(* Tests for the portfolio allocator: the parallel strategy race of
   Pipeline.portfolio.

   The headline property is *never-loses*: on every registry kernel and
   every seed, the portfolio winner's static score (verify errors,
   spills, moves, register demand — lexicographic) is no worse than
   whatever the sequential fallback chain would have served. It holds
   structurally — the chain's strategies are always on the slate — and
   is checked here over all kernels and qcheck'd over random
   nreg/budget/seed.

   The other contracts: losing entrants are recorded in the winner's
   trail as [Rejected] with reasons (never silently dropped); cache
   hits carry the entrant's own provenance, not a slate default; the
   winner simulates identically under the `Soa and `Legacy
   engines; and the whole result — including the BENCH_portfolio.json
   payload — is byte-identical at any job count. *)

open Npra_workloads
open Npra_core

module Pool = Npra_par.Pool
module Machine = Npra_sim.Machine

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let prop ?(count = 10) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let ws_of ids =
  List.mapi
    (fun i id -> Registry.instantiate (Registry.find_exn id) ~slot:i)
    ids

let progs_of ids =
  let ws = ws_of ids in
  (List.map (fun w -> w.Workload.prog) ws, List.map Workload.spill_base ws)

let portfolio_exn ?pool ?nreg ?move_budget ~spill_bases ~seed progs =
  Pipeline.portfolio_exn ?pool ?nreg ?move_budget ~spill_bases ~seed progs

(* The never-loses property, phrased exactly as the CI guard does: a
   chain failure can't be lost to; a chain success the slate can't
   match is a loss; otherwise compare static scores. *)
let never_loses ?(nreg = 128) ?move_budget ~spill_bases ~seed progs =
  let chain = Pipeline.balanced ~nreg ?move_budget ~spill_bases progs in
  let port = Pipeline.portfolio ~nreg ?move_budget ~spill_bases ~seed progs in
  match (chain, port) with
  | Error _, _ -> true
  | Ok _, Error _ -> false
  | Ok c, Ok p ->
    Pipeline.compare_static p.Pipeline.winner_score (Pipeline.static_score c)
    <= 0

(* ---------------- slate and trail ---------------- *)

let is_won = function Pipeline.Won _ -> true | _ -> false

let portfolio_tests =
  [
    test "losing entrants are recorded in the trail with reasons" (fun () ->
        Pipeline.cache_clear ();
        let progs, spill_bases = progs_of [ "crc32"; "crc32"; "crc32"; "crc32" ] in
        let p = portfolio_exn ~spill_bases ~seed:7 progs in
        let n = List.length p.Pipeline.slate in
        check Alcotest.bool "slate has at least 6 entrants" true (n >= 6);
        let wins = List.filter (fun (_, oc) -> is_won oc) p.Pipeline.slate in
        check Alcotest.int "exactly one winner" 1 (List.length wins);
        (match wins with
        | [ (st, _) ] ->
          check Alcotest.bool "winner provenance matches the Won entry" true
            (st = p.Pipeline.winner.Pipeline.provenance)
        | _ -> ());
        let rejected =
          List.filter_map
            (function
              | Pipeline.Rejected { stage; reason } -> Some (stage, reason)
              | Pipeline.Cache_hit _ -> None)
            p.Pipeline.winner.Pipeline.trail
        in
        check Alcotest.int "every losing entrant appears in the trail" (n - 1)
          (List.length rejected);
        List.iter
          (fun (_, reason) ->
            check Alcotest.bool "reason is non-empty" true
              (String.length reason > 0))
          rejected);
    test "the slate covers the full strategy family" (fun () ->
        let progs, spill_bases = progs_of [ "url"; "url"; "url"; "url" ] in
        let p = portfolio_exn ~spill_bases ~seed:1 progs in
        let has f = List.exists (fun (st, _) -> f st) p.Pipeline.slate in
        check Alcotest.bool "budgeted balanced" true
          (has (function Pipeline.Balanced_budget _ -> true | _ -> false));
        check Alcotest.bool "balanced-relaxed" true
          (has (( = ) Pipeline.Balanced_relaxed));
        check Alcotest.bool "zero-cost tighten" true
          (has (( = ) Pipeline.Balanced_zero_cost));
        check Alcotest.bool "shuffled orders" true
          (has (function Pipeline.Balanced_shuffled _ -> true | _ -> false));
        check Alcotest.bool "sra" true (has (( = ) Pipeline.Sra_exhaustive));
        check Alcotest.bool "chaitin floor" true
          (has (( = ) Pipeline.Chaitin_fallback)));
    test "sra entrant rejects an asymmetric mix with a reason" (fun () ->
        let progs, spill_bases = progs_of [ "crc32"; "url"; "route"; "frag" ] in
        let p = portfolio_exn ~spill_bases ~seed:1 progs in
        match List.assoc_opt Pipeline.Sra_exhaustive p.Pipeline.slate with
        | Some (Pipeline.Failed reason) ->
          check Alcotest.bool "names the symmetry requirement" true
            (contains reason "not symmetric")
        | Some _ -> Alcotest.fail "sra should not survive an asymmetric mix"
        | None -> Alcotest.fail "sra entrant missing from the slate");
    test "never loses to the chain on any registry kernel" (fun () ->
        let pool = Pool.create ~jobs:4 () in
        List.iter
          (fun spec ->
            let id = spec.Workload.id in
            let progs, spill_bases = progs_of [ id; id; id; id ] in
            let chain = Pipeline.balanced ~nreg:128 ~spill_bases progs in
            let port =
              Pipeline.portfolio ~pool ~nreg:128 ~spill_bases ~seed:1 progs
            in
            let ok =
              match (chain, port) with
              | Error _, _ -> true
              | Ok _, Error _ -> false
              | Ok c, Ok p ->
                Pipeline.compare_static p.Pipeline.winner_score
                  (Pipeline.static_score c)
                <= 0
            in
            check Alcotest.bool id true ok)
          Registry.all);
    test "one shared balancer run serves each stage as a solo run would"
      (fun () ->
        (* drr at 24 registers needs 3 moves: budgets 0 and 2 reject
           the shared result, budget 8 and the relaxed stage accept it *)
        let progs, spill_bases = progs_of [ "drr" ] in
        let wprogs = List.map Npra_cfg.Webs.rename progs in
        let render = function
          | Ok b ->
            Fmt.str "%a moves=%d@.%s" Pipeline.pp_stage b.Pipeline.provenance
              b.Pipeline.moves
              (String.concat "" (List.map Npra_ir.Prog.to_string b.Pipeline.programs))
          | Error trail -> Fmt.str "%a" (Fmt.list Pipeline.pp_diagnostic) trail
        in
        let stages =
          Pipeline.[ Balanced_budget 0; Balanced; Balanced_budget 8; Balanced_relaxed ]
        in
        let shared = Pipeline.run_balanced ~nreg:24 ~budget:2 ~wprogs stages in
        check Alcotest.(list bool) "served stages" [ false; false; true; true ]
          (List.map (fun (_, r) -> Result.is_ok r) shared);
        List.iter2
          (fun stage (stage', r) ->
            check Alcotest.bool "stage order" true (stage = stage');
            check Alcotest.string
              (Fmt.str "%a" Pipeline.pp_stage stage)
              (render
                 (Pipeline.run_entrant ~nreg:24 ~budget:2 ~spill_bases ~wprogs
                    stage))
              (render r))
          stages shared;
        match
          Pipeline.run_balanced ~nreg:24 ~budget:2 ~wprogs
            [ Pipeline.Sra_exhaustive ]
        with
        | _ -> Alcotest.fail "a non-balancer stage was accepted"
        | exception Invalid_argument _ -> ());
    prop ~count:8 "qcheck: never loses at random nreg/budget/seed"
      QCheck.(triple (int_range 64 160) (int_range 1 64) small_nat)
      (fun (nreg, budget, seed) ->
        let progs, spill_bases = progs_of [ "crc32"; "url"; "route"; "frag" ] in
        never_loses ~nreg ~move_budget:budget ~spill_bases ~seed progs);
  ]

(* ---------------- throughput probe ---------------- *)

let probe_of ids ~horizon =
  let ws =
    List.mapi
      (fun i id ->
        let t = Option.get (Registry.default_traffic id) in
        ( Registry.instantiate ~iters:t.Workload.per_packet_iters
            (Registry.find_exn id) ~slot:i,
          t ))
      ids
  in
  let progs = List.map (fun (w, _) -> w.Workload.prog) ws in
  let spill_bases = List.map (fun (w, _) -> Workload.spill_base w) ws in
  let probe =
    {
      Pipeline.probe_mem_image =
        List.concat_map (fun (w, _) -> w.Workload.mem_image) ws;
      probe_traffic = List.map snd ws;
      probe_horizon = horizon;
    }
  in
  (progs, spill_bases, probe)

let probe_tests =
  [
    test "the probe serves packets within the horizon, deterministically"
      (fun () ->
        let progs, spill_bases, probe =
          probe_of [ "crc32"; "crc32"; "crc32"; "crc32" ] ~horizon:8_000
        in
        let bal = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
        match Pipeline.probe_served probe bal.Pipeline.programs with
        | None -> Alcotest.fail "probe faulted on a verified allocation"
        | Some n ->
          check Alcotest.bool "served at least one packet" true (n > 0);
          check (Alcotest.option Alcotest.int) "replay is identical" (Some n)
            (Pipeline.probe_served probe bal.Pipeline.programs));
    test "a probed portfolio still never loses and records probe counts"
      (fun () ->
        let progs, spill_bases, probe =
          probe_of [ "url"; "url"; "url"; "url" ] ~horizon:6_000
        in
        let chain = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
        let p =
          match
            Pipeline.portfolio ~nreg:128 ~spill_bases ~seed:2 ~probe progs
          with
          | Ok p -> p
          | Error _ -> Alcotest.fail "portfolio failed"
        in
        check Alcotest.bool "never loses" true
          (Pipeline.compare_static p.Pipeline.winner_score
             (Pipeline.static_score chain)
          <= 0);
        (* If the probe ran, its packet count is in the winner's score. *)
        if p.Pipeline.probed > 0 then
          check Alcotest.bool "winner carries a probe count" true
            (p.Pipeline.winner_score.Pipeline.sc_probe <> None));
  ]

(* ---------------- cache provenance (regression) ---------------- *)

let cache_tests =
  [
    test "portfolio entrants miss the chain's cache entry and vice versa"
      (fun () ->
        Pipeline.cache_clear ();
        let progs, spill_bases = progs_of [ "url"; "url"; "url"; "url" ] in
        let (_ : Pipeline.balanced) =
          Pipeline.balanced_exn ~nreg:128 ~spill_bases progs
        in
        let s0 = Pipeline.cache_stats () in
        let (_ : Pipeline.portfolio) =
          portfolio_exn ~spill_bases ~seed:3 progs
        in
        let s1 = Pipeline.cache_stats () in
        check Alcotest.int "no entrant hit the chain's untagged entry"
          s0.Pipeline.hits s1.Pipeline.hits;
        check Alcotest.bool "every entrant missed into its own entry" true
          (s1.Pipeline.misses > s0.Pipeline.misses));
    test "a cache hit carries the entrant's own provenance, not a default"
      (fun () ->
        Pipeline.cache_clear ();
        let progs, spill_bases = progs_of [ "url"; "url"; "url"; "url" ] in
        let p1 = portfolio_exn ~spill_bases ~seed:3 progs in
        let s1 = Pipeline.cache_stats () in
        let p2 = portfolio_exn ~spill_bases ~seed:3 progs in
        let s2 = Pipeline.cache_stats () in
        check Alcotest.int "every entrant was served from cache"
          (s1.Pipeline.hits + List.length p2.Pipeline.slate)
          s2.Pipeline.hits;
        check Alcotest.bool "same winner either way" true
          (p1.Pipeline.winner.Pipeline.provenance
          = p2.Pipeline.winner.Pipeline.provenance);
        match List.rev p2.Pipeline.winner.Pipeline.trail with
        | Pipeline.Cache_hit { stage; key } :: _ ->
          check Alcotest.bool "note names the winner's own stage" true
            (stage = p2.Pipeline.winner.Pipeline.provenance);
          (* the regression: the note used to carry a slate default
             rather than the entrant that produced the value *)
          check Alcotest.bool "winner is a portfolio entrant stage" true
            (match stage with
            | Pipeline.Balanced_budget _ | Pipeline.Balanced_zero_cost
            | Pipeline.Balanced_shuffled _ | Pipeline.Sra_exhaustive
            | Pipeline.Balanced_relaxed | Pipeline.Chaitin_fallback -> true
            | Pipeline.Balanced -> false);
          check Alcotest.int "key is an MD5 hex digest" 32 (String.length key)
        | _ -> Alcotest.fail "expected a cache-hit note at the trail's end");
  ]

(* ---------------- engine differential ---------------- *)

(* The portfolio winner must behave identically under both paths of the
   soa engine and the legacy interpreter — same extension of the
   sim.engines contract to the new allocation producer. The armed
   sentinel covers the burst's flagged quads, the disarmed one its
   unchecked arms. *)
let engine_tests =
  List.map
    (fun id ->
      test (Fmt.str "soa = legacy on the portfolio winner of %s" id)
        (fun () ->
          let ws = ws_of [ id; id; id; id ] in
          let progs = List.map (fun w -> w.Workload.prog) ws in
          let mem_image = List.concat_map (fun w -> w.Workload.mem_image) ws in
          let spill_bases = List.map Workload.spill_base ws in
          let p = portfolio_exn ~spill_bases ~seed:1 progs in
          let report sentinel engine =
            Machine.report
              (Machine.run ~engine ~sentinel ~mem_image
                 p.Pipeline.winner.Pipeline.programs)
          in
          List.iter
            (fun sentinel ->
              let s = report sentinel `Soa in
              let l = report sentinel `Legacy in
              check Alcotest.int "total cycles" l.Machine.total_cycles
                s.Machine.total_cycles;
              check Alcotest.string "full report"
                (Fmt.str "%a" Machine.pp_report l)
                (Fmt.str "%a" Machine.pp_report s);
              check Alcotest.bool "structurally equal" true (s = l))
            [ `Trap; `Off ]))
    [ "md5"; "crc32"; "drr"; "url"; "wraps_tx" ]

(* ---------------- jobs invariance ---------------- *)

(* Renders everything observable about a portfolio result — winner,
   score, slate verdicts, trail, physical programs — so byte equality
   of fingerprints means result equality. *)
let fingerprint (p : Pipeline.portfolio) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Fmt.str "winner=%a score=%a probed=%d\n" Pipeline.pp_stage
       p.Pipeline.winner.Pipeline.provenance Pipeline.pp_score
       p.Pipeline.winner_score p.Pipeline.probed);
  List.iter
    (fun (st, oc) ->
      Buffer.add_string buf
        (Fmt.str "%a=%a\n" Pipeline.pp_stage st Pipeline.pp_outcome oc))
    p.Pipeline.slate;
  List.iter
    (fun d -> Buffer.add_string buf (Fmt.str "%a\n" Pipeline.pp_diagnostic d))
    p.Pipeline.winner.Pipeline.trail;
  List.iter
    (fun prog -> Buffer.add_string buf (Npra_ir.Prog.to_string prog))
    p.Pipeline.winner.Pipeline.programs;
  Buffer.contents buf

let run_at ~jobs ~seed (progs, spill_bases) =
  (* a cold cache each run so even the Cache_hit notes must agree *)
  Pipeline.cache_clear ();
  fingerprint
    (portfolio_exn ~pool:(Pool.create ~jobs ()) ~spill_bases ~seed progs)

(* MD5s of [fingerprint] for three symmetric mixes at seed 1, jobs 1,
   captured before the budgeted entrants shared one balancer run. The
   jobs-invariance tests compare two runs of the same code; these pin
   the result across changes to it. md5 falls to the Chaitin floor,
   fir2dim is won by the zero-cost tightening, crc32 by the first
   budgeted entrant. *)
let golden_fingerprints =
  [
    ("md5", "34037771defb8df4233ae031df57819a");
    ("fir2dim", "094cb61d4c7526a746f1cec98e51ba0e");
    ("crc32", "a0fb1a2d2b9c95a5e38da9449a4b5689");
  ]

let jobs_tests =
  [
    test "portfolio fingerprints match the golden digests" (fun () ->
        List.iter
          (fun (id, want) ->
            let sys = progs_of [ id; id; id; id ] in
            check Alcotest.string id want
              (Digest.to_hex (Digest.string (run_at ~jobs:1 ~seed:1 sys))))
          golden_fingerprints);
    test "portfolio output is byte-identical at jobs=1 and jobs=4" (fun () ->
        let sys = progs_of [ "crc32"; "crc32"; "crc32"; "crc32" ] in
        List.iter
          (fun seed ->
            check Alcotest.string (Fmt.str "seed %d" seed)
              (run_at ~jobs:1 ~seed sys)
              (run_at ~jobs:4 ~seed sys))
          [ 1; 7; 42 ]);
    prop ~count:5 "qcheck: jobs-invariant at random seeds" QCheck.small_nat
      (fun seed ->
        let sys = progs_of [ "url"; "route"; "url"; "route" ] in
        String.equal (run_at ~jobs:1 ~seed sys) (run_at ~jobs:4 ~seed sys));
    test "BENCH_portfolio payload is byte-identical at jobs=1 and jobs=4"
      (fun () ->
        let rows jobs =
          Pipeline.cache_clear ();
          Experiments.portfolio_rows
            ~pool:(Pool.create ~jobs ())
            ~quick:true ~seed:5 ()
        in
        check Alcotest.string "json payload"
          (Json.to_string (Experiments.portfolio_json ~seed:5 ~quick:true (rows 1)))
          (Json.to_string (Experiments.portfolio_json ~seed:5 ~quick:true (rows 4))));
  ]

let suite =
  [
    ("pipeline.portfolio", portfolio_tests);
    ("pipeline.portfolio.probe", probe_tests);
    ("pipeline.portfolio.cache", cache_tests);
    ("pipeline.portfolio.engines", engine_tests);
    ("pipeline.portfolio.jobs", jobs_tests);
  ]
