(* Tests for the portfolio allocator: the parallel strategy race of
   Portfolio.race.

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

let system_of ids = Registry.system (List.map Registry.find_exn ids)

let progs_of ids =
  let sys = system_of ids in
  (sys.progs, sys.spill_bases)

(* What a chain call or a race analyses once: the §5 estimate of every
   web-form program. *)
let analyse wprogs =
  Array.of_list (List.map Npra_regalloc.Inter.init_thread wprogs)

let portfolio_exn ?pool ?nreg ?move_budget ~spill_bases ~seed progs =
  match Portfolio.race ?pool ?nreg ?move_budget ~spill_bases ~seed progs with
  | Ok p -> p
  | Error trail ->
    Alcotest.failf "every entrant failed:@ %a"
      (Fmt.list ~sep:Fmt.sp Pipeline.pp_diagnostic)
      trail

(* The never-loses property, phrased exactly as the CI guard does: a
   chain failure can't be lost to; a chain success the slate can't
   match is a loss; otherwise compare static scores. *)
let never_loses ?(nreg = 128) ?move_budget ~spill_bases ~seed progs =
  let chain = Pipeline.balanced ~nreg ?move_budget ~spill_bases progs in
  let port = Portfolio.race ~nreg ?move_budget ~spill_bases ~seed progs in
  match (chain, port) with
  | Error _, _ -> true
  | Ok _, Error _ -> false
  | Ok c, Ok p ->
    Portfolio.compare_static p.Portfolio.winner_score (Portfolio.static_score c)
    <= 0

(* ---------------- slate and trail ---------------- *)

let is_won = function Portfolio.Won _ -> true | _ -> false

let portfolio_tests =
  [
    test "losing entrants are recorded in the trail with reasons" (fun () ->
        Pipeline.cache_clear ();
        let progs, spill_bases = progs_of [ "crc32"; "crc32"; "crc32"; "crc32" ] in
        let p = portfolio_exn ~spill_bases ~seed:7 progs in
        let n = List.length p.Portfolio.slate in
        check Alcotest.bool "slate has at least 6 entrants" true (n >= 6);
        let wins = List.filter (fun (_, oc) -> is_won oc) p.Portfolio.slate in
        check Alcotest.int "exactly one winner" 1 (List.length wins);
        (match wins with
        | [ (st, _) ] ->
          check Alcotest.bool "winner provenance matches the Won entry" true
            (st = p.Portfolio.winner.Pipeline.provenance)
        | _ -> ());
        let rejected =
          List.filter_map
            (function
              | Pipeline.Rejected { stage; reason } -> Some (stage, reason)
              | Pipeline.Cache_hit _ -> None)
            p.Portfolio.winner.Pipeline.trail
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
        let has f = List.exists (fun (st, _) -> f st) p.Portfolio.slate in
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
        match List.assoc_opt Pipeline.Sra_exhaustive p.Portfolio.slate with
        | Some (Portfolio.Failed reason) ->
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
              Portfolio.race ~pool ~nreg:128 ~spill_bases ~seed:1 progs
            in
            let ok =
              match (chain, port) with
              | Error _, _ -> true
              | Ok _, Error _ -> false
              | Ok c, Ok p ->
                Portfolio.compare_static p.Portfolio.winner_score
                  (Portfolio.static_score c)
                <= 0
            in
            check Alcotest.bool id true ok)
          Registry.all);
    test "one shared balancer run serves each stage as a solo run would"
      (fun () ->
        (* drr at 24 registers needs 3 moves: budgets 0 and 2 reject
           the shared result, budget 8 and the relaxed stage accept it *)
        let progs, spill_bases = progs_of [ "drr" ] in
        let threads = analyse (List.map Npra_cfg.Webs.rename progs) in
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
        let shared = Pipeline.run_balanced ~nreg:24 ~budget:2 ~threads stages in
        check Alcotest.(list bool) "served stages" [ false; false; true; true ]
          (List.map (fun (_, r) -> Result.is_ok r) shared);
        List.iter2
          (fun stage (stage', r) ->
            check Alcotest.bool "stage order" true (stage = stage');
            check Alcotest.string
              (Fmt.str "%a" Pipeline.pp_stage stage)
              (render
                 (Pipeline.run_entrant ~nreg:24 ~budget:2 ~spill_bases ~threads
                    stage))
              (render r))
          stages shared;
        match
          Pipeline.run_balanced ~nreg:24 ~budget:2 ~threads
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
  Experiments.portfolio_system ~horizon (List.map Registry.find_exn ids)

let probe_tests =
  [
    test "the probe serves packets within the horizon, deterministically"
      (fun () ->
        let progs, spill_bases, probe =
          probe_of [ "crc32"; "crc32"; "crc32"; "crc32" ] ~horizon:8_000
        in
        let bal = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
        match Portfolio.probe_served probe bal.Pipeline.programs with
        | None -> Alcotest.fail "probe faulted on a verified allocation"
        | Some n ->
          check Alcotest.bool "served at least one packet" true (n > 0);
          check (Alcotest.option Alcotest.int) "replay is identical" (Some n)
            (Portfolio.probe_served probe bal.Pipeline.programs));
    test "a probed portfolio still never loses and records probe counts"
      (fun () ->
        let progs, spill_bases, probe =
          probe_of [ "url"; "url"; "url"; "url" ] ~horizon:6_000
        in
        let chain = Pipeline.balanced_exn ~nreg:128 ~spill_bases progs in
        let p =
          match
            Portfolio.race ~nreg:128 ~spill_bases ~seed:2 ~probe progs
          with
          | Ok p -> p
          | Error _ -> Alcotest.fail "portfolio failed"
        in
        check Alcotest.bool "never loses" true
          (Portfolio.compare_static p.Portfolio.winner_score
             (Portfolio.static_score chain)
          <= 0);
        (* If the probe ran, its packet count is in the winner's score. *)
        if p.Portfolio.probed > 0 then
          check Alcotest.bool "winner carries a probe count" true
            (p.Portfolio.winner_score.Portfolio.sc_probe <> None));
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
        let (_ : Portfolio.t) =
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
          (s1.Pipeline.hits + List.length p2.Portfolio.slate)
          s2.Pipeline.hits;
        check Alcotest.bool "same winner either way" true
          (p1.Portfolio.winner.Pipeline.provenance
          = p2.Portfolio.winner.Pipeline.provenance);
        match List.rev p2.Portfolio.winner.Pipeline.trail with
        | Pipeline.Cache_hit { stage; key } :: _ ->
          check Alcotest.bool "note names the winner's own stage" true
            (stage = p2.Portfolio.winner.Pipeline.provenance);
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
          let { Registry.progs; mem_image; spill_bases; _ } =
            system_of [ id; id; id; id ]
          in
          let p = portfolio_exn ~spill_bases ~seed:1 progs in
          let report sentinel engine =
            Machine.report
              (Machine.run ~engine ~sentinel ~mem_image
                 p.Portfolio.winner.Pipeline.programs)
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
let fingerprint (p : Portfolio.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Fmt.str "winner=%a score=%a probed=%d\n" Pipeline.pp_stage
       p.Portfolio.winner.Pipeline.provenance Portfolio.pp_score
       p.Portfolio.winner_score p.Portfolio.probed);
  List.iter
    (fun (st, oc) ->
      Buffer.add_string buf
        (Fmt.str "%a=%a\n" Pipeline.pp_stage st Portfolio.pp_outcome oc))
    p.Portfolio.slate;
  List.iter
    (fun d -> Buffer.add_string buf (Fmt.str "%a\n" Pipeline.pp_diagnostic d))
    p.Portfolio.winner.Pipeline.trail;
  List.iter
    (fun prog -> Buffer.add_string buf (Npra_ir.Prog.to_string prog))
    p.Portfolio.winner.Pipeline.programs;
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

(* ---------------- the whole slate, pinned ---------------- *)

(* One 12-digit MD5 prefix per entrant, in slate order, over its stage,
   its outcome text (which carries its score) and, for a survivor, the
   programs it allocated. A race starts from a cold cache and leaves one
   entry per entrant there, so a survivor's programs are read back from
   its own entry. *)
let slate_digests ?move_budget ~nreg ids =
  Pipeline.cache_clear ();
  let progs, spill_bases, probe =
    Experiments.portfolio_system ~horizon:6_000 (List.map Registry.find_exn ids)
  in
  let p =
    match
      Portfolio.race ~pool:(Pool.create ~jobs:2 ()) ~nreg ?move_budget
        ~spill_bases ~seed:1 ~probe progs
    with
    | Ok p -> p
    | Error _ -> Alcotest.fail "every entrant failed"
  in
  let programs stage =
    let key =
      Pipeline.cache_key
        ~tag:(Fmt.str "%a" Pipeline.pp_stage stage)
        ~nreg ~move_budget ~spill_bases:(Some spill_bases) progs
    in
    match Pipeline.cache_find key with
    | Some (Ok b) ->
      String.concat "" (List.map Npra_ir.Prog.to_string b.Pipeline.programs)
    | Some (Error _) -> Alcotest.fail "a survivor's cache entry is a failure"
    | None -> Alcotest.fail "entrant has no cache entry"
  in
  List.map
    (fun (stage, oc) ->
      let text =
        match oc with
        | Portfolio.Failed _ -> ""
        | Portfolio.Won _ | Portfolio.Lost _ -> programs stage
      in
      String.sub
        (Digest.to_hex
           (Digest.string
              (Fmt.str "%a\n%a\n%s" Pipeline.pp_stage stage Portfolio.pp_outcome
                 oc text)))
        0 12)
    p.Portfolio.slate
  |> String.concat " "

(* Captured before the entrants shared one analysis: the 4-thread
   [Experiments.portfolio_system] of every registry kernel at 128
   registers, and an asymmetric mix at 46 registers and a move budget
   of 8, where SRA is inadmissible, zero-cost tightening stops short
   and the two smaller budgets reject the balancer's 7 moves. *)
let golden_slates =
  [
    ( "md5",
      "347584e1666a 28184761f00b 2cd9d1e540ab cf984d813f54 90c7b58a75dc f9391ba6491e dd2d8035dbd1 e14cae9cecfe 847d7d010a36" );
    ( "fir2dim",
      "8800e1ae065e 65649998a298 9cd9a1c85065 4eedd3f1b9cc b5551f163a07 5f6f0d0217fa 71be5f99468c f3e7c9424dcd ac5030ffce96" );
    ( "frag",
      "ebe5a850173d 14626c543d00 41332abd90b7 c23ffd09326e 26fe2fabbe79 f0742eecc0cc 63ff7b57964f 73cd5af0fe41 ea5c2f53944f" );
    ( "crc32",
      "c52b2f08f64a 47db4cfc2126 7da16dad8a71 93ec511f1878 e522d22b94f0 cddcee6e5591 d7ba4064f930 39d3a2b7138b d1130857161b" );
    ( "drr",
      "03c68de87536 18d7e26be8bb ab7cf154b06d 4ee1ce618682 130e9807e927 4fd146fbcec7 0e36b096072e 568a06726723 f1afb20233d5" );
    ( "url",
      "cb287664124d 3ecc573a310f 7ccf1c76f8c7 580ef2e1c0d0 066d42862bcb 65659abd7b5d 8e31d7ad8233 9840277c6500 9927bb73e178" );
    ( "route",
      "4cd8cc57be45 ac8fece56105 20fe2708e5e9 44d6f8dc715f 871586bfd254 cab5bf344b48 fba28fbb947b d150359ad483 860b91b7176d" );
    ( "l2l3fwd_rx",
      "6fba148d3fa8 4ac81fbb3c64 39ef4b53b60b 33908eea58ff 6202455c019c a97ac05739db d98368f82ed5 9a84335e7e9d a914ddb22fe5" );
    ( "l2l3fwd_tx",
      "7ad9b0d41e08 99fa79beaddc c2e0d7da8524 d3a811c87ba5 76db4e2cd55d 991e3b7a2078 54ca421a950e 52c89602f141 03e2218de2a0" );
    ( "wraps_rx",
      "f494ca1728de d8e84d83f017 f5e9f6e860b8 5983d42e8a81 b242d5fbd8c8 99dfefd75f02 ae3fd7492f42 f31861733f50 b62a21ce0272" );
    ( "wraps_tx",
      "349f84144959 6903bfd324b9 469884907b5a 86d313b5c626 1ec6d5eeb294 76ba7b42c117 3b84de8d856f 2a467f5fc8bc 8e5c981eca59" );
    ( "drr+fir2dim+crc32+route",
      "5cfdfd998405 c6d6ce2b8085 67be29c5c122 4fdc487a2108 5b8b2bec91f8 b3c4274c0386 8e8f067ee0a1 316ef3fdaf6d 8ecda6e587dd" );
  ]

let slate_tests =
  [
    test "every entrant of every registry race matches its golden digest"
      (fun () ->
        List.iter
          (fun (name, want) ->
            let got =
              match String.split_on_char '+' name with
              | [ id ] -> slate_digests ~nreg:128 [ id; id; id; id ]
              | ids -> slate_digests ~move_budget:8 ~nreg:46 ids
            in
            check Alcotest.string name want got)
          golden_slates);
  ]

(* ---------------- one analysis per race ---------------- *)

module Inter = Npra_regalloc.Inter
module Sra = Npra_regalloc.Sra

(* Everything an entrant's result shows: provenance, moves, each
   thread's (PR, SR) and the physical programs; a failure's reason. *)
let render = function
  | Ok b ->
    Fmt.str "%a moves=%d %a@.%s" Pipeline.pp_stage b.Pipeline.provenance
      b.Pipeline.moves
      Fmt.(list ~sep:sp (pair ~sep:(any "/") int int))
      (match b.Pipeline.inter with
      | Some i ->
        Array.to_list (Array.map (fun t -> (t.Inter.pr, t.Inter.sr)) i.Inter.threads)
      | None -> [])
      (String.concat "" (List.map Npra_ir.Prog.to_string b.Pipeline.programs))
  | Error reason -> reason

let entrant_reason = function
  | Ok b -> Ok b
  | Error (Pipeline.Rejected { reason; _ } :: _) -> Error reason
  | Error _ -> Error "no reason"

(* The shuffled entrant as it ran while every entrant analysed for
   itself: a fresh [Inter.allocate] on the permuted web programs, its
   threads put back in caller order, then materialised. *)
let reference_shuffled ~nreg ~seed wprogs =
  let arr = Array.of_list wprogs in
  let n = Array.length arr in
  let perm = Rng.permutation ~seed n in
  match Inter.allocate ~nreg (List.init n (fun j -> arr.(perm.(j)))) with
  | Error (`Infeasible msg) -> Error msg
  | Ok inter ->
    let unperm = Array.make n inter.Inter.threads.(0) in
    Array.iteri (fun j th -> unperm.(perm.(j)) <- th) inter.Inter.threads;
    Ok
      (Pipeline.finish_inter ~nreg ~provenance:(Pipeline.Balanced_shuffled seed)
         { inter with Inter.threads = unperm })

let kernel_ids = List.map (fun s -> s.Workload.id) Registry.all

let analysis_tests =
  [
    prop ~count:6 "qcheck: the shuffled entrant equals a fresh allocation of the permuted programs"
      QCheck.(
        make
          ~print:Print.(triple (list string) int int)
          Gen.(
            triple
              (list_size (int_range 2 4) (oneofl kernel_ids))
              (int_range 1 1_000_000) (int_range 0 3)))
      (fun (ids, seed, under) ->
        let progs, spill_bases = progs_of ids in
        let wprogs = List.map Npra_cfg.Webs.rename progs in
        let threads = analyse wprogs in
        let nreg = Inter.demand threads - under in
        String.equal
          (render (reference_shuffled ~nreg ~seed wprogs))
          (render
             (entrant_reason
                (Pipeline.run_entrant ~nreg ~budget:0 ~spill_bases ~threads
                   (Pipeline.Balanced_shuffled seed)))));
    (* drr is left to the slate digests above: its sweep alone takes
       seconds, and this property runs it twice per case *)
    prop ~count:6 "qcheck: the sra entrant reaches the point Sra picks from a fresh analysis"
      QCheck.(
        make
          ~print:Print.(triple string int int)
          Gen.(
            triple
              (oneofl (List.filter (( <> ) "drr") kernel_ids))
              (int_range 2 4) (int_range 0 6)))
      (fun (id, nthd, under) ->
        let progs, spill_bases = progs_of (List.init nthd (fun _ -> id)) in
        let threads = analyse (List.map Npra_cfg.Webs.rename progs) in
        let nreg = Inter.demand threads - under in
        let fresh = Inter.init_thread (Npra_cfg.Webs.rename (List.hd progs)) in
        match
          ( entrant_reason
              (Pipeline.run_entrant ~nreg ~budget:0 ~spill_bases ~threads
                 Pipeline.Sra_exhaustive),
            Sra.allocate ~nreg ~nthd fresh )
        with
        | Ok b, Ok sra ->
          Array.for_all
            (fun t -> t.Inter.pr = sra.Sra.pr && t.Inter.sr = sra.Sra.sr)
            (Option.get b.Pipeline.inter).Inter.threads
        | Error reason, Error (`Infeasible msg) -> String.equal reason msg
        | Ok _, Error _ | Error _, Ok _ -> false);
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
    ("pipeline.portfolio.slate", slate_tests);
    ("pipeline.portfolio.analysis", analysis_tests);
  ]
