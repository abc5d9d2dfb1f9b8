(* The paper's evaluation (§9): Table 1, Figure 14, Table 2, Table 3.

   Every experiment is a pure function from the workload registry to
   typed rows plus a {!Report.t} renderer, so the bench harness, the CLI
   and the tests share one implementation. *)

open Npra_ir
open Npra_cfg
open Npra_regalloc
open Npra_sim
open Npra_workloads

let nreg = 128
let nthd = 4

(* ------------------------------------------------------------------ *)
(* Table 1: benchmark properties.                                      *)

type table1_row = {
  t1_name : string;
  code_size : int;
  cycles_per_iter : float;  (* single-thread run, full register file *)
  ctx_instrs : int;
  live_ranges : int;
  regp_max : int;
  regp_csb_max : int;
  max_r : int;
  max_pr : int;
  nsr_count : int;
  nsr_avg_size : float;
}

let single_thread_cycles (sys : Registry.system) prog =
  (* Allocate the lone thread (its renamed [prog]) against the whole
     register file — no spills, no sharing — and measure cycles per
     main-loop iteration. *)
  let result =
    Chaitin.allocate ~k:nreg ~spill_base:(List.hd sys.spill_bases) prog
  in
  let layout = Assign.fixed_partition ~nreg ~nthd:1 in
  let physical =
    Rewrite.apply_map result.Chaitin.prog result.Chaitin.coloring
      ~reg_of_color:(Assign.reg_of_color layout ~thread:0)
  in
  let machine = Machine.run ~mem_image:sys.mem_image [ physical ] in
  let report = Machine.report machine in
  match (List.hd report.Machine.thread_reports).Machine.completion with
  | Some c -> float_of_int c /. float_of_int (List.hd sys.workloads).iters
  | None -> Float.nan

let table1_row spec =
  let sys = Registry.system [ spec ] in
  let prog = Webs.rename (List.hd sys.progs) in
  let ctx = Context.create prog in
  let _colored, bounds = Estimate.run ctx in
  let regions = Nsr.compute prog in
  {
    t1_name = spec.Workload.id;
    code_size = Prog.length prog;
    cycles_per_iter = single_thread_cycles sys prog;
    ctx_instrs = Prog.count_ctx_switches prog;
    live_ranges = Context.num_nodes ctx;
    regp_max = bounds.Estimate.min_r;
    regp_csb_max = bounds.Estimate.min_pr;
    max_r = bounds.Estimate.max_r;
    max_pr = bounds.Estimate.max_pr;
    nsr_count = Nsr.num_regions regions;
    nsr_avg_size = Nsr.average_size regions;
  }

let table1 () = List.map table1_row Registry.all

let table1_report rows =
  Report.make ~title:"Table 1: benchmark applications"
    ~headers:
      [
        "benchmark"; "#instr"; "cyc/iter"; "#CTX"; "#ranges"; "RegPmax";
        "RegPCSBmax"; "MaxR"; "MaxPR"; "#NSR"; "NSRsize";
      ]
    ~aligns:[ Report.L; R; R; R; R; R; R; R; R; R; R ]
    (List.map
       (fun r ->
         [
           r.t1_name;
           string_of_int r.code_size;
           Report.float1 r.cycles_per_iter;
           string_of_int r.ctx_instrs;
           string_of_int r.live_ranges;
           string_of_int r.regp_max;
           string_of_int r.regp_csb_max;
           string_of_int r.max_r;
           string_of_int r.max_pr;
           string_of_int r.nsr_count;
           Report.float1 r.nsr_avg_size;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Figure 14: SRA register demand at zero move cost vs the single-     *)
(* thread Chaitin allocation, four identical threads.                  *)

type fig14_data = {
  chaitin_colors : int;  (* single-thread allocator register count *)
  pr : int;
  sr : int;
  partitioned_demand : int;  (* 4 * chaitin *)
  shared_demand : int;  (* 4 * PR + SR *)
  saving_pct : float;
}

(* An infeasible kernel annotates its row instead of killing the run. *)
type fig14_row = {
  f14_name : string;
  f14_data : fig14_data option;
  f14_note : string option;
}

let fig14_row spec =
  let w = Registry.instantiate spec ~slot:0 in
  let prog = Webs.rename w.Workload.prog in
  let chaitin_colors = Chaitin.color_count prog in
  match Inter.balance ~nreg `Zero_cost [| Inter.init_thread prog |] with
  | Error (`Infeasible m) ->
    { f14_name = spec.Workload.id; f14_data = None; f14_note = Some m }
  | Ok inter ->
    let th = inter.Inter.threads.(0) in
    let pr = th.Inter.pr and sr = th.Inter.sr in
    let partitioned = nthd * chaitin_colors in
    let shared = (nthd * pr) + sr in
    {
      f14_name = spec.Workload.id;
      f14_data =
        Some
          {
            chaitin_colors;
            pr;
            sr;
            partitioned_demand = partitioned;
            shared_demand = shared;
            saving_pct =
              100. *. (1. -. (float_of_int shared /. float_of_int partitioned));
          };
      f14_note = None;
    }

let fig14 () = List.map fig14_row Registry.all

let fig14_average rows =
  let savings = List.filter_map (fun r -> r.f14_data) rows in
  let sum = List.fold_left (fun a d -> a +. d.saving_pct) 0. savings in
  sum /. float_of_int (List.length savings)

let fig14_report rows =
  Report.make
    ~title:
      "Figure 14: registers for 4 identical threads (zero-move SRA) vs \
       4x single-thread Chaitin"
    ~headers:
      [ "benchmark"; "chaitin"; "PR"; "SR"; "4*chaitin"; "4*PR+SR"; "saving" ]
    ~aligns:[ Report.L; R; R; R; R; R; R ]
    (List.map
       (fun r ->
         match r.f14_data with
         | Some d ->
           [
             r.f14_name;
             string_of_int d.chaitin_colors;
             string_of_int d.pr;
             string_of_int d.sr;
             string_of_int d.partitioned_demand;
             string_of_int d.shared_demand;
             Fmt.str "%.1f%%" d.saving_pct;
           ]
         | None ->
           let note =
             match r.f14_note with Some n -> n | None -> "infeasible"
           in
           [ r.f14_name; "(" ^ note ^ ")"; "-"; "-"; "-"; "-"; "-" ])
       rows)

(* ------------------------------------------------------------------ *)
(* Table 2: move insertions in the extreme case — the thread driven    *)
(* all the way down to its minimal register numbers.                   *)

type table2_data = {
  t2_code_size : int;
  min_pr : int;
  min_r : int;
  reached_pr : int;  (* = min_pr except when a write-back hazard pushes
                        the floor up, see Intra.reduce_to_best *)
  reached_r : int;
  moves_inserted : int;
  overhead_pct : float;
}

(* A kernel that cannot reduce annotates its row instead of killing the
   whole experiment run. *)
type table2_row = {
  t2_name : string;
  t2_data : table2_data option;
  t2_note : string option;
}

let table2_row spec =
  let w = Registry.instantiate spec ~slot:0 in
  let prog = Webs.rename w.Workload.prog in
  let ctx = Context.create prog in
  let ctx, b = Estimate.run ctx in
  let target_pr = b.Estimate.min_pr in
  let target_sr = max 0 (b.Estimate.min_r - target_pr) in
  match
    Intra.reduce_to_best ctx ~pr:b.Estimate.max_pr ~r:b.Estimate.max_r
      ~target_pr ~target_sr
  with
  | None ->
    {
      t2_name = spec.Workload.id;
      t2_data = None;
      t2_note = Some "cannot reduce at all";
    }
  | Some (red, pr, sr) ->
    {
      t2_name = spec.Workload.id;
      t2_data =
        Some
          {
            t2_code_size = Prog.length prog;
            min_pr = target_pr;
            min_r = b.Estimate.min_r;
            reached_pr = pr;
            reached_r = pr + sr;
            moves_inserted = red.Intra.cost;
            overhead_pct =
              100. *. float_of_int red.Intra.cost
              /. float_of_int (Prog.length prog);
          };
      t2_note = None;
    }

let table2 () = List.map table2_row Registry.all

let table2_report rows =
  Report.make
    ~title:"Table 2: moves inserted at the minimal register allocation"
    ~headers:
      [ "benchmark"; "#instr"; "MinPR"; "MinR"; "PR"; "R"; "#moves"; "overhead" ]
    ~aligns:[ Report.L; R; R; R; R; R; R; R ]
    (List.map
       (fun r ->
         match r.t2_data with
         | Some d ->
           [
             r.t2_name;
             string_of_int d.t2_code_size;
             string_of_int d.min_pr;
             string_of_int d.min_r;
             string_of_int d.reached_pr;
             string_of_int d.reached_r;
             string_of_int d.moves_inserted;
             Fmt.str "%.1f%%" d.overhead_pct;
           ]
         | None ->
           let note =
             match r.t2_note with Some n -> n | None -> "no reduction"
           in
           [ r.t2_name; "(" ^ note ^ ")"; "-"; "-"; "-"; "-"; "-"; "-" ])
       rows)

(* ------------------------------------------------------------------ *)
(* Table 3: the three ARA scenarios — spilling baseline vs balanced    *)
(* register sharing, measured on the cycle-level machine.              *)

type scenario = { scenario_name : string; thread_ids : string list }

let scenarios =
  [
    { scenario_name = "S1: md5 x2 + fir2dim x2";
      thread_ids = [ "md5"; "md5"; "fir2dim"; "fir2dim" ] };
    { scenario_name = "S2: l2l3fwd rx/tx + md5 x2";
      thread_ids = [ "l2l3fwd_rx"; "l2l3fwd_tx"; "md5"; "md5" ] };
    { scenario_name = "S3: wraps rx/tx + fir2dim + frag";
      thread_ids = [ "wraps_rx"; "wraps_tx"; "fir2dim"; "frag" ] };
  ]

type table3_thread = {
  t3_name : string;
  t3_pr : int;
  t3_sr : int;
  t3_ranges : int;  (* live-range segments after allocation *)
  ctx_spill : int;  (* static CTX instructions, spilling baseline *)
  ctx_sharing : int;
  cyc_spill : float;  (* cycles per iteration under the baseline *)
  cyc_sharing : float;
  change_pct : float;  (* negative = faster with register sharing *)
  solo_change_pct : float;
      (* the same comparison with the thread run alone: isolates the
         allocation effect (spill removal vs inserted moves) from PU
         contention *)
  spilled : int;
}

type table3_row = {
  scenario : string;
  threads : table3_thread list;
  t3_verify_errors : int;
  t3_provenance : Pipeline.stage;
      (* which pipeline stage served the sharing allocation *)
}

let table3_scenario sc =
  let { Registry.workloads; progs; mem_image; spill_bases } =
    Registry.system (List.map Registry.find_exn sc.thread_ids)
  in
  let iters = List.map (fun w -> w.Workload.iters) workloads in
  (* Baseline: per-thread Chaitin into the fixed 32-register partition. *)
  let base = Pipeline.baseline ~nreg ~spill_bases progs in
  let base_report =
    Machine.report (Machine.run ~mem_image base.Pipeline.base_programs)
  in
  let base_cycles = Pipeline.cycles_per_iteration base_report iters in
  (* Balanced: the paper's allocator (degrading gracefully if it must). *)
  match Pipeline.balanced ~nreg ~spill_bases progs with
  | Error _ ->
    {
      scenario = sc.scenario_name;
      threads = [];
      t3_verify_errors = 0;
      t3_provenance = Pipeline.Chaitin_fallback;
    }
  | Ok bal ->
    let bal_report =
      Machine.report (Machine.run ~mem_image bal.Pipeline.programs)
    in
    let bal_cycles = Pipeline.cycles_per_iteration bal_report iters in
    let solo prog w =
      let report =
        Machine.report (Machine.run ~mem_image:w.Workload.mem_image [ prog ])
      in
      match (List.hd report.Machine.thread_reports).Machine.completion with
      | Some c -> float_of_int c /. float_of_int w.Workload.iters
      | None -> Float.nan
    in
    (* Per-thread register numbers, whichever stage produced them: the
       balancer records PR/SR directly; the Chaitin fallback's layout
       carries the fixed partition. *)
    let pr_sr_ranges i =
      match bal.Pipeline.inter with
      | Some inter ->
        let th = inter.Inter.threads.(i) in
        (th.Inter.pr, th.Inter.sr, Context.num_nodes th.Inter.ctx)
      | None ->
        let ranges =
          match bal.Pipeline.chaitin with
          | Some results ->
            Reg.Map.cardinal (List.nth results i).Chaitin.coloring
          | None -> 0
        in
        (bal.Pipeline.layout.Assign.private_size.(i), 0, ranges)
    in
    let threads =
      List.mapi
        (fun i w ->
          let t3_pr, t3_sr, t3_ranges = pr_sr_ranges i in
          let base_prog = List.nth base.Pipeline.base_programs i in
          let bal_prog = List.nth bal.Pipeline.programs i in
          let cyc_spill = List.nth base_cycles i in
          let cyc_sharing = List.nth bal_cycles i in
          let solo_spill = solo base_prog w in
          let solo_sharing = solo bal_prog w in
          {
            t3_name = w.Workload.name;
            t3_pr;
            t3_sr;
            t3_ranges;
            ctx_spill = Prog.count_ctx_switches base_prog;
            ctx_sharing = Prog.count_ctx_switches bal_prog;
            cyc_spill;
            cyc_sharing;
            change_pct = 100. *. ((cyc_sharing /. cyc_spill) -. 1.);
            solo_change_pct = 100. *. ((solo_sharing /. solo_spill) -. 1.);
            spilled = List.nth base.Pipeline.spilled_ranges i;
          })
        workloads
    in
    {
      scenario = sc.scenario_name;
      threads;
      t3_verify_errors = List.length bal.Pipeline.verify_errors;
      t3_provenance = bal.Pipeline.provenance;
    }

let table3 () = List.map table3_scenario scenarios

let table3_report rows =
  let body =
    List.concat_map
      (fun row ->
        let title =
          match row.t3_provenance with
          | Pipeline.Balanced -> row.scenario
          | p -> Fmt.str "%s [served by %a]" row.scenario Pipeline.pp_stage p
        in
        [ title; ""; ""; ""; ""; ""; ""; ""; ""; ""; "" ]
        :: List.map
             (fun t ->
               [
                 "  " ^ t.t3_name;
                 string_of_int t.t3_pr;
                 string_of_int t.t3_sr;
                 string_of_int t.t3_ranges;
                 string_of_int t.spilled;
                 string_of_int t.ctx_spill;
                 string_of_int t.ctx_sharing;
                 Report.float1 t.cyc_spill;
                 Report.float1 t.cyc_sharing;
                 Report.pct t.change_pct;
                 Report.pct t.solo_change_pct;
               ])
             row.threads)
      rows
  in
  Report.make ~title:"Table 3: ARA scenarios, spilling vs register sharing"
    ~headers:
      [
        "thread"; "PR"; "SR"; "#ranges"; "#spilled"; "CTX(spill)";
        "CTX(share)"; "cyc(spill)"; "cyc(share)"; "change"; "solo-chg";
      ]
    ~aligns:[ Report.L; R; R; R; R; R; R; R; R; R; R ]
    body

(* ------------------------------------------------------------------ *)
(* Portfolio race: every registry kernel as a 4-thread symmetric mix,  *)
(* the parallel strategy portfolio against the sequential fallback     *)
(* chain. The JSON payload is deterministic (no wall clock; the bench  *)
(* harness splices that in), so the jobs-invariance tests can compare  *)
(* it byte-for-byte across job counts.                                 *)

type portfolio_row = {
  p_kernel : string;
  p_chain : (Pipeline.stage * Portfolio.score) option;
      (* what the fallback chain served; [None] if every stage failed *)
  p_winner : (Pipeline.stage * Portfolio.score) option;
      (* the portfolio winner; [None] if the whole slate failed *)
  p_probed : int;  (* distinct candidates the throughput probe ran on *)
  p_never_loses : bool;  (* winner's static score <= the chain's *)
  p_entrants : (Pipeline.stage * Portfolio.outcome) list;
}

(* One engine per kernel on disjoint memory slots, sized for packet
   service: each restart processes one packet's worth of iterations of
   the kernel's default traffic, which the probe replays for [horizon]
   cycles. *)
let portfolio_system ~horizon specs =
  let sys, traffic = Registry.traffic_system specs in
  ( sys.Registry.progs,
    sys.spill_bases,
    {
      Portfolio.probe_mem_image = sys.mem_image;
      probe_traffic = traffic;
      probe_horizon = horizon;
    } )

(* Four engines of the same kernel — symmetric by construction, so the
   SRA entrant is admissible. *)
let portfolio_row ?(pool = Npra_par.Pool.sequential) ~seed ~horizon spec =
  let progs, spill_bases, probe =
    portfolio_system ~horizon (List.init nthd (fun _ -> spec))
  in
  let chain = Pipeline.balanced ~nreg ~spill_bases progs in
  let port = Portfolio.race ~pool ~nreg ~spill_bases ~seed ~probe progs in
  let p_chain =
    match chain with
    | Ok c -> Some (c.Pipeline.provenance, Portfolio.static_score c)
    | Error _ -> None
  in
  let p_winner, p_probed, p_entrants =
    match port with
    | Ok p ->
      ( Some (p.Portfolio.winner.Pipeline.provenance, p.Portfolio.winner_score),
        p.Portfolio.probed,
        p.Portfolio.slate )
    | Error trail ->
      ( None,
        0,
        List.filter_map
          (function
            | Pipeline.Rejected { stage; reason } ->
              Some (stage, Portfolio.Failed reason)
            | Pipeline.Cache_hit _ -> None)
          trail )
  in
  let p_never_loses =
    match (p_chain, p_winner) with
    | None, _ -> true  (* nothing to lose to *)
    | Some _, None -> false  (* the chain found something; the slate didn't *)
    | Some (_, csc), Some (_, wsc) -> Portfolio.compare_static wsc csc <= 0
  in
  {
    p_kernel = spec.Workload.id;
    p_chain;
    p_winner;
    p_probed;
    p_never_loses;
    p_entrants;
  }

let portfolio_quick_ids = [ "crc32"; "url"; "wraps_rx" ]

let portfolio_rows ?pool ?(quick = false) ?(seed = 1) () =
  let specs =
    if quick then
      List.filter
        (fun s -> List.mem s.Workload.id portfolio_quick_ids)
        Registry.all
    else Registry.all
  in
  let horizon = if quick then 6_000 else 24_000 in
  List.map (portfolio_row ?pool ~seed ~horizon) specs

let portfolio_ok rows = List.for_all (fun r -> r.p_never_loses) rows

let stage_name st = Fmt.str "%a" Pipeline.pp_stage st

let portfolio_report rows =
  let cell = function
    | None -> [ "(failed)"; "-"; "-"; "-" ]
    | Some (st, sc) ->
      [
        stage_name st;
        string_of_int sc.Portfolio.sc_spills;
        string_of_int sc.Portfolio.sc_moves;
        string_of_int sc.Portfolio.sc_demand;
      ]
  in
  Report.make ~title:"Portfolio: strategy race vs the fallback chain"
    ~headers:
      [
        "benchmark"; "chain stage"; "spill"; "moves"; "demand";
        "winner stage"; "spill"; "moves"; "demand"; "probed"; "never-loses";
      ]
    ~aligns:[ Report.L; L; R; R; R; L; R; R; R; R; L ]
    (List.map
       (fun r ->
         (r.p_kernel :: cell r.p_chain)
         @ cell r.p_winner
         @ [ string_of_int r.p_probed; (if r.p_never_loses then "yes" else "NO") ])
       rows)

(* The score fields shared by BENCH_portfolio.json and
   [npra portfolio --json], so downstream tooling parses both. *)
let score_fields (sc : Portfolio.score) =
  [ ("unsafe", Json.Int sc.Portfolio.sc_unsafe); ("spilled", Int sc.Portfolio.sc_spills);
    ("moves", Int sc.Portfolio.sc_moves); ("demand", Int sc.Portfolio.sc_demand);
    ("probe", match sc.Portfolio.sc_probe with Some p -> Int p | None -> Null) ]

let entrant_json (st, oc) =
  let outcome =
    match oc with
    | Portfolio.Won _ -> "won"
    | Portfolio.Lost { reason; _ } -> "lost: " ^ reason
    | Portfolio.Failed reason -> "failed: " ^ reason
  in
  Json.Obj [ ("stage", String (stage_name st)); ("outcome", String outcome) ]

(* The deterministic payload of BENCH_portfolio.json: same seed, same
   bytes at any job count. The harness appends the wall_clock block. *)
let portfolio_json ~seed ~quick rows =
  let scored = function
    | None -> Json.Null
    | Some (st, sc) -> Obj (("stage", String (stage_name st)) :: score_fields sc)
  in
  let margin = function
    | Some (_, c), Some (_, w) ->
      Json.Obj
        [ ("spilled", Int (c.Portfolio.sc_spills - w.Portfolio.sc_spills));
          ("moves", Int (c.Portfolio.sc_moves - w.Portfolio.sc_moves));
          ("demand", Int (c.Portfolio.sc_demand - w.Portfolio.sc_demand)) ]
    | _ -> Null
  in
  let row r =
    Json.Obj
      [ ("kernel", String r.p_kernel); ("chain", scored r.p_chain);
        ("winner", scored r.p_winner); ("margin", margin (r.p_chain, r.p_winner));
        ("probed", Int r.p_probed); ("never_loses", Bool r.p_never_loses);
        ("entrants", List (List.map entrant_json r.p_entrants)) ]
  in
  Json.Obj
    [ ("benchmark", String "portfolio"); ("seed", Int seed); ("quick", Bool quick);
      ("kernels", List (List.map row rows));
      ("never_loses_all", Bool (portfolio_ok rows)) ]

(* Canonical JSON for a single portfolio race — the payload of
   [npra portfolio --json]. *)
let portfolio_race_json ~seed ~nreg (p : Portfolio.t) =
  let w = p.Portfolio.winner in
  Json.Obj
    [ ("seed", Int seed); ("nreg", Int nreg); ("probed", Int p.Portfolio.probed);
      ( "winner",
        Obj
          [ ("stage", String (stage_name w.Pipeline.provenance));
            ("score", Obj (score_fields p.Portfolio.winner_score));
            ("moves", Int w.Pipeline.moves);
            ( "spilled_ranges",
              List (List.map (fun r -> Json.Int r) w.Pipeline.spilled_ranges) );
            ("verified", Bool (w.Pipeline.verify_errors = [])) ] );
      ("slate", List (List.map entrant_json p.Portfolio.slate)) ]
