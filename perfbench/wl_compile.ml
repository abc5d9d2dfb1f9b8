(* The [compile] and [squeeze] workloads: a closed loop with one caller
   sending a seeded stream of distinct four-kernel mixes, as assembly
   text, through [Pipeline.run_asm] — the [npra asm] path.

   [compile] allocates every mix at 128 registers, the paper's machine:
   the front half (parse, webs, context, estimate) does nearly all the
   work. [squeeze] gives mixes a register file below their starting
   demand, so the Figure-8 balancer must commit reductions, and a third
   of them fall through to the Chaitin floor: the greedy loop dominates.

   The stream is stratified (see [kinds] and [stream]) so that the shape
   of the per-mix cost distribution is nearly the same at every seed and
   the run's statistics steady. *)

open Npra_ir
open Npra_cfg
open Npra_regalloc
open Npra_workloads
module P = Npra_core.Pipeline

let full_nreg = 128

(* Main-loop iterations of each kernel in the generated code: enough
   for the differential check to exercise every loop, small enough that
   checking is cheap. *)
let iters = 8

type mix = {
  id : int;
  ids : string list;
  src : string;
  nreg : int;
  start : int;  (* demand `Start: before balancing *)
  bound : int;  (* demand `Bound: the estimated lower bound *)
  originals : Prog.t list;
  mem_image : (int * int) list;
}

let ks_of_ids ids = List.map Registry.find_exn ids

(* Pooled demand Σ PR + max SR of threads with estimated bounds [bs],
   at their upper ([`Start]) or lower ([`Bound]) bounds. *)
let demand which bs =
  let pr b = if which = `Start then b.Estimate.max_pr else b.Estimate.min_pr in
  let r b = if which = `Start then b.Estimate.max_r else b.Estimate.min_r in
  List.fold_left (fun a b -> a + pr b) 0 bs
  + List.fold_left (fun a b -> max a (r b - pr b)) 0 bs

let build ~id ~nreg_of ~bounds ks =
  let ws =
    List.mapi (fun slot spec -> Registry.instantiate spec ~slot ~iters) ks
  in
  let originals = List.map (fun w -> w.Workload.prog) ws in
  let bs = List.map bounds ks in
  let start = demand `Start bs and bound = demand `Bound bs in
  {
    id;
    ids = List.map (fun k -> k.Workload.id) ks;
    src = Npra_asm.Printer.to_string_many originals;
    nreg = nreg_of ~start ~bound;
    start;
    bound;
    originals;
    mem_image = List.concat_map (fun w -> w.Workload.mem_image) ws;
  }

(* Per-kernel estimated bounds: fixed, seed-independent set-up work. *)
let kernel_bounds () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun spec ->
      let w = Registry.instantiate spec ~slot:0 ~iters in
      let th = Inter.init_thread (Webs.rename w.Workload.prog) in
      Hashtbl.replace tbl spec.Workload.id th.Inter.bounds)
    Registry.all;
  fun spec -> Hashtbl.find tbl spec.Workload.id

(* A kind of mix: fixed anchor kernels, the rest drawn from a pool,
   and the register file it is allocated into. *)
type target =
  | Full  (* the 128-register file *)
  | Below of int  (* d under min(start, 128), kept above the bound *)
  | Floor  (* one under a bound the mix already sits at: Chaitin *)

type kind = { anchors : string list; pool : string list; target : target }

let small = [ "frag"; "crc32"; "url"; "route"; "l2l3fwd_rx"; "l2l3fwd_tx" ]

(* Per-mix cost follows the heaviest kernels and the squeeze depth, so
   a free draw gives a many-humped cost distribution whose median jumps
   between humps from seed to seed. Fixing the heavy part of each mix
   keeps one hump per kind, and kinds take turns in equal numbers with
   the median inside the middle one.

   [compile]: md5 and wraps_tx, the register-hungry pair the paper
   balances for, with two kernels drawn from the rest of the registry,
   at 128 registers. [squeeze]: drr and fir2dim, the kernels with the
   most room between their bounds (drr in private registers, fir2dim
   in shared ones), with two small kernels, one and two registers below
   their starting demand — plus, taking every third turn, four small
   kernels one register under a bound they already sit at, which the
   balancer rejects at once and the Chaitin floor serves. *)
let kinds ~squeeze =
  if squeeze then
    [
      { anchors = []; pool = [ "frag"; "crc32"; "url"; "route" ]; target = Floor };
      { anchors = [ "drr"; "fir2dim" ]; pool = small; target = Below 1 };
      { anchors = [ "drr"; "fir2dim" ]; pool = small; target = Below 2 };
    ]
  else
    [
      {
        anchors = [ "md5"; "wraps_tx" ];
        pool =
          List.filter
            (fun id -> id <> "md5" && id <> "wraps_tx")
            (List.map (fun k -> k.Workload.id) Registry.all);
        target = Full;
      };
    ]

let nreg_of target ~start ~bound =
  let top = min start full_nreg in
  match target with
  | Full -> full_nreg
  | Below d -> if top <= bound then top else top - min d (top - bound)
  | Floor -> top - 1

(* The lazily extended, seeded mix stream: mix [i] has kind [i mod
   #kinds]. Drawn slots come from per-kind permutations of the pool, so
   every pool kernel appears equally often, and each mix gets a seeded
   thread order. A draw that repeats an earlier mix is replaced, and so
   is a [Full] draw whose starting demand exceeds the register file
   (md5 + wraps_tx + drr + wraps_rx and the like): those few would
   commit seconds of greedy reductions, squeeze's job, and make
   compile's throughput a count of how many a seed drew. *)
let stream ~seed ~squeeze ~bounds =
  let kinds = Array.of_list (kinds ~squeeze) in
  let seen = Hashtbl.create 256 in
  let mixes = ref [||] in
  let draw i =
    let kind = kinds.(i mod Array.length kinds) in
    let pool = Array.of_list kind.pool in
    let npool = Array.length pool in
    let ndraw = 4 - List.length kind.anchors in
    (* the kind's n-th mix takes column n of its block's permutations *)
    let n = i / Array.length kinds in
    let rec attempt salt =
      let block = (n / npool) + (salt * 7919) in
      let col = n mod npool in
      let drawn =
        List.init ndraw (fun k ->
            let perm =
              Npra_core.Rng.permutation
                ~seed:(Stats.derive seed (1 + (i mod Array.length kinds)) ((block * 4) + k))
                npool
            in
            pool.(perm.((col + salt) mod npool)))
      in
      let slots = Array.of_list (kind.anchors @ drawn) in
      let order = Npra_core.Rng.permutation ~seed:(Stats.derive seed 9 ((i * 31) + salt)) 4 in
      let ids = List.init 4 (fun s -> slots.(order.(s))) in
      let key = String.concat "+" ids in
      let overflows =
        kind.target = Full
        && demand `Start (List.map bounds (ks_of_ids ids)) > full_nreg
      in
      if (Hashtbl.mem seen key || overflows) && salt < 64 then attempt (salt + 1)
      else begin
        Hashtbl.replace seen key ();
        build ~id:i ~nreg_of:(nreg_of kind.target) ~bounds (ks_of_ids ids)
      end
    in
    attempt 0
  in
  fun i ->
    while i >= Array.length !mixes do
      mixes := Array.append !mixes [| draw (Array.length !mixes) |]
    done;
    !mixes.(i)

(* ---- checks ---- *)

(* The Chaitin floor's spill stores are allocator traffic, not program
   behaviour: every slot's spill area is its last quarter. *)
let spill_addr a = a mod Workload.instance_size >= Workload.spill_offset

(* Checks one compiled mix and returns the simulation of its generated
   code: (cycles, host seconds), the fastest of three identical runs so
   a cold cache after the compile does not count. *)
let check_mix c (m : mix) result =
  match result with
  | Error e ->
    Common.check c false (fun () ->
        Printf.sprintf "mix %d (%s at %d registers): %s" m.id
          (String.concat "+" m.ids) m.nreg
          (Fmt.str "%a" (P.pp_source_error ?src:None) e));
    (0., 0.)
  | Ok (b : P.balanced) ->
    Common.check c (b.P.verify_errors = []) (fun () ->
        Fmt.str "mix %d: %d verify errors" m.id (List.length b.P.verify_errors));
    let simulate () =
      let t0 = Stats.cpu () in
      let machine = Npra_sim.Machine.run ~mem_image:m.mem_image b.P.programs in
      let dt = Stats.cpu () -. t0 in
      (float_of_int (Npra_sim.Machine.report machine).Npra_sim.Machine.total_cycles, dt)
    in
    let sim, problem =
      match
        let runs = List.init 3 (fun _ -> simulate ()) in
        let fastest = List.fold_left (fun a r -> if snd r < snd a then r else a) (List.hd runs) runs in
        ( fastest,
          P.differential ~ignore_addr:spill_addr ~mem_image:m.mem_image m.originals
            b.P.programs )
      with
      | sim, true -> (sim, None)
      | sim, false -> (sim, Some "differential check against Refexec failed")
      | exception Npra_sim.Machine.Stuck s ->
        ((0., 0.), Some (Fmt.str "generated code is stuck: %a" Npra_sim.Machine.pp_stuck s))
      | exception Npra_sim.Machine.Corruption k ->
        ((0., 0.), Some (Fmt.str "sentinel: %a" Npra_sim.Machine.pp_corruption k))
    in
    Common.check c (problem = None) (fun () ->
        Printf.sprintf "mix %d (%s at %d registers, %s): %s" m.id
          (String.concat "+" m.ids) m.nreg
          (Fmt.str "%a" P.pp_stage b.P.provenance)
          (Option.value problem ~default:""));
    sim

(* ---- traced replay ---- *)

type replay = {
  r_programs : Prog.t list;
  r_instrs : int;
  r_start : int;
  r_final : int option;  (* balanced demand; None when Chaitin served *)
  r_ctx_est_s : float;  (* separately measured context + estimate *)
}

(* [P.balanced_uncached] decomposed into its public calls, one span per
   layer. Inter.allocate runs context and estimate internally; the
   replay also runs them on their own, so the greedy loop's time can be
   isolated as the difference. *)
let replay tr (m : mix) =
  let sp name f = Trace.span tr ~op:m.id name f in
  sp "op" (fun () ->
      let progs =
        match sp "asm.parse" (fun () -> Npra_asm.Parser.parse m.src) with
        | Ok ps -> ps
        | Error _ -> failwith "replay: parse failed"
      in
      ignore
        (sp "pipeline.cache" (fun () ->
             P.cache_key ~nreg:m.nreg ~move_budget:None ~spill_bases:None progs));
      let webs = sp "cfg.webs" (fun () -> List.map Webs.rename progs) in
      (* the separate context + estimate run is cold when it precedes
         Inter.allocate and warm when it follows it; alternating the
         order across mixes cancels that bias in the totals *)
      let bounds = ref [] and ctx_est = ref 0. in
      let context_estimate () =
        let t0 = Stats.now () in
        let ctxs = sp "regalloc.context" (fun () -> List.map Context.create webs) in
        bounds :=
          sp "regalloc.estimate" (fun () ->
              List.map (fun c -> snd (Estimate.run c)) ctxs);
        ctx_est := Stats.now () -. t0
      in
      if m.id / 2 mod 2 = 0 then context_estimate ();
      let inter = sp "regalloc.inter" (fun () -> Inter.allocate ~nreg:m.nreg webs) in
      if m.id / 2 mod 2 = 1 then context_estimate ();
      let start = demand `Start !bounds in
      let chaitin () =
        sp "regalloc.chaitin" (fun () ->
            let layout, _, programs =
              P.chaitin_partition ~nreg:m.nreg
                ~spill_bases:(P.default_spill_bases webs) webs
            in
            ignore (Verify.check_system layout programs);
            programs)
      in
      let programs, final =
        match inter with
        | Error _ -> (chaitin (), None)
        | Ok inter -> (
          let threads = Array.to_list inter.Inter.threads in
          match
            sp "regalloc.rewrite" (fun () ->
                let layout =
                  Assign.layout ~nreg:m.nreg
                    ~prs:(List.map (fun t -> t.Inter.pr) threads)
                    ~sgr:inter.Inter.sgr
                in
                ( layout,
                  List.mapi
                    (fun i th ->
                      Rewrite.apply th.Inter.ctx
                        ~reg_of_color:(Assign.reg_of_color layout ~thread:i))
                    threads ))
          with
          | layout, programs ->
            sp "regalloc.verify" (fun () ->
                ignore (Verify.check_system layout programs));
            (programs, Some (Inter.demand inter.Inter.threads))
          | exception Rewrite.Incomplete_coloring _ -> (chaitin (), None))
      in
      {
        r_programs = programs;
        r_instrs = List.fold_left (fun a p -> a + Prog.length p) 0 progs;
        r_start = start;
        r_final = final;
        r_ctx_est_s = !ctx_est;
      })

(* ---- the workload ---- *)

let layout_demand (b : P.balanced) =
  Array.fold_left ( + ) 0 b.P.layout.Assign.private_size + b.P.layout.Assign.sgr

let setup ~squeeze ~seed =
  let bounds = kernel_bounds () in
  let mix = stream ~seed ~squeeze ~bounds in
  (* warm-up: one fixed mix, the same work at every seed *)
  let warm =
    build ~id:(-1)
      ~nreg_of:(nreg_of (if squeeze then Below 1 else Full))
      ~bounds
      (ks_of_ids [ "md5"; "drr"; "url"; "route" ])
  in
  ignore (P.run_asm ~nreg:warm.nreg warm.src);
  ignore (mix 0);
  (* untraced results, kept for the replay's byte-equality check *)
  let done_ = Hashtbl.create 256 in
  let replays = Hashtbl.create 64 in
  let cycles_of = Hashtbl.create 256 in
  let run_op i =
    let m = mix i in
    let r = P.run_asm ~nreg:m.nreg m.src in
    Hashtbl.replace done_ i
      ( m,
        Result.to_option r
        |> Option.map (fun (b : P.balanced) ->
               ( b.P.programs,
                 layout_demand b,
                 b.P.moves,
                 List.fold_left ( + ) 0 b.P.spilled_ranges )) );
    (* every mix is distinct, so the cache never serves the stream; it
       is emptied after each mix to keep memory a property of one mix
       rather than of how many the run got through *)
    let verify c =
      let ((cycles, _) as sim) = check_mix c m r in
      Hashtbl.replace cycles_of i cycles;
      P.cache_clear ();
      sim
    in
    { Common.cycles = 0.; sim_s = 0.; verify }
  in
  let trace tr i = Hashtbl.replace replays i (replay tr (mix i)) in
  let layers tr ~untraced_s ~untraced_cycles:_ ~ops c =
    (* byte-equality of the replay with the untraced run_asm output, and
       the deterministic quality of what was compiled *)
    let demand_regs = ref 0 and moves = ref 0 and spilled = ref 0 and cycles = ref 0. in
    let instrs = ref 0 and reductions = ref 0 and chaitin_mixes = ref 0 in
    let dup = ref 0. in
    for i = 0 to ops - 1 do
      let m, r = Hashtbl.find done_ i in
      let rp = Hashtbl.find replays i in
      instrs := !instrs + rp.r_instrs;
      dup := !dup +. rp.r_ctx_est_s;
      (match rp.r_final with
      | Some f -> reductions := !reductions + (rp.r_start - f)
      | None -> incr chaitin_mixes);
      match r with
      | Some (programs, d, mv, sp) ->
        Common.check c
          (Npra_asm.Printer.to_string_many programs
          = Npra_asm.Printer.to_string_many rp.r_programs)
          (fun () -> Fmt.str "mix %d: traced replay differs from run_asm" m.id);
        demand_regs := !demand_regs + d;
        moves := !moves + mv;
        spilled := !spilled + sp;
        cycles := !cycles +. Option.value (Hashtbl.find_opt cycles_of i) ~default:0.
      | None -> ()
    done;
    let self = Trace.layer_self tr in
    let ms name = 1e3 *. Option.value (List.assoc_opt name self) ~default:0. in
    let inter_reduce = ms "regalloc.inter" -. (1e3 *. !dup) in
    let attributed =
      ms "asm.parse" +. ms "pipeline.cache" +. ms "cfg.webs" +. ms "regalloc.context"
      +. ms "regalloc.estimate" +. inter_reduce +. ms "regalloc.rewrite"
      +. ms "regalloc.verify" +. ms "regalloc.chaitin"
    in
    (* the replay ran context + estimate twice; its own time counts the
       copy inside Inter.allocate only *)
    let traced_ms = (1e3 *. Trace.total_of tr "op") -. (1e3 *. !dup) in
    let untraced_ms = 1e3 *. untraced_s in
    [
      ("asm.parse_ms", ms "asm.parse");
      ( "asm.kinstr_per_s",
        if ms "asm.parse" > 0. then float_of_int !instrs /. ms "asm.parse" else 0. );
      ("cfg.webs_ms", ms "cfg.webs");
      ("regalloc.context_ms", ms "regalloc.context");
      ("regalloc.estimate_ms", ms "regalloc.estimate");
      ("regalloc.rewrite_ms", ms "regalloc.rewrite");
      ("regalloc.verify_ms", ms "regalloc.verify");
      ("regalloc.inter_reduce_ms", inter_reduce);
      ("regalloc.inter_reductions", float_of_int !reductions);
      ( "regalloc.ms_per_reduction",
        if !reductions > 0 then inter_reduce /. float_of_int !reductions else 0. );
      ("regalloc.chaitin_ms", ms "regalloc.chaitin");
      ("regalloc.chaitin_mixes", float_of_int !chaitin_mixes);
      ("regalloc.demand_regs", float_of_int !demand_regs);
      ("regalloc.moves", float_of_int !moves);
      ("regalloc.spilled_ranges", float_of_int !spilled);
      ("machine.generated_kcycles", !cycles /. 1e3);
      ("pipeline.unattributed_share", 1. -. (attributed /. traced_ms));
      ("trace.attributed_share", attributed /. traced_ms);
      ("trace.overhead_pct", 100. *. ((traced_ms /. untraced_ms) -. 1.));
    ]
  in
  {
    Common.tail_pct = 75.;
    run_op;
    trace;
    layers;
  }
