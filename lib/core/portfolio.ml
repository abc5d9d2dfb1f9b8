(* Portfolio allocation: race the contenders, keep the best.

   The fallback chain ({!Pipeline.balanced}) is pessimistic — it tries
   one strategy at a time and settles for the first that works, so a
   kernel that barely misses the first stage pays full latency and may
   accept a strictly worse colouring. [race] instead builds a
   deterministic slate of strategies, fans them out over an
   [Npra_par.Pool], and scores every survivor:

     1. verified pressure bound, lexicographically —
        (verify errors, spilled ranges, moves, register demand), all
        ascending;
     2. among survivors tied on the static score, an optional bounded
        simulated-throughput probe (packets served under the workload's
        traffic spec within a fixed horizon, higher wins);
     3. remaining ties go to the earlier slate position.

   The slate always contains the exact stages of the fallback chain
   (balanced at the default move budget, balanced-relaxed, Chaitin),
   run by the same code, so the winner can never score worse than
   whatever the chain would have served — the never-loses property the
   test suite and CI enforce.
   Every pool result is task-indexed and every entrant is deterministic,
   so the race result is byte-identical at any job count. *)

open Npra_sim
open Pipeline

module Workload = Npra_workloads.Workload

(* Lexicographic quality of one allocation; lower is better on every
   static component. [sc_probe] is packets served by the throughput
   probe — higher is better — and only set on tied survivors. *)
type score = {
  sc_unsafe : int;  (* verification errors; 0 for any survivor *)
  sc_spills : int;  (* total spilled live ranges across threads *)
  sc_moves : int;  (* move instructions materialised *)
  sc_demand : int;  (* Σ private block sizes + shared block *)
  sc_probe : int option;  (* packets served by the probe, if probed *)
}

let static_score (b : balanced) =
  {
    sc_unsafe = List.length b.verify_errors;
    sc_spills = List.fold_left ( + ) 0 b.spilled_ranges;
    sc_moves = b.moves;
    sc_demand =
      Npra_regalloc.Assign.(
        Array.fold_left ( + ) 0 b.layout.private_size + b.layout.sgr);
    sc_probe = None;
  }

let compare_static a b =
  let c = compare a.sc_unsafe b.sc_unsafe in
  if c <> 0 then c
  else
    let c = compare a.sc_spills b.sc_spills in
    if c <> 0 then c
    else
      let c = compare a.sc_moves b.sc_moves in
      if c <> 0 then c else compare a.sc_demand b.sc_demand

let pp_score ppf s =
  Fmt.pf ppf "unsafe=%d spills=%d moves=%d demand=%d" s.sc_unsafe s.sc_spills
    s.sc_moves s.sc_demand;
  match s.sc_probe with
  | Some p -> Fmt.pf ppf " probe=%d" p
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Bounded throughput probe.

   Replays the packet-traffic dispatcher in miniature: threads start
   parked, packets arrive on each thread's deterministic effective
   period, a completed thread with backlog is restarted, and the run is
   sliced with {!Machine.run_until} up to [probe_horizon] cycles. The
   figure of merit is packets fully served. A machine fault (register
   clash, corruption trap) scores [None] — strictly worse than any
   completed probe. *)

type probe = {
  probe_mem_image : (int * int) list;
  probe_traffic : Workload.traffic_spec list;  (* one spec per thread *)
  probe_horizon : int;
}

(* Deterministic effective arrival period of a traffic spec: the mean
   inter-arrival gap, so the probe offers the same load the dispatcher
   would on average without needing its seeded stream. *)
let probe_arrival_period (spec : Workload.traffic_spec) =
  let rec period_of = function
    | Workload.Uniform { period } -> max 1 period
    | Workload.Poisson { mean_period } -> max 1 mean_period
    | Workload.Bursty { on_cycles; off_cycles; period } ->
      max 1 (period * (on_cycles + off_cycles) / max 1 on_cycles)
    | Workload.Windowed { inner; _ } -> period_of inner
  in
  period_of spec.Workload.arrival

let probe_served probe programs =
  let nthd = List.length programs in
  if List.length probe.probe_traffic <> nthd then
    Fmt.invalid_arg "Portfolio.probe_served: %d traffic specs for %d threads"
      (List.length probe.probe_traffic)
      nthd;
  match
    let m =
      Machine.create ~mem_image:probe.probe_mem_image programs
    in
    for i = 0 to nthd - 1 do
      Machine.park_thread m i
    done;
    let period =
      Array.of_list (List.map probe_arrival_period probe.probe_traffic)
    in
    let cap =
      Array.of_list
        (List.map (fun t -> t.Workload.queue_capacity) probe.probe_traffic)
    in
    let next = Array.init nthd (fun i -> period.(i)) in
    let queue = Array.make nthd 0 in
    let served = ref 0 in
    let horizon = probe.probe_horizon in
    let rec loop () =
      let now = Machine.cycle m in
      if now >= horizon then !served
      else begin
        for i = 0 to nthd - 1 do
          while next.(i) <= now do
            if queue.(i) < cap.(i) then queue.(i) <- queue.(i) + 1;
            next.(i) <- next.(i) + period.(i)
          done
        done;
        for i = 0 to nthd - 1 do
          match Machine.thread_state m i with
          | Machine.Completed _ when queue.(i) > 0 ->
            queue.(i) <- queue.(i) - 1;
            Machine.restart_thread m i
          | _ -> ()
        done;
        let next_event = Array.fold_left min max_int next in
        let hz = max (now + 1) (min horizon next_event) in
        (match Machine.run_until ~stop_on_halt:true m ~horizon:hz with
        | `Halted _ -> incr served
        | `Idle | `Horizon -> ());
        loop ()
      end
    in
    loop ()
  with
  | n -> Some n
  | exception Machine.Stuck _ -> None
  | exception Machine.Corruption _ -> None

(* What happened to each slate entrant, in slate order. *)
type outcome =
  | Won of score
  | Lost of { score : score; reason : string }
  | Failed of string  (* produced no safe allocation *)

let pp_outcome ppf = function
  | Won sc -> Fmt.pf ppf "won (%a)" pp_score sc
  | Lost { score; reason } -> Fmt.pf ppf "lost (%a): %s" pp_score score reason
  | Failed reason -> Fmt.pf ppf "failed: %s" reason

type t = {
  winner : balanced;
      (* trail lists every losing entrant as [Rejected], then the
         winner's own notes (e.g. its [Cache_hit]) *)
  winner_score : score;
  slate : (stage * outcome) list;  (* every entrant, slate order *)
  probed : int;  (* distinct candidates the throughput probe ran on *)
}

let lose_reason ~winner wsc lsc =
  let why =
    if lsc.sc_unsafe > wsc.sc_unsafe then
      Fmt.str "%d verify errors vs %d" lsc.sc_unsafe wsc.sc_unsafe
    else if lsc.sc_spills > wsc.sc_spills then
      Fmt.str "%d spilled ranges vs %d" lsc.sc_spills wsc.sc_spills
    else if lsc.sc_moves > wsc.sc_moves then
      Fmt.str "%d moves vs %d" lsc.sc_moves wsc.sc_moves
    else if lsc.sc_demand > wsc.sc_demand then
      Fmt.str "register demand %d vs %d" lsc.sc_demand wsc.sc_demand
    else
      match (lsc.sc_probe, wsc.sc_probe) with
      | Some l, Some w when l < w ->
        Fmt.str "probe served %d packets vs %d" l w
      | _ -> "tied on every criterion; earlier slate position wins"
  in
  Fmt.str "lost to %a: %s" pp_stage winner why

let race ?(pool = Npra_par.Pool.sequential) ?(nreg = 128) ?move_budget
    ?spill_bases ?(seed = 1) ?probe progs =
  let wprogs = List.map Npra_cfg.Webs.rename progs in
  let spill_bases =
    Option.value spill_bases ~default:(default_spill_bases progs)
  in
  let budget =
    Option.value move_budget ~default:(default_move_budget wprogs)
  in
  let nthd = List.length progs in
  let s1 = Rng.step (seed + 1) in
  let s2 =
    let s = Rng.step s1 in
    if s = s1 then Rng.step (s1 + 1) else s
  in
  (* Deterministic slate, most-constrained first; [sort_uniq] collapses
     coinciding budgets so every stage (hence every cache key) is
     distinct — two entrants racing the same key at different job
     counts would otherwise make the trail depend on scheduling. The
     budgeted entrants lead the slate and form one pool task. *)
  let budgeted =
    List.map
      (fun b -> Balanced_budget b)
      (List.sort_uniq
         (fun a b -> compare b a)
         [ budget; max 1 (budget / 2); max 1 (budget / 4) ])
    @ [ Balanced_relaxed ]
  in
  let others =
    (Balanced_zero_cost
    :: (if nthd >= 2 then
          [ Balanced_shuffled s1; Balanced_shuffled s2; Sra_exhaustive ]
        else []))
    @ [ Chaitin_fallback ]
  in
  (* Every entrant keeps its own cache entry, so hit counts and
     [Cache_hit] notes are per entrant even where the work is shared.
     The lookups happen here, before the fan-out, so the analysis every
     computing entrant starts from is forced in this domain, once, and
     only when some entrant misses — its threads analysed as pool
     tasks; the entrant tasks only read the forced value. *)
  let lookup stage =
    let key =
      cache_key ~tag:(Fmt.str "%a" pp_stage stage) ~nreg ~move_budget
        ~spill_bases:(Some spill_bases) progs
    in
    (stage, key, cache_find key)
  in
  let shared = List.map lookup budgeted and solos = List.map lookup others in
  let threads =
    lazy
      (Array.of_list
         (Npra_par.Pool.map_list pool Npra_regalloc.Inter.init_thread wprogs))
  in
  if List.exists (fun (_, _, hit) -> Option.is_none hit) (shared @ solos) then
    ignore (Lazy.force threads);
  let serve (stage, key, hit) compute =
    (stage, match hit with Some r -> r | None -> cache_store key (compute ()))
  in
  let results =
    Npra_par.Pool.map_list pool
      (function
        | `Shared entrants ->
          (* one balancer run for every budgeted entrant, forced only
             inside this task: OCaml 5 raises if two domains force the
             same lazy value *)
          let run =
            lazy
              (run_balanced ~nreg ~budget ~threads:(Lazy.force threads)
                 budgeted)
          in
          List.map
            (fun ((stage, _, _) as e) ->
              serve e (fun () -> List.assoc stage (Lazy.force run)))
            entrants
        | `Solo ((stage, _, _) as e) ->
          [
            serve e (fun () ->
                run_entrant ~nreg ~budget ~spill_bases
                  ~threads:(Lazy.force threads) stage);
          ])
      (`Shared shared :: List.map (fun e -> `Solo e) solos)
    |> List.concat
  in
  let classified =
    List.map
      (fun (stage, res) ->
        match res with
        | Ok b when b.verify_errors = [] -> `Survivor (stage, b, static_score b)
        | Ok b ->
          `Dead
            ( stage,
              Fmt.str "verification failed (%d errors)"
                (List.length b.verify_errors) )
        | Error trail ->
          let reason =
            match rejections trail with
            | Rejected { reason; _ } :: _ -> reason
            | _ -> "failed with no recorded reason"
          in
          `Dead (stage, reason))
      results
  in
  let survivors =
    List.filter_map (function `Survivor s -> Some s | `Dead _ -> None) classified
  in
  match survivors with
  | [] ->
    Error
      (List.concat_map
         (function
           | `Survivor _ -> []
           | `Dead (stage, reason) -> [ Rejected { stage; reason } ])
         classified)
  | (_, _, sc0) :: _ ->
    let best_static =
      List.fold_left
        (fun acc (_, _, sc) -> if compare_static sc acc < 0 then sc else acc)
        sc0 survivors
    in
    let tied, rest =
      List.partition
        (fun (_, _, sc) -> compare_static sc best_static = 0)
        survivors
    in
    (* Probe only distinct programs among the tied survivors: entrants
       that converged on the same allocation share one probe run, and
       when all of them did, a probe could not separate them. *)
    let tied_scored, probed =
      let fp (_, b, _) =
        String.concat "\000" (List.map Npra_ir.Prog.to_string b.programs)
      in
      let distinct = lazy (List.sort_uniq String.compare (List.map fp tied)) in
      match probe with
      | Some p when List.length (Lazy.force distinct) > 1 ->
        let distinct = Lazy.force distinct in
        let served =
          Npra_par.Pool.map_list pool
            (fun f ->
              let _, b, _ = List.find (fun t -> fp t = f) tied in
              (f, probe_served p b.programs))
            distinct
        in
        let with_probe ((stage, b, sc) as t) =
          let n = Option.value (List.assoc (fp t) served) ~default:(-1) in
          (stage, b, { sc with sc_probe = Some n })
        in
        (List.map with_probe tied, List.length distinct)
      | _ -> (tied, 0)
    in
    let better (s1, b1, sc1) (s2, b2, sc2) =
      (* strictly more packets wins; otherwise keep the earlier entrant *)
      match (sc1.sc_probe, sc2.sc_probe) with
      | Some a, Some b when b > a -> (s2, b2, sc2)
      | _ -> (s1, b1, sc1)
    in
    let win_stage, win_b, win_sc =
      List.fold_left better (List.hd tied_scored) (List.tl tied_scored)
    in
    let score_of_stage =
      List.map (fun (st, _, sc) -> (st, sc)) (tied_scored @ rest)
    in
    let slate =
      List.map
        (function
          | `Dead (stage, reason) -> (stage, Failed reason)
          | `Survivor (stage, _, _) ->
            let sc = List.assoc stage score_of_stage in
            if stage = win_stage then (stage, Won sc)
            else
              (stage, Lost { score = sc; reason = lose_reason ~winner:win_stage win_sc sc }))
        classified
    in
    let losing_notes =
      List.filter_map
        (fun (stage, oc) ->
          match oc with
          | Won _ -> None
          | Lost { reason; _ } | Failed reason -> Some (Rejected { stage; reason }))
        slate
    in
    let winner = { win_b with trail = losing_notes @ win_b.trail } in
    Ok { winner; winner_score = win_sc; slate; probed }
