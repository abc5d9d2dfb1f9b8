(* Adaptive re-allocation: the feedback loop from traffic metrics back
   into the register balancer.

   The paper fixes one thread mix and balances registers for it once;
   this module closes the ROADMAP's "online re-allocation" loop. A
   {!Dispatch.controller} built here samples the fabric's cumulative
   counters at every slice barrier, scores each thread over a sliding
   window (drops weigh heaviest, then standing queue depth, then mean
   queue wait), and when the windowed evidence says the critical thread
   has moved, requests a fresh allocation from {!Npra_core.Pipeline}
   with that thread's move-cost weighted up — so the balancer shifts
   spill/move overhead onto its co-residents. Repeated regimes are
   served from the pipeline's content-addressed cache, so oscillating
   traffic re-deploys previously computed allocations for free.

   Stability (the no-thrash argument, enforced by {!max_rebalances} and
   checked by a qcheck property): a swap is only permitted when
   (1) the score winner differs from the current critical thread,
   (2) its score beats the incumbent's by a configured margin, and
   (3) at least [min_dwell * 2^k] slices have passed since the k-th
   swap — an exponential cool-down. Requirement (3) alone bounds the
   swap count: the k-th swap cannot happen before
   min_dwell * (2^k - 1) slices, so k <= log2(S / min_dwell + 1) for a
   run of S slices, whatever the traffic does. *)

open Npra_ir

type config = {
  nreg : int;  (* register file the allocations must fit *)
  spill_bases : int list option;  (* per-thread spill areas, slot order *)
  window : int;  (* slices per scoring window *)
  min_dwell : int;  (* slices before the first swap; doubles per swap *)
  margin_pct : int;  (* challenger must beat incumbent by this % *)
  min_score : int;
      (* absolute score floor for a swap: below it the "critical"
         thread is just noise (a packet caught in service at the
         barrier instant), not pressure worth re-balancing for *)
}

let default_config =
  {
    nreg = 128;
    spill_bases = None;
    window = 4;
    min_dwell = 8;
    margin_pct = 25;
    min_score = 2_000;
  }

(* ceil-free integer bound: largest k with min_dwell * (2^k - 1) <= slices *)
let max_rebalances ~slices ~min_dwell =
  let d = max 1 min_dwell in
  let rec go k need =
    if need > slices then k - 1 else go (k + 1) (need + (d * (1 lsl k)))
  in
  (* need for k swaps = d * (2^k - 1); accumulate d*2^0 + d*2^1 + ... *)
  go 1 d

type swap_record = {
  sw_slice : int;  (* barrier number of the decision *)
  sw_cycle : int;
  sw_critical : int;  (* thread promoted to critical *)
  sw_previous : int option;  (* thread that was critical before *)
  sw_dwell : int;  (* slices since the previous swap (or start) *)
  sw_required_dwell : int;  (* hysteresis requirement it had to meet *)
  sw_provenance : string;  (* which pipeline stage produced the winner *)
  sw_cache_hit : bool;
      (* served from the process-wide allocation cache: depends on what
         the process allocated before, so no trail or report shows it *)
}

type sample = {
  s_served : int array;
  s_dropped : int array;
  s_wait : int array;
}

type t = {
  cfg : config;
  source : Prog.t list;  (* pre-allocation programs, re-balanced per regime *)
  names : string array;
  nthd : int;
  mutable critical : int option;  (* current critical thread *)
  mutable last_sample : sample option;  (* counters at last decision point *)
  mutable last_swap_slice : int;  (* slice of the last swap; 0 = start *)
  mutable nswaps : int;
  mutable swaps_rev : swap_record list;
  mutable alloc_failures : int;  (* re-balance requests the pipeline refused *)
}

let create ?(config = default_config) source =
  if source = [] then invalid_arg "Adapt.create: no programs";
  {
    cfg = config;
    source;
    names = Array.of_list (List.map (fun p -> p.Prog.name) source);
    nthd = List.length source;
    critical = None;
    last_sample = None;
    last_swap_slice = 0;
    nswaps = 0;
    swaps_rev = [];
    alloc_failures = 0;
  }

let swaps t = List.rev t.swaps_rev
let rebalance_count t = t.nswaps
let alloc_failures t = t.alloc_failures

(* Per-thread cumulative counters summed over every engine. Dead
   engines contribute their frozen totals (delta 0), and deltas clamp
   at 0. *)
let sample_of (o : Dispatch.observation) nthd =
  let served = Array.make nthd 0
  and dropped = Array.make nthd 0
  and wait = Array.make nthd 0 in
  Array.iter
    (fun (e : Dispatch.obs_engine) ->
      Array.iteri
        (fun i (p : Dispatch.obs_port) ->
          if i < nthd then begin
            served.(i) <- served.(i) + p.Dispatch.op_served;
            dropped.(i) <- dropped.(i) + p.Dispatch.op_lost;
            wait.(i) <- wait.(i) + p.Dispatch.op_sum_wait
          end)
        e.Dispatch.oe_ports)
    o.Dispatch.o_engines;
  { s_served = served; s_dropped = dropped; s_wait = wait }

let queues_of (o : Dispatch.observation) nthd =
  let q = Array.make nthd 0 in
  Array.iter
    (fun (e : Dispatch.obs_engine) ->
      if e.Dispatch.oe_live then
        Array.iteri
          (fun i (p : Dispatch.obs_port) ->
            if i < nthd then q.(i) <- q.(i) + p.Dispatch.op_queue)
          e.Dispatch.oe_ports)
    o.Dispatch.o_engines;
  q

(* Windowed score: drops dominate (each lost packet outweighs any
   amount of queueing), then standing backlog, then mean wait. All
   integer, so scores — and every decision made from them — are
   byte-reproducible. *)
let score ~d_dropped ~d_served ~d_wait ~queue =
  (100_000 * d_dropped) + (1_000 * queue) + (d_wait / max 1 d_served)

(* Move-cost weight given to the critical thread; the others get 1. *)
let critical_weight = 8

let weights_for t critical =
  List.init t.nthd (fun i -> if i = critical then critical_weight else 1)

(* Ask the pipeline for an allocation biased toward [critical].
   Returns the programs plus provenance info for the trail. *)
let request_allocation t critical =
  let weights = weights_for t critical in
  match
    Npra_core.Pipeline.balanced ~nreg:t.cfg.nreg ~weights
      ?spill_bases:t.cfg.spill_bases t.source
  with
  | Error _ -> None
  | Ok b ->
    let cache_hit =
      List.exists
        (function
          | Npra_core.Pipeline.Cache_hit _ -> true
          | Npra_core.Pipeline.Rejected _ -> false)
        b.Npra_core.Pipeline.trail
    in
    let provenance =
      Fmt.str "%a" Npra_core.Pipeline.pp_stage b.Npra_core.Pipeline.provenance
    in
    Some (b.Npra_core.Pipeline.programs, provenance, cache_hit)

let pp_scores names ppf scores =
  Array.iteri
    (fun i s ->
      Fmt.pf ppf "%s%s=%d" (if i = 0 then "" else " ") names.(i) s)
    scores

(* The controller: consulted once per slice barrier, decides at
   window boundaries. *)
let controller t : Dispatch.controller =
 fun o ->
  let slice = o.Dispatch.o_slice in
  if slice = 0 || slice mod t.cfg.window <> 0 then None
  else begin
    let cur = sample_of o t.nthd in
    let queues = queues_of o t.nthd in
    let decision =
      match t.last_sample with
      | None -> None
      | Some prev ->
        let scores =
          Array.init t.nthd (fun i ->
              score
                ~d_dropped:(max 0 (cur.s_dropped.(i) - prev.s_dropped.(i)))
                ~d_served:(max 0 (cur.s_served.(i) - prev.s_served.(i)))
                ~d_wait:(max 0 (cur.s_wait.(i) - prev.s_wait.(i)))
                ~queue:queues.(i))
        in
        let winner = ref 0 in
        Array.iteri (fun i s -> if s > scores.(!winner) then winner := i) scores;
        let winner = !winner in
        let dwell = slice - t.last_swap_slice in
        let required = t.cfg.min_dwell * (1 lsl t.nswaps) in
        let incumbent_score =
          match t.critical with Some c -> scores.(c) | None -> 0
        in
        if
          scores.(winner) >= max 1 t.cfg.min_score
          && t.critical <> Some winner
          && dwell >= required
          && scores.(winner) * 100 >= incumbent_score * (100 + t.cfg.margin_pct)
        then (
          match request_allocation t winner with
          | None ->
            t.alloc_failures <- t.alloc_failures + 1;
            None
          | Some (progs, provenance, cache_hit) ->
            let record =
              {
                sw_slice = slice;
                sw_cycle = o.Dispatch.o_now;
                sw_critical = winner;
                sw_previous = t.critical;
                sw_dwell = dwell;
                sw_required_dwell = required;
                sw_provenance = provenance;
                sw_cache_hit = cache_hit;
              }
            in
            t.critical <- Some winner;
            t.last_swap_slice <- slice;
            t.nswaps <- t.nswaps + 1;
            t.swaps_rev <- record :: t.swaps_rev;
            let detail =
              Fmt.str
                "critical=%s scores=[%a] dwell=%d/%d weights=[%a] alloc=%s"
                t.names.(winner) (pp_scores t.names) scores dwell required
                Fmt.(list ~sep:(any ";") int)
                (weights_for t winner) provenance
            in
            Some { Dispatch.d_progs = progs; d_detail = detail })
        else None
    in
    t.last_sample <- Some cur;
    decision
  end

let pp_swap ppf s =
  Fmt.pf ppf
    "slice %-5d cycle %-8d critical %d (was %a) dwell %d/%d alloc %s"
    s.sw_slice s.sw_cycle s.sw_critical
    Fmt.(option ~none:(any "-") int)
    s.sw_previous s.sw_dwell s.sw_required_dwell s.sw_provenance
