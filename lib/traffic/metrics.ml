(* Metrics for a packet-traffic run.

   Collected by the dispatcher, aggregated here: sustained throughput
   (packets per kilocycle), per-thread IPC, exact packet-latency
   percentiles, queue depth, drop accounting split by policy reason,
   per-engine structured faults, and the fabric's recovery trail.
   Everything is integer or a deterministic function of integers, so
   two runs with the same seed serialise to byte-identical JSON. *)

open Npra_sim

type pctls = { p50 : int; p95 : int; p99 : int; pmax : int }

(* Exact percentiles by sorting: the nearest-rank method (ceil(p*n)),
   so every reported value is an observed latency. *)
let percentiles = function
  | [] -> None
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank p = min (n - 1) (max 0 (((p * n) + 99) / 100 - 1)) in
    Some
      {
        p50 = a.(rank 50);
        p95 = a.(rank 95);
        p99 = a.(rank 99);
        pmax = a.(n - 1);
      }

(* ------------------------------------------------------------------ *)
(* Structured drop accounting.                                         *)

type drops = { queue_full : int; shed : int; quarantine : int; flood : int }

let no_drops = { queue_full = 0; shed = 0; quarantine = 0; flood = 0 }
let drops_total d = d.queue_full + d.shed + d.quarantine + d.flood

let add_drops a b =
  {
    queue_full = a.queue_full + b.queue_full;
    shed = a.shed + b.shed;
    quarantine = a.quarantine + b.quarantine;
    flood = a.flood + b.flood;
  }

type thread_metrics = {
  tm_thread : int;
  tm_name : string;
  offered : int;  (* arrivals, including dropped and flood packets *)
  served : int;  (* packets whose service completed *)
  drops : drops;  (* refusals, split by policy reason *)
  max_queue : int;  (* high-water mark of the input queue *)
  sum_wait : int;  (* cycles from arrival to service start, served pkts *)
  sum_service : int;  (* cycles from service start to completion *)
  latencies : int list;  (* completion - arrival per served packet *)
  flood_offered : int;  (* of offered, chaos-flood packets *)
  flood_served : int;  (* of served, chaos-flood packets *)
}

(* ------------------------------------------------------------------ *)
(* Structured engine faults.                                           *)

type engine_fault =
  | Engine_trap of { message : string }
  | Crash_injected of { at : int }
  | Hang_quarantined of { at : int; stalled_slices : int }
  | Drain_deadlock of {
      at : int;
      deadline : int;
      pending : int;
      threads : Machine.thread_status list;
    }

let fault_message = function
  | Engine_trap { message } -> message
  | Crash_injected { at } -> Fmt.str "chaos crash at cycle %d" at
  | Hang_quarantined { at; stalled_slices } ->
    Fmt.str "watchdog: no retired instruction for %d slices (quarantined at \
             cycle %d)"
      stalled_slices at
  | Drain_deadlock { at; deadline; pending; threads } ->
    Fmt.str "deadlock: %d packet(s) still in flight or queued at cycle %d \
             (drain deadline %d):%a"
      pending at deadline
      Fmt.(list ~sep:nop (fun ppf s -> Fmt.pf ppf " [%a]" Machine.pp_thread_status s))
      threads

type engine_metrics = {
  em_engine : int;
  em_threads : thread_metrics list;
  em_report : Machine.report;  (* busy/idle/switch breakdown, IPC inputs *)
  em_fault : engine_fault option;
  em_residual : int;  (* packets pending at the end of the run *)
  em_live : bool;  (* false once quarantined or crashed *)
}

(* ------------------------------------------------------------------ *)
(* Recovery trail.                                                     *)

type trail_event =
  | Injected of { cycle : int; engine : int; what : string }
  | Fault_observed of { cycle : int; engine : int; what : string }
  | Watchdog_fired of { cycle : int; engine : int; stalled_slices : int }
  | Redispatched of { cycle : int; engine : int; packets : int; lost : int }
  | Backoff of {
      cycle : int;
      engine : int;
      until_cycle : int;
      retries_left : int;
    }
  | Reset of { cycle : int; engine : int }
  | Recovered of { cycle : int; engine : int }
  | Quarantined of { cycle : int; engine : int; reason : string }
  | Rebalanced of { cycle : int; slice : int; detail : string }
  | Swapped of { cycle : int; engine : int; detail : string }

let trail_fields = function
  | Injected { cycle; engine; what } -> (cycle, engine, "injected", what)
  | Fault_observed { cycle; engine; what } -> (cycle, engine, "fault", what)
  | Watchdog_fired { cycle; engine; stalled_slices } ->
    (cycle, engine, "watchdog", Fmt.str "%d stalled slice(s)" stalled_slices)
  | Redispatched { cycle; engine; packets; lost } ->
    ( cycle,
      engine,
      "redispatch",
      Fmt.str "%d packet(s) re-queued, %d lost" packets lost )
  | Backoff { cycle; engine; until_cycle; retries_left } ->
    ( cycle,
      engine,
      "backoff",
      Fmt.str "until cycle %d, %d retry(ies) left" until_cycle retries_left )
  | Reset { cycle; engine } -> (cycle, engine, "reset", "fresh machine")
  | Recovered { cycle; engine } -> (cycle, engine, "recovered", "retiring again")
  | Quarantined { cycle; engine; reason } -> (cycle, engine, "quarantine", reason)
  | Rebalanced { cycle; slice; detail } ->
    (cycle, -1, "rebalance", Fmt.str "slice %d: %s" slice detail)
  | Swapped { cycle; engine; detail } -> (cycle, engine, "swap", detail)

let pp_trail_event ppf ev =
  let cycle, engine, kind, detail = trail_fields ev in
  Fmt.pf ppf "cycle %-8d engine %d %-10s %s" cycle engine kind detail

type run_metrics = {
  rm_duration : int;  (* cycles of traffic generation *)
  rm_seed : int;
  rm_engines : engine_metrics list;
  rm_trail : trail_event list;  (* empty when the watchdog is off *)
}

(* ------------------------------------------------------------------ *)
(* Aggregation.                                                        *)

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

let total_offered r = sum (fun e -> sum (fun t -> t.offered) e.em_threads) r.rm_engines
let total_served r = sum (fun e -> sum (fun t -> t.served) e.em_threads) r.rm_engines

let total_drops r =
  List.fold_left
    (fun acc e ->
      List.fold_left (fun acc t -> add_drops acc t.drops) acc e.em_threads)
    no_drops r.rm_engines

let total_dropped r = drops_total (total_drops r)
let total_residual r = sum (fun e -> e.em_residual) r.rm_engines

let total_flood_offered r =
  sum (fun e -> sum (fun t -> t.flood_offered) e.em_threads) r.rm_engines

let total_flood_served r =
  sum (fun e -> sum (fun t -> t.flood_served) e.em_threads) r.rm_engines

(* Goodput: flood packets are junk traffic, so they count in neither
   the numerator nor the denominator. *)
let delivered_fraction r =
  let offered = total_offered r - total_flood_offered r in
  let served = total_served r - total_flood_served r in
  if offered <= 0 then 1. else float_of_int served /. float_of_int offered

let surviving_engines r =
  sum (fun e -> if e.em_live then 1 else 0) r.rm_engines

(* The fabric's packet-conservation invariant, checked exactly: every
   arrival is eventually served, refused for a recorded reason, or
   still pending at a structured drain deadlock. *)
let conservation_ok r =
  total_offered r = total_served r + total_dropped r + total_residual r

(* Served packets per thousand cycles of traffic time. *)
let throughput_per_kcycle r =
  if r.rm_duration = 0 then 0.
  else float_of_int (total_served r) *. 1000. /. float_of_int r.rm_duration

let faults r =
  List.filter_map
    (fun e -> Option.map (fun f -> (e.em_engine, fault_message f)) e.em_fault)
    r.rm_engines

(* Per-thread-index view across all engines: every engine runs the same
   programs, so thread index i means the same kernel everywhere. *)
type thread_summary = {
  ts_thread : int;
  ts_name : string;
  ts_offered : int;
  ts_served : int;
  ts_drops : drops;
  ts_dropped : int;
  ts_max_queue : int;
  ts_mean_wait : float;  (* cycles queued before service, per served pkt *)
  ts_mean_service : float;  (* service cycles per served packet *)
  ts_latency : pctls option;
  ts_instructions : int;
  ts_ipc : float;  (* instructions per engine-cycle, summed over engines *)
}

let thread_summaries r =
  match r.rm_engines with
  | [] -> []
  | e0 :: _ ->
    List.mapi
      (fun i t0 ->
        let per_engine =
          List.map (fun e -> List.nth e.em_threads i) r.rm_engines
        in
        let served = sum (fun t -> t.served) per_engine in
        let instructions =
          sum
            (fun e ->
              (List.nth e.em_report.Machine.thread_reports i)
                .Machine.instructions)
            r.rm_engines
        in
        let cycles =
          sum (fun e -> e.em_report.Machine.total_cycles) r.rm_engines
        in
        let drops =
          List.fold_left (fun acc t -> add_drops acc t.drops) no_drops per_engine
        in
        {
          ts_thread = i;
          ts_name = t0.tm_name;
          ts_offered = sum (fun t -> t.offered) per_engine;
          ts_served = served;
          ts_drops = drops;
          ts_dropped = drops_total drops;
          ts_max_queue =
            List.fold_left (fun a t -> max a t.max_queue) 0 per_engine;
          ts_mean_wait =
            (if served = 0 then 0.
             else
               float_of_int (sum (fun t -> t.sum_wait) per_engine)
               /. float_of_int served);
          ts_mean_service =
            (if served = 0 then 0.
             else
               float_of_int (sum (fun t -> t.sum_service) per_engine)
               /. float_of_int served);
          ts_latency =
            percentiles (List.concat_map (fun t -> t.latencies) per_engine);
          ts_instructions = instructions;
          ts_ipc =
            (if cycles = 0 then 0.
             else float_of_int instructions /. float_of_int cycles);
        })
      e0.em_threads

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let pp_pctls ppf = function
  | None -> Fmt.string ppf "-"
  | Some p -> Fmt.pf ppf "p50=%d p95=%d p99=%d max=%d" p.p50 p.p95 p.p99 p.pmax

let pp_drops ppf d =
  if drops_total d = 0 then Fmt.string ppf "0"
  else
    Fmt.pf ppf "%d (qfull=%d shed=%d quar=%d flood=%d)" (drops_total d)
      d.queue_full d.shed d.quarantine d.flood

let pp ppf r =
  Fmt.pf ppf
    "duration %d cycles, seed %d, %d engine(s) (%d surviving): offered %d, \
     served %d, dropped %d, residual %d (%.2f pkt/kcycle)@."
    r.rm_duration r.rm_seed
    (List.length r.rm_engines)
    (surviving_engines r) (total_offered r) (total_served r) (total_dropped r)
    (total_residual r)
    (throughput_per_kcycle r);
  List.iter
    (fun s ->
      Fmt.pf ppf
        "  t%d %-14s offered=%-5d served=%-5d dropped=%-4d maxq=%-2d \
         wait=%-8.1f svc=%-8.1f ipc=%.3f@.    drops %a, latency %a@."
        s.ts_thread s.ts_name s.ts_offered s.ts_served s.ts_dropped
        s.ts_max_queue s.ts_mean_wait s.ts_mean_service s.ts_ipc pp_drops
        s.ts_drops pp_pctls s.ts_latency)
    (thread_summaries r);
  List.iter
    (fun e ->
      let rep = e.em_report in
      Fmt.pf ppf
        "  engine %d%s: busy %d, switch %d, idle %d of %d cycles (%.0f%% \
         utilised)%a@."
        e.em_engine
        (if e.em_live then "" else " [quarantined]")
        rep.Machine.busy_cycles rep.Machine.switch_cycles
        rep.Machine.idle_cycles rep.Machine.total_cycles
        (100. *. rep.Machine.utilization)
        Fmt.(option (fun ppf f -> Fmt.pf ppf " FAULT: %s" (fault_message f)))
        e.em_fault)
    r.rm_engines;
  match r.rm_trail with
  | [] -> ()
  | trail ->
    Fmt.pf ppf "  recovery trail:@.";
    List.iter (fun ev -> Fmt.pf ppf "    %a@." pp_trail_event ev) trail

module Json = Npra_core.Json

let pctls_json = function
  | None -> Json.Null
  | Some p ->
    Obj
      [ ("p50", Int p.p50); ("p95", Int p.p95); ("p99", Int p.p99);
        ("max", Int p.pmax) ]

let drops_json d =
  Json.Obj
    [ ("queue_full", Int d.queue_full); ("shed", Int d.shed);
      ("quarantine", Int d.quarantine); ("flood", Int d.flood) ]

let trail_counts_json keys trail =
  let kind ev = let _, _, k, _ = trail_fields ev in k in
  let count k = List.length (List.filter (fun ev -> kind ev = k) trail) in
  Json.Obj (List.map (fun (key, k) -> (key, Json.Int (count k))) keys)

let thread_summary_json s =
  Json.Obj
    [ ("thread", Int s.ts_thread); ("name", String s.ts_name);
      ("offered", Int s.ts_offered); ("served", Int s.ts_served);
      ("dropped", Int s.ts_dropped); ("drops", drops_json s.ts_drops);
      ("max_queue", Int s.ts_max_queue); ("mean_wait", Float (2, s.ts_mean_wait));
      ("mean_service", Float (2, s.ts_mean_service));
      ("latency", pctls_json s.ts_latency);
      ("instructions", Int s.ts_instructions); ("ipc", Float (4, s.ts_ipc)) ]

let engine_json e =
  let rep = e.em_report in
  let drops = List.fold_left (fun acc t -> add_drops acc t.drops) no_drops e.em_threads in
  Json.Obj
    [ ("engine", Int e.em_engine); ("live", Bool e.em_live);
      ("busy", Int rep.Machine.busy_cycles); ("switch", Int rep.Machine.switch_cycles);
      ("idle", Int rep.Machine.idle_cycles); ("total", Int rep.Machine.total_cycles);
      ("utilization", Float (4, rep.Machine.utilization));
      ("served", Int (sum (fun t -> t.served) e.em_threads));
      ("dropped", Int (drops_total drops)); ("residual", Int e.em_residual);
      ("fault", match e.em_fault with None -> Null | Some f -> String (fault_message f)) ]

let trail_event_json ev =
  let cycle, engine, kind, detail = trail_fields ev in
  Json.Obj
    [ ("cycle", Int cycle); ("engine", Int engine); ("event", String kind);
      ("detail", String detail) ]

let json r =
  Json.Obj
    [ ("duration", Int r.rm_duration); ("seed", Int r.rm_seed);
      ("offered", Int (total_offered r)); ("served", Int (total_served r));
      ("dropped", Int (total_dropped r)); ("drops", drops_json (total_drops r));
      ("residual", Int (total_residual r));
      ("flood_offered", Int (total_flood_offered r));
      ("flood_served", Int (total_flood_served r));
      ("delivered_fraction", Float (4, delivered_fraction r));
      ("surviving", Int (surviving_engines r));
      ("conservation", Bool (conservation_ok r));
      ("throughput_per_kcycle", Float (3, throughput_per_kcycle r));
      ("threads", List (List.map thread_summary_json (thread_summaries r)));
      ("engines", List (List.map engine_json r.rm_engines));
      ("trail", List (List.map trail_event_json r.rm_trail)) ]

let to_json r = Json.to_string (json r)
