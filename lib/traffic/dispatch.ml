(* Multi-micro-engine packet dispatcher, with a chaos-hardened fabric.

   N {!Npra_sim.Machine} instances advance on one global clock, slice
   by slice. Every slice boundary is a sequential barrier where faults
   are injected, the per-engine watchdog checks progress, backed-off
   engines are reset, shedding credits are refilled, and dead engines'
   arrivals are re-routed; between barriers the live engines advance in
   index order, in the calling domain. A run is a pure function of its
   arguments, so callers that want parallelism hand whole runs to a
   pool.

   A thread serves one packet per program run: it sits parked
   ([Machine.park_thread]) until a packet is queued, is restarted at
   service start, and its [halt] completes the packet — the machine's
   [`Halted] pause hands control back at the exact completion cycle,
   so latency accounting is cycle-accurate. *)

open Npra_ir
open Npra_sim
open Npra_workloads

type watchdog = { stall_slices : int; retries : int; backoff_slices : int }

let default_watchdog = { stall_slices = 3; retries = 2; backoff_slices = 2 }

type shed = { quantum : int; burst : int }

let default_shed = { quantum = 4; burst = 12 }

let default_machine_config =
  { Machine.default_config with Machine.max_cycles = max_int }

type port = {
  spec : Workload.traffic_spec;
  stream : Arrival.t;
  queue : (int * bool) Queue.t;  (* (arrival cycle, flood?) *)
  mutable serving : (int * int * bool) option;
      (* (arrival, service start, flood?) *)
  mutable seq : int;  (* packets started, drives the refresh payload *)
  mutable offered : int;
  mutable served : int;
  mutable d_queue_full : int;
  mutable d_shed : int;
  mutable d_quarantine : int;
  mutable d_flood : int;
  mutable offered_flood : int;
  mutable served_flood : int;
  mutable max_queue : int;
  mutable sum_wait : int;
  mutable sum_service : int;
  mutable latencies_rev : int list;
  mutable credit : int;  (* deficit-round-robin admission credit *)
  mutable flood_until : int;  (* chaos flood active while next < until *)
  mutable flood_next : int;
  mutable flood_period : int;
}

type life = Live | Backoff of int  (* until this barrier number *) | Dead

type engine = {
  index : int;
  mutable machine : Machine.t;
  ports : port array;
  mutable fault : Metrics.engine_fault option;
  mutable life : life;
  mutable retries_left : int;
  mutable stall_count : int;  (* consecutive no-progress barriers *)
  mutable last_instrs : int;
  mutable permanent_hang : bool;  (* re-assert the stall after a reset *)
  mutable trap_pending : bool;  (* a trap since the last barrier *)
  mutable probation : bool;  (* fresh after reset; first retire = recovery *)
  mutable swap_wait : bool;
      (* a re-balance is pending: stop starting packets so the engine
         drains to a packet boundary, where the hot-swap applies *)
}

(* ------------------------------------------------------------------ *)
(* Feedback-controller interface.

   At every slice barrier the controller sees a cheap cumulative
   snapshot — counters and queue depths only, no latency lists, no
   store traces — and may answer with a replacement program list. The
   fabric then stops starting packets on live engines, lets each drain
   to a packet boundary, and hot-swaps it there
   ({!Npra_sim.Machine.swap_image}); backed-off engines pick the new
   programs up at their reset, dead engines are left alone. A
   controller is consulted exactly once per slice, in a fixed
   position. *)

type obs_port = {
  op_served : int;  (* cumulative completions *)
  op_lost : int;
      (* cumulative legitimate-stream refusals only (queue-full, shed,
         quarantine) — flood-tagged packets are the adversary's, and
         counting them would let a flood stampede the controller *)
  op_queue : int;  (* standing legit backlog (+1 if one is in service) *)
  op_sum_wait : int;  (* cumulative queue-wait cycles of served packets *)
}

type obs_engine = {
  oe_live : bool;
  oe_ports : obs_port array;
}

type observation = {
  o_now : int;  (* global cycle of this barrier *)
  o_slice : int;  (* barrier number *)
  o_engines : obs_engine array;
}

type decision = { d_progs : Prog.t list; d_detail : string }
type controller = observation -> decision option

let observe ~now ~barrier_no es =
  {
    o_now = now;
    o_slice = barrier_no;
    o_engines =
      Array.map
        (fun e ->
          {
            oe_live = (e.life = Live);
            oe_ports =
              Array.map
                (fun p ->
                  {
                    op_served = p.served;
                    op_lost = p.d_queue_full + p.d_shed + p.d_quarantine;
                    op_queue =
                      (Queue.fold
                         (fun n (_, flood) -> if flood then n else n + 1)
                         0 p.queue
                      +
                      match p.serving with
                      | Some (_, _, false) -> 1
                      | _ -> 0);
                    op_sum_wait = p.sum_wait;
                  })
                e.ports;
          })
        es;
  }

(* Seed mixing: one xorshift pass over a combination of run seed,
   engine and thread, so per-port streams decorrelate but remain a pure
   function of (seed, engine, thread). *)
let port_seed ~seed ~engine ~thread =
  let x = (seed * 31) + (engine * 1009) + (thread * 101) + 1 in
  let x = x land 0x3FFFFFFF in
  let x = x lxor (x lsl 13) land 0x3FFFFFFF in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) land 0x3FFFFFFF in
  if x = 0 then 1 else x

(* A fresh machine on [image], its threads dormant: they run only when
   a packet arrives. *)
let parked_machine ~mem_image image =
  let m = Machine.instantiate ~mem_image image in
  for i = 0 to Machine.num_threads m - 1 do
    Machine.park_thread m i
  done;
  m

let make_engine ~seed ~image ~mem_image ~specs ~retries ~burst index =
  let machine = parked_machine ~mem_image image in
  {
    index;
    machine;
    ports =
      Array.of_list
        (List.mapi
           (fun thread spec ->
             {
               spec;
               stream =
                 Arrival.create
                   ~seed:(port_seed ~seed ~engine:index ~thread)
                   spec.Workload.arrival;
               queue = Queue.create ();
               serving = None;
               seq = 0;
               offered = 0;
               served = 0;
               d_queue_full = 0;
               d_shed = 0;
               d_quarantine = 0;
               d_flood = 0;
               offered_flood = 0;
               served_flood = 0;
               max_queue = 0;
               sum_wait = 0;
               sum_service = 0;
               latencies_rev = [];
               credit = burst;
               flood_until = 0;
               flood_next = max_int;
               flood_period = 1;
             })
           specs);
    fault = None;
    life = Live;
    retries_left = retries;
    stall_count = 0;
    last_instrs = 0;
    permanent_hang = false;
    trap_pending = false;
    probation = false;
    swap_wait = false;
  }

(* Admission: bounded queue first, then the shedding credit. A refused
   flood packet is always accounted as [flood], whatever refused it. A
   packet re-routed from a dead engine enters here directly: it was
   already counted [offered] at its origin port. *)
let admit_routed p ~at ~flood ~shed =
  if Queue.length p.queue >= p.spec.Workload.queue_capacity then
    if flood then p.d_flood <- p.d_flood + 1
    else p.d_queue_full <- p.d_queue_full + 1
  else if shed <> None && p.credit <= 0 then
    if flood then p.d_flood <- p.d_flood + 1 else p.d_shed <- p.d_shed + 1
  else begin
    Queue.add (at, flood) p.queue;
    if shed <> None then p.credit <- p.credit - 1;
    p.max_queue <- max p.max_queue (Queue.length p.queue)
  end

let admit p ~at ~flood ~shed =
  p.offered <- p.offered + 1;
  if flood then p.offered_flood <- p.offered_flood + 1;
  admit_routed p ~at ~flood ~shed

let flood_active p ~duration =
  p.flood_next < p.flood_until && p.flood_next < duration

(* Arrivals up to the engine's current cycle and before [before]
   (traffic stops at [duration]), stream and chaos-flood interleaved in
   time order. Like [start_service], [horizon] and [pending], a loop
   over the ports with no closure: [advance] calls each on every pass. *)
let deliver e ~before ~duration ~shed =
  let now = Machine.cycle e.machine in
  for k = 0 to Array.length e.ports - 1 do
    let p = e.ports.(k) in
    let continue_ = ref true in
    while !continue_ do
      let sa =
        let a = Arrival.peek p.stream in
        if a < duration then a else max_int
      in
      let fa = if flood_active p ~duration then p.flood_next else max_int in
      if sa <= fa && sa <= now && sa < before then begin
        let at = Arrival.advance p.stream in
        admit p ~at ~flood:false ~shed
      end
      else if fa < sa && fa <= now && fa < before then begin
        p.flood_next <- p.flood_next + p.flood_period;
        admit p ~at:fa ~flood:true ~shed
      end
      else continue_ := false
    done
  done

(* Hand queued packets to parked threads: restart the thread, stamp the
   service start, and poke the packet payload into the thread's input
   buffer. *)
let start_service e ~refresh =
  if not e.swap_wait then
    for i = 0 to Array.length e.ports - 1 do
      let p = e.ports.(i) in
      if
        p.serving = None
        && (not (Queue.is_empty p.queue))
        && Machine.thread_completed e.machine i
      then begin
        let at, flood = Queue.pop p.queue in
        let now = Machine.cycle e.machine in
        p.serving <- Some (at, now, flood);
        p.sum_wait <- p.sum_wait + (now - at);
        (match refresh with
        | None -> ()
        | Some f ->
          List.iter
            (fun (a, v) -> Memory.poke (Machine.memory e.machine) a v)
            (f ~engine:e.index ~thread:i ~seq:p.seq));
        p.seq <- p.seq + 1;
        Machine.restart_thread e.machine i
      end
    done

let finish_service e i =
  let p = e.ports.(i) in
  match p.serving with
  | None -> ()  (* a halt with no packet in flight: ignore defensively *)
  | Some (at, start, flood) ->
    let now = Machine.cycle e.machine in
    p.serving <- None;
    p.served <- p.served + 1;
    if flood then p.served_flood <- p.served_flood + 1;
    p.sum_service <- p.sum_service + (now - start);
    p.latencies_rev <- (now - at) :: p.latencies_rev

(* The engine pauses at each idle port's next arrival, so a parked
   thread restarts at the packet's true arrival cycle. Admission depends
   only on the port's queue length and shedding credit, which change
   only at admissions, at service starts on idle ports and at barriers,
   so a busy port's arrival before [late] waits, decided exactly as on
   time, for the next pause ([late] at the latest) or for the trap that
   ends the run. [deliver] has consumed arrivals <= cycle, so every
   peek here is strictly ahead. *)
let horizon e ~upto ~duration ~late =
  let h = ref upto in
  for k = 0 to Array.length e.ports - 1 do
    let p = e.ports.(k) in
    let a =
      let s = Arrival.peek p.stream in
      let s = if s < duration then s else max_int in
      if flood_active p ~duration then min s p.flood_next else s
    in
    let a = if p.serving <> None && a < late then late else a in
    if a < !h then h := a
  done;
  !h

(* A trap ends the engine's run: record it as the engine's fault. *)
let note_trap e = function
  | Machine.Corruption c ->
    e.fault <-
      Some
        (Metrics.Engine_trap
           { message = Fmt.str "sentinel: %a" Machine.pp_corruption c });
    e.trap_pending <- true
  | Machine.Stuck s ->
    e.fault <-
      Some
        (Metrics.Engine_trap
           { message = Fmt.str "machine stuck: %a" Machine.pp_stuck s });
    e.trap_pending <- true
  | ex -> raise ex

let rec pending_from ports k =
  k < Array.length ports
  &&
  let p = ports.(k) in
  p.serving <> None || (not (Queue.is_empty p.queue)) || pending_from ports (k + 1)

let pending e = pending_from e.ports 0

(* Advance one engine to global cycle [upto]. Past [duration] it runs
   only while it holds packets, so its clock stops at its last
   completion. A machine steps past an arrival only while a thread
   holds a packet (an idle one stops exactly at the horizon), so the
   first [deliver] past [duration] offers any arrival before it that
   the last run stepped over.

   A pause lands at most [ctx_switch_cost] past its horizon, so every
   arrival before [late] is admitted within the slice (a slice never
   straddles [duration]). The machine skips busy ports' arrivals before
   [late]; the loop condition admits them first, so [pending] and the
   slice exit see the same queues. A trap can end the run at any cycle:
   before it is re-raised, [deliver] admits the skipped arrivals
   strictly before the trap cycle, so the salvaged queues hold exactly
   what arrived by then, as if the engine had paused at each one. *)
let advance e ~upto ~duration ~refresh ~shed ~ctx_switch_cost =
  if e.fault = None then
    let late = upto - ctx_switch_cost in
    while
      e.fault = None
      &&
      (deliver e ~before:late ~duration ~shed;
       let now = Machine.cycle e.machine in
       now < upto && (now < duration || pending e))
    do
      deliver e ~before:max_int ~duration ~shed;
      start_service e ~refresh;
      let h = horizon e ~upto ~duration ~late in
      match Machine.run_until ~stop_on_halt:true e.machine ~horizon:h with
      | `Halted i -> finish_service e i
      | `Horizon | `Idle -> ()
      | exception ex ->
        deliver e ~before:(Machine.cycle e.machine) ~duration ~shed;
        note_trap e ex
    done

(* Past [duration] an idle engine's clock stops at its last completion,
   behind the global clock. Before a barrier at [now] hands it a
   re-routed packet, bring it up to [now], so the packet's service
   cannot be stamped before it was routed. *)
let catch_up e ~now =
  if e.fault = None && Machine.cycle e.machine < now then
    match Machine.run_until e.machine ~horizon:now with
    | (_ : Machine.pause) -> ()
    | exception ex -> note_trap e ex

let pending_count e =
  Array.fold_left
    (fun a p ->
      a + (if p.serving = None then 0 else 1) + Queue.length p.queue)
    0 e.ports

let port_metrics i p =
  {
    Metrics.tm_thread = i;
    tm_name = "";  (* filled by the caller, which knows the programs *)
    offered = p.offered;
    served = p.served;
    drops =
      {
        Metrics.queue_full = p.d_queue_full;
        shed = p.d_shed;
        quarantine = p.d_quarantine;
        flood = p.d_flood;
      };
    max_queue = p.max_queue;
    sum_wait = p.sum_wait;
    sum_service = p.sum_service;
    latencies = List.rev p.latencies_rev;
    flood_offered = p.offered_flood;
    flood_served = p.served_flood;
  }

let build_metrics ~duration ~seed ~trail ~names es =
  {
    Metrics.rm_duration = duration;
    rm_seed = seed;
    rm_trail = trail;
    rm_engines =
      Array.to_list
        (Array.map
           (fun e ->
             {
               Metrics.em_engine = e.index;
               em_threads =
                 List.mapi
                   (fun i name ->
                     {
                       (port_metrics i e.ports.(i)) with
                       Metrics.tm_name = name;
                     })
                   names;
               em_report = Machine.report e.machine;
               em_fault = e.fault;
               em_residual = pending_count e;
               em_live =
                 (e.life <> Dead
                 &&
                 match e.fault with
                 | Some (Metrics.Engine_trap _) -> e.trap_pending = false
                 | _ -> true);
             })
           es);
  }

(* ------------------------------------------------------------------ *)
(* The slice loop: barriers, watchdog, quarantine and re-dispatch.     *)

(* The global-clock interleave and the watchdog's sampling period. *)
let slice = 1024

let storm_seed ~chaos_seed ~engine ~now =
  let x = chaos_seed + (engine * 1009) + (now * 31) + 1 in
  let x = x land 0x3FFFFFFF in
  if x = 0 then 1 else x

(* Remove every packet the engine holds — the in-flight one first, then
   each port's queue in FIFO order — returning (port, arrival, flood)
   triples in that deterministic order. *)
let salvage e =
  let acc = ref [] in
  Array.iteri
    (fun i p ->
      (match p.serving with
      | Some (at, _start, flood) ->
        acc := (i, at, flood) :: !acc;
        p.serving <- None
      | None -> ());
      Queue.iter (fun (at, flood) -> acc := (i, at, flood) :: !acc) p.queue;
      Queue.clear p.queue)
    e.ports;
  List.rev !acc

let run_image ?(engines = 1) ?refresh ?drain_budget ?chaos ?watchdog ?shed
    ?controller ~seed ~duration ~specs ~mem_image image =
  let progs = Machine.image_programs image in
  if engines < 1 then invalid_arg "Dispatch.run: engines must be >= 1";
  if List.length specs <> List.length progs then
    invalid_arg "Dispatch.run: one traffic spec per thread program";
  if progs = [] then invalid_arg "Dispatch.run: no thread programs";
  let machine_config = Machine.image_config image in
  let sentinel = Machine.image_sentinel image in
  let deadline =
    duration + Option.value drain_budget ~default:(max duration 10_000)
  in
  let wd =
    match (chaos, watchdog, controller) with
    | None, None, None -> None
    | _ -> Some (Option.value watchdog ~default:default_watchdog)
  in
  let burst = match shed with Some s -> s.burst | None -> 0 in
  let retries = match wd with Some wd -> wd.retries | None -> 0 in
  let es =
    Array.init engines
      (make_engine ~seed ~image ~mem_image ~specs ~retries ~burst)
  in
  (* The allocation currently deployed, decoded once: re-balances
     replace it, every live engine hot-swaps to it, and backoff resets
     build their fresh machine from it, so a recovered engine rejoins on
     the same allocation as the survivors. *)
  let current = ref image in
  let trail = ref [] in
  let emit ev = trail := ev :: !trail in
  let rr = ref 0 in  (* global round-robin cursor for re-dispatch *)
  let live_survivors except =
    Array.to_list es
    |> List.filter (fun e -> e.life = Live && e.index <> except)
  in
  (* Re-queue salvaged packets onto surviving engines (same port index,
     round-robin over survivors, first one with queue room). With no
     survivor: a retryable engine keeps its own packets — it will come
     back — while a quarantined one loses them as [quarantine] drops. *)
  let redispatch e ~now ~retryable pkts =
    let survivors = Array.of_list (live_survivors e.index) in
    let n = Array.length survivors in
    if n = 0 && retryable then begin
      List.iter (fun (i, at, flood) -> Queue.add (at, flood) e.ports.(i).queue) pkts;
      emit
        (Metrics.Redispatched
           { cycle = now; engine = e.index; packets = List.length pkts; lost = 0 })
    end
    else begin
      let moved = ref 0 and lost = ref 0 in
      List.iter
        (fun (i, at, flood) ->
          let placed = ref false and tries = ref 0 in
          while (not !placed) && !tries < n do
            let tgt = survivors.(!rr mod n) in
            incr rr;
            incr tries;
            let tp = tgt.ports.(i) in
            if Queue.length tp.queue < tp.spec.Workload.queue_capacity then begin
              catch_up tgt ~now;
              Queue.add (at, flood) tp.queue;
              tp.max_queue <- max tp.max_queue (Queue.length tp.queue);
              placed := true;
              incr moved
            end
          done;
          if not !placed then begin
            e.ports.(i).d_quarantine <- e.ports.(i).d_quarantine + 1;
            incr lost
          end)
        pkts;
      emit
        (Metrics.Redispatched
           { cycle = now; engine = e.index; packets = !moved; lost = !lost })
    end
  in
  (* An engine failed (watchdog fire or trap): bounded retry with
     slice-based backoff, then permanent quarantine. *)
  let fail_engine wd e ~now ~barrier_no ~final_fault ~reason =
    let pkts = salvage e in
    if e.retries_left > 0 then begin
      e.retries_left <- e.retries_left - 1;
      let retry_no = wd.retries - e.retries_left in
      let until = barrier_no + (wd.backoff_slices * retry_no) in
      e.life <- Backoff until;
      redispatch e ~now ~retryable:true pkts;
      emit
        (Metrics.Backoff
           {
             cycle = now;
             engine = e.index;
             until_cycle = now + (wd.backoff_slices * retry_no * slice);
             retries_left = e.retries_left;
           })
    end
    else begin
      e.life <- Dead;
      e.fault <- Some final_fault;
      redispatch e ~now ~retryable:false pkts;
      emit (Metrics.Quarantined { cycle = now; engine = e.index; reason })
    end
  in
  let pending_events = ref (match chaos with None -> [] | Some c -> c.Chaos.events) in
  let chaos_seed = match chaos with None -> 0 | Some c -> c.Chaos.seed in
  let nports = List.length specs in
  (* 1. chaos injection: every event whose cycle has been reached *)
  let rec inject ~now =
    match !pending_events with
    | ev :: rest when Chaos.event_at ev <= now ->
      pending_events := rest;
      let idx = Chaos.event_engine ev in
      if idx >= 0 && idx < engines then begin
        let e = es.(idx) in
        emit
          (Metrics.Injected
             {
               cycle = now;
               engine = idx;
               what = Fmt.str "%a" Chaos.pp_event ev;
             });
        (match ev with
        | Chaos.Crash _ ->
          if e.life <> Dead then begin
            e.fault <- Some (Metrics.Crash_injected { at = now });
            e.life <- Dead;
            let pkts = salvage e in
            redispatch e ~now ~retryable:false pkts;
            emit
              (Metrics.Quarantined
                 { cycle = now; engine = idx; reason = "crash" })
          end
        | Chaos.Hang { stall; _ } ->
          if e.life <> Dead then begin
            (match stall with
            | Chaos.Permanent ->
              e.permanent_hang <- true;
              Machine.stall e.machine ~until:max_int
            | Chaos.Transient n -> Machine.stall e.machine ~until:(now + n))
          end
        | Chaos.Storm { writes; _ } ->
          if e.life = Live then
            ignore
              (Machine.scribble e.machine
                 ~seed:(storm_seed ~chaos_seed ~engine:idx ~now)
                 ~count:writes)
        | Chaos.Flood { thread; duration = fd; period; _ } ->
          if thread >= 0 && thread < nports then begin
            let p = e.ports.(thread) in
            p.flood_until <- now + fd;
            p.flood_next <- now;
            p.flood_period <- max 1 period
          end)
      end;
      inject ~now
    | _ -> ()
  in
  (* One barrier, run sequentially in engine-index order at global
     cycle [now] (= a slice boundary). A quiet barrier allocates
     nothing: the per-engine steps are loops, not closures. *)
  let barrier ~now ~barrier_no =
    inject ~now;
    (* 2. watchdog: trap handling, then the progress check *)
    (match wd with
    | None -> ()
    | Some wd ->
      Array.iter
        (fun e ->
          match e.life with
          | Live ->
            if e.trap_pending then begin
              e.trap_pending <- false;
              let what =
                match e.fault with
                | Some f -> Metrics.fault_message f
                | None -> "trap"
              in
              emit (Metrics.Fault_observed { cycle = now; engine = e.index; what });
              fail_engine wd e ~now ~barrier_no
                ~final_fault:
                  (match e.fault with
                  | Some f -> f
                  | None -> Metrics.Engine_trap { message = "trap" })
                ~reason:"trap retries exhausted"
            end
            else begin
              let instrs = Machine.instructions_retired e.machine in
              if e.probation && instrs > e.last_instrs then begin
                e.probation <- false;
                emit (Metrics.Recovered { cycle = now; engine = e.index })
              end;
              (* a swap-waiting engine retires nothing by design while it
                 drains to a packet boundary — not a hang *)
              if instrs = e.last_instrs && pending e && not e.swap_wait then begin
                e.stall_count <- e.stall_count + 1;
                if e.stall_count >= wd.stall_slices then begin
                  let stalled_slices = e.stall_count in
                  emit
                    (Metrics.Watchdog_fired
                       { cycle = now; engine = e.index; stalled_slices });
                  e.stall_count <- 0;
                  fail_engine wd e ~now ~barrier_no
                    ~final_fault:
                      (Metrics.Hang_quarantined { at = now; stalled_slices })
                    ~reason:"hang retries exhausted"
                end
              end
              else e.stall_count <- 0;
              e.last_instrs <- instrs
            end
          | Backoff _ | Dead -> ())
        es);
    (* 3. backoff expiry: fresh machine, clock re-synced to the global
       now; a permanent hang re-asserts its stall so the watchdog's
       remaining retries exhaust deterministically *)
    for k = 0 to engines - 1 do
      let e = es.(k) in
      match e.life with
      | Backoff until when barrier_no >= until ->
        let m = parked_machine ~mem_image !current in
        ignore (Machine.run_until m ~horizon:now);
        if e.permanent_hang then Machine.stall m ~until:max_int;
        e.machine <- m;
        e.life <- Live;
        (* a retried fault is forgiven: a fresh machine advances again,
           and only the fault that finally kills the engine is kept *)
        e.fault <- None;
        e.stall_count <- 0;
        e.last_instrs <- Machine.instructions_retired m;
        e.trap_pending <- false;
        e.probation <- true;
        (* the fresh machine is already on the current allocation *)
        e.swap_wait <- false;
        emit (Metrics.Reset { cycle = now; engine = e.index })
      | Live | Backoff _ | Dead -> ()
    done;
    (* 4. shedding credits *)
    (match shed with
    | None -> ()
    | Some s ->
      for k = 0 to engines - 1 do
        let ports = es.(k).ports in
        for j = 0 to Array.length ports - 1 do
          let p = ports.(j) in
          p.credit <- min s.burst (p.credit + s.quantum)
        done
      done);
    (* 5. inert engines' arrivals: a backed-off engine queues its own
       (it will return); a dead engine's stream packets are re-routed
       round-robin onto survivors, its flood packets dropped *)
    for k = 0 to engines - 1 do
      let e = es.(k) in
      match e.life with
      | Live -> ()
      | Backoff _ ->
        Array.iter
          (fun p ->
            while
              Arrival.peek p.stream < duration && Arrival.peek p.stream <= now
            do
              let at = Arrival.advance p.stream in
              admit p ~at ~flood:false ~shed
            done;
            while flood_active p ~duration && p.flood_next <= now do
              let at = p.flood_next in
              p.flood_next <- p.flood_next + p.flood_period;
              admit p ~at ~flood:true ~shed
            done)
          e.ports
      | Dead ->
        Array.iteri
          (fun i p ->
            while
              Arrival.peek p.stream < duration && Arrival.peek p.stream <= now
            do
              let at = Arrival.advance p.stream in
              p.offered <- p.offered + 1;
              (match live_survivors e.index with
              | [] -> p.d_quarantine <- p.d_quarantine + 1
              | survivors ->
                let arr = Array.of_list survivors in
                let tgt = arr.(!rr mod Array.length arr) in
                incr rr;
                catch_up tgt ~now;
                admit_routed tgt.ports.(i) ~at ~flood:false ~shed)
            done;
            while flood_active p ~duration && p.flood_next <= now do
              p.flood_next <- p.flood_next + p.flood_period;
              p.offered <- p.offered + 1;
              p.offered_flood <- p.offered_flood + 1;
              p.d_flood <- p.d_flood + 1
            done)
          e.ports
    done;
    (* 6. adaptive re-balance: apply pending hot-swaps on engines that
       have drained to a packet boundary, then consult the controller *)
    match controller with
    | None -> ()
    | Some ctl ->
      Array.iter
        (fun e ->
          if e.swap_wait then
            match e.life with
            | Dead -> e.swap_wait <- false
            | Backoff _ -> ()  (* the reset builds from [current] *)
            | Live ->
              if Array.for_all (fun p -> p.serving = None) e.ports then (
                match Machine.swap_image e.machine !current with
                | Ok () ->
                  e.swap_wait <- false;
                  e.last_instrs <- Machine.instructions_retired e.machine;
                  emit
                    (Metrics.Swapped
                       {
                         cycle = now;
                         engine = e.index;
                         detail = "hot-swap at packet boundary";
                       })
                | Error (Machine.Swap_not_parked _) -> ()  (* keep draining *)
                | Error err ->
                  e.swap_wait <- false;
                  emit
                    (Metrics.Fault_observed
                       {
                         cycle = now;
                         engine = e.index;
                         what =
                           Fmt.str "hot-swap refused: %a" Machine.pp_swap_error
                             err;
                       })))
        es;
      if now < duration then (
        match ctl (observe ~now ~barrier_no es) with
        | None -> ()
        | Some d ->
          current := Machine.image ~config:machine_config ~sentinel d.d_progs;
          emit
            (Metrics.Rebalanced
               { cycle = now; slice = barrier_no; detail = d.d_detail });
          Array.iter
            (fun e ->
              match e.life with
              | Live | Backoff _ -> e.swap_wait <- true
              | Dead -> ())
            es)
  in
  (* The global clock, slice by slice: a barrier, then every live
     engine advances to the next boundary. Traffic stops at [duration];
     the drain runs on while any engine holds packets, up to
     [deadline]. One last barrier lets faults from the final slice (a
     trap, a stall that just crossed the threshold) reach the trail. *)
  let t = ref 0 and barrier_no = ref 0 in
  let busy () = Array.exists (fun e -> e.life <> Dead && pending e) es in
  while !t < duration || (!t < deadline && busy ()) do
    barrier ~now:!t ~barrier_no:!barrier_no;
    let upto = min (if !t < duration then duration else deadline) (!t + slice) in
    for k = 0 to engines - 1 do
      let e = es.(k) in
      if e.life = Live then
        advance e ~upto ~duration ~refresh ~shed
          ~ctx_switch_cost:machine_config.Machine.ctx_switch_cost
    done;
    t := upto;
    incr barrier_no
  done;
  barrier ~now:!t ~barrier_no:!barrier_no;
  (* Anything still held is a structured drain deadlock — except on an
     engine whose trap no watchdog handled: its fault stands. *)
  Array.iter
    (fun e ->
      if e.life <> Dead && (not e.trap_pending) && pending e then
        e.fault <-
          Some
            (Metrics.Drain_deadlock
               {
                 at = Machine.cycle e.machine;
                 deadline;
                 pending = pending_count e;
                 threads = Machine.thread_statuses e.machine;
               }))
    es;
  let names = List.map (fun p -> p.Prog.name) progs in
  build_metrics ~duration ~seed ~trail:(List.rev !trail) ~names es

let run ?engines ?(sentinel = `Off) ?machine_config ?refresh ?drain_budget
    ?chaos ?watchdog ?shed ?controller ~seed ~duration ~specs ~mem_image progs =
  let config = Option.value machine_config ~default:default_machine_config in
  run_image ?engines ?refresh ?drain_budget ?chaos ?watchdog ?shed ?controller
    ~seed ~duration ~specs ~mem_image
    (Machine.image ~config ~sentinel progs)
