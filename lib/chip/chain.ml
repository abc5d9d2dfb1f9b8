(* Inter-engine packet chains: rx -> classify -> tx over distinct
   engines, with deficit-round-robin hand-off queues.

   Each stage owns a bank of engines; every engine is one
   {!Npra_sim.Machine} whose hardware threads all run the stage's
   kernel (one instance per thread, disjoint memory slots, allocated by
   the balanced pipeline). Packets enter the chain from seeded arrival
   streams and hop stage to stage through bounded per-flow queues — one
   queue per upstream engine (per source, at the ingress boundary) —
   scheduled by a real deficit round robin: visiting a backlogged flow
   grants it [quantum] credit, a packet costs its size, and an
   exhausted flow's deficit resets, which is exactly the discipline the
   drr kernel models in-register.

   Back-pressure is structural, not counted: a thread that completes a
   packet holds it in a one-deep out-slot until the downstream queue
   has room, and a thread with a pending out-slot cannot take new work,
   so a slow tx stage stalls classify, which stalls rx, which fills the
   ingress queues — where the only drop point in the chain sits
   (counted as queue-full). Conservation is therefore exact:
   offered = served + dropped + residual.

   Determinism: all hand-off happens at slice barriers; between
   barriers the engines advance one after another in stage order, each
   touching only its own machine and slots, so a run is a pure function
   of its arguments. Admission and hand-off are barrier-granular;
   end-to-end latency is still exact per packet (tx completion cycle
   minus true arrival cycle), while per-stage samples run from queue
   entry to stage completion. *)

open Npra_sim
open Npra_workloads
open Npra_traffic
module Json = Npra_core.Json

type stage_spec = {
  st_kernel : Workload.spec;
  st_width : int;  (* engines in this stage *)
  st_threads : int;  (* hardware threads (packets in flight) per engine *)
  st_iters : int;  (* kernel main-loop iterations per packet *)
}

type config = {
  cf_stages : stage_spec list;  (* packet order: rx first, tx last *)
  cf_arrival : Workload.arrival;  (* per ingress source *)
  cf_sources : int;  (* independent arrival streams *)
  cf_queue_capacity : int;  (* bound of every per-flow queue *)
  cf_quantum : int;  (* DRR credit granted per visit *)
  cf_slo_p99 : int;  (* end-to-end p99 latency bound, cycles *)
}

let max_packet_size = 4

type packet = {
  pk_id : int;
  pk_size : int;  (* DRR cost, 1..max_packet_size *)
  pk_arrival : int;
  mutable pk_enter : int;  (* cycle it joined the current boundary queue *)
}

(* One engine of one stage: the machine plus per-thread service and
   hand-off slots. Between barriers only this engine's own advance
   touches it. *)
type engine = {
  e_machine : Machine.t;
  e_ws : Workload.t array;  (* per-thread kernel instance (memory map) *)
  e_busy : packet option array;
  e_out : packet option array;
  e_done_at : int array;
}

(* The boundary feeding one stage: per-flow bounded queues under DRR. *)
type boundary = {
  b_queues : packet Queue.t array;
  b_deficit : int array;
  b_capacity : int;
  b_quantum : int;
  mutable b_rr : int;
  mutable b_fresh : bool;  (* quantum not yet granted at the current flow *)
  mutable b_max : int;  (* high-water mark across its flows *)
}

let boundary ~flows ~capacity ~quantum =
  {
    b_queues = Array.init flows (fun _ -> Queue.create ());
    b_deficit = Array.make flows 0;
    b_capacity = capacity;
    b_quantum = quantum;
    b_rr = 0;
    b_fresh = true;
    b_max = 0;
  }

let boundary_depth b =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 b.b_queues

let try_push b flow ~now pk =
  if Queue.length b.b_queues.(flow) >= b.b_capacity then false
  else begin
    pk.pk_enter <- now;
    Queue.push pk b.b_queues.(flow);
    b.b_max <- max b.b_max (Queue.length b.b_queues.(flow));
    true
  end

(* Deficit round robin, one packet per call. Visiting a backlogged flow
   for the first time in a pass grants it [quantum]; serving costs the
   packet's size; an emptied or skipped flow hands the pointer on (an
   emptied one also forfeits its deficit, per the classic algorithm).
   Terminates: deficits only grow while a backlogged head is refused,
   by [quantum] per full round, so at most [max_packet_size] rounds. *)
let drr_pick b =
  let n = Array.length b.b_queues in
  if Array.for_all Queue.is_empty b.b_queues then None
  else
    let rec go () =
      let q = b.b_rr in
      if Queue.is_empty b.b_queues.(q) then begin
        b.b_deficit.(q) <- 0;
        b.b_rr <- (q + 1) mod n;
        b.b_fresh <- true;
        go ()
      end
      else begin
        if b.b_fresh then begin
          b.b_deficit.(q) <- b.b_deficit.(q) + b.b_quantum;
          b.b_fresh <- false
        end;
        let head = Queue.peek b.b_queues.(q) in
        if head.pk_size <= b.b_deficit.(q) then begin
          b.b_deficit.(q) <- b.b_deficit.(q) - head.pk_size;
          Some (Queue.pop b.b_queues.(q))
        end
        else begin
          b.b_rr <- (q + 1) mod n;
          b.b_fresh <- true;
          go ()
        end
      end
    in
    go ()

(* ---- results ---- *)

type stage_metrics = {
  sm_stage : int;
  sm_kernel : string;
  sm_role : string;
  sm_width : int;
  sm_threads : int;
  sm_handled : int;  (* packets that completed this stage *)
  sm_latency : Metrics.pctls option;  (* queue entry -> stage completion *)
  sm_max_queue : int;  (* high-water of the boundary feeding it *)
}

type t = {
  ch_seed : int;
  ch_duration : int;
  ch_offered : int;
  ch_served : int;  (* packets that completed the whole chain *)
  ch_dropped : int;  (* ingress queue-full refusals *)
  ch_residual : int;  (* still in queues / in flight at the end *)
  ch_stages : stage_metrics list;
  ch_e2e : Metrics.pctls option;
  ch_queue_capacity : int;
  ch_max_queue : int;
  ch_slo_p99 : int;
  ch_slo_ok : bool;
}

let conservation_ok t =
  t.ch_offered = t.ch_served + t.ch_dropped + t.ch_residual

(* Two xorshift steps: one leaves the low bits of an arithmetic
   progression nearly constant, and packet sizes take this mod 4. *)
let mix ~seed a b =
  Npra_core.Rng.step
    (Npra_core.Rng.step ((seed * 131) + (a * 7919) + (b * 101) + 1))

let packet_size ~seed id = 1 + (mix ~seed id 5 mod max_packet_size)

(* The barrier granularity. *)
let slice = 256

let run ?machine_config ~seed ~duration cf =
  if cf.cf_stages = [] then Fmt.invalid_arg "Chain.run: no stages";
  if cf.cf_sources < 1 then Fmt.invalid_arg "Chain.run: no sources";
  let machine_config =
    Option.value machine_config ~default:Dispatch.default_machine_config
  in
  let nstages = List.length cf.cf_stages in
  let stages = Array.of_list cf.cf_stages in
  (* One allocation per stage (all its engines run the same programs):
     [st_threads] instances of the stage kernel on disjoint slots,
     balanced across the shared register file, decoded once into the
     image every engine of the stage instantiates. *)
  let stage_build =
    Array.map
      (fun st ->
        let sys =
          Registry.system ~iters:st.st_iters
            (List.init st.st_threads (fun _ -> st.st_kernel))
        in
        let bal =
          Npra_core.Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases
            sys.progs
        in
        ( Array.of_list sys.workloads,
          Machine.image ~config:machine_config ~sentinel:`Trap
            bal.Npra_core.Pipeline.programs,
          sys.mem_image ))
      stages
  in
  let engines =
    Array.mapi
      (fun si st ->
        let ws, image, mem_image = stage_build.(si) in
        Array.init st.st_width (fun _ ->
            let m = Machine.instantiate ~mem_image image in
            for i = 0 to st.st_threads - 1 do
              Machine.park_thread m i
            done;
            {
              e_machine = m;
              e_ws = ws;
              e_busy = Array.make st.st_threads None;
              e_out = Array.make st.st_threads None;
              e_done_at = Array.make st.st_threads 0;
            }))
      stages
  in
  let all_engines =
    Array.concat (Array.to_list engines)
  in
  (* Boundary [s] feeds stage [s]: one flow per ingress source, or per
     upstream engine. *)
  let boundaries =
    Array.init nstages (fun s ->
        let flows = if s = 0 then cf.cf_sources else stages.(s - 1).st_width in
        boundary ~flows ~capacity:cf.cf_queue_capacity ~quantum:cf.cf_quantum)
  in
  let streams =
    Array.init cf.cf_sources (fun src ->
        Arrival.create ~seed:(mix ~seed src 3) cf.cf_arrival)
  in
  (* Per-stage rotating assignment cursor over (engine, thread), so the
     DRR's packet order spreads deterministically across the bank. *)
  let cursors = Array.make nstages 0 in
  let offered = ref 0 in
  let dropped = ref 0 in
  let served = ref 0 in
  let pk_count = ref 0 in
  let e2e = ref [] in
  let stage_lat = Array.make nstages [] in
  let stage_handled = Array.make nstages 0 in
  let in_flight () =
    Array.fold_left (fun acc b -> acc + boundary_depth b) 0 boundaries
    + Array.fold_left
        (fun acc e ->
          acc
          + Array.fold_left
              (fun a -> function Some _ -> a + 1 | None -> a)
              0 e.e_busy
          + Array.fold_left
              (fun a -> function Some _ -> a + 1 | None -> a)
              0 e.e_out)
        0 all_engines
  in
  (* Fresh input words poked into the serving thread's packet buffer: a
     pure function of (seed, packet id, stage). *)
  let refresh eng thread pk stage =
    let w = eng.e_ws.(thread) in
    List.iteri
      (fun j v -> Memory.poke (Machine.memory eng.e_machine)
          (Workload.input_base w + j) v)
      (Workload.random_words ~seed:(mix ~seed pk.pk_id (11 + stage)) 8)
  in
  let advance_engine eng ~horizon =
    let rec go () =
      match Machine.run_until ~stop_on_halt:true eng.e_machine ~horizon with
      | `Halted i ->
        (match eng.e_busy.(i) with
        | Some pk ->
          eng.e_busy.(i) <- None;
          eng.e_done_at.(i) <- Machine.cycle eng.e_machine;
          eng.e_out.(i) <- Some pk
        | None -> ());
        go ()
      | `Horizon | `Idle -> ()
    in
    go ()
  in
  let now = ref 0 in
  let deadline = duration + max duration 10_000 in
  let continue = ref true in
  while !continue do
    (* -- sequential barrier -- *)
    (* 1. admit arrivals due by now into the ingress queues (pumped
       unconditionally so stragglers just before [duration] are still
       offered at the first post-duration barrier) *)
    Array.iteri
      (fun src stream ->
        while Arrival.peek stream <= !now && Arrival.peek stream < duration do
          let at = Arrival.advance stream in
          let pk =
            {
              pk_id = !pk_count;
              pk_size = packet_size ~seed !pk_count;
              pk_arrival = at;
              pk_enter = at;
            }
          in
          incr pk_count;
          incr offered;
          if not (try_push boundaries.(0) src ~now:at pk) then incr dropped
        done)
      streams;
    (* 2. drain out-slots, last stage first, so downstream room opens
       before upstream pushes *)
    for s = nstages - 1 downto 0 do
      Array.iteri
        (fun flow eng ->
          Array.iteri
            (fun th slot ->
              match slot with
              | None -> ()
              | Some pk ->
                if s = nstages - 1 then begin
                  eng.e_out.(th) <- None;
                  incr served;
                  stage_handled.(s) <- stage_handled.(s) + 1;
                  stage_lat.(s) <-
                    (eng.e_done_at.(th) - pk.pk_enter) :: stage_lat.(s);
                  e2e := (eng.e_done_at.(th) - pk.pk_arrival) :: !e2e
                end
                else begin
                  (* the downstream flow is this engine's index *)
                  let lat = eng.e_done_at.(th) - pk.pk_enter in
                  if try_push boundaries.(s + 1) flow ~now:!now pk then begin
                    eng.e_out.(th) <- None;
                    stage_handled.(s) <- stage_handled.(s) + 1;
                    stage_lat.(s) <- lat :: stage_lat.(s)
                  end
                  (* else: queue full — the packet stays in the
                     out-slot and the thread stays unavailable *)
                end)
            eng.e_out)
        engines.(s)
    done;
    (* 3. DRR-assign queued packets to idle threads, stage by stage *)
    for s = 0 to nstages - 1 do
      let bank = engines.(s) in
      let width = Array.length bank in
      let threads = stages.(s).st_threads in
      let slots = width * threads in
      let idle slot =
        let eng = bank.(slot / threads) and th = slot mod threads in
        eng.e_busy.(th) = None && eng.e_out.(th) = None
      in
      let rec find_idle tries =
        if tries = slots then None
        else
          let slot = (cursors.(s) + tries) mod slots in
          if idle slot then Some slot else find_idle (tries + 1)
      in
      let rec assign () =
        match find_idle 0 with
        | None -> ()
        | Some slot -> (
          match drr_pick boundaries.(s) with
          | None -> ()
          | Some pk ->
            let eng = bank.(slot / threads) and th = slot mod threads in
            refresh eng th pk s;
            Machine.restart_thread eng.e_machine th;
            eng.e_busy.(th) <- Some pk;
            cursors.(s) <- (slot + 1) mod slots;
            assign ())
      in
      assign ()
    done;
    (* 4. advance every engine one slice *)
    let horizon = !now + slice in
    Array.iter (advance_engine ~horizon) all_engines;
    now := horizon;
    if !now >= duration then begin
      let pending = in_flight () in
      let arrivals_pending =
        Array.exists (fun st -> Arrival.peek st < duration) streams
      in
      if (pending = 0 && not arrivals_pending) || !now >= deadline then
        continue := false
    end
  done;
  let residual = in_flight () in
  let e2e_p = Metrics.percentiles !e2e in
  let slo_ok =
    match e2e_p with Some p -> p.Metrics.p99 <= cf.cf_slo_p99 | None -> false
  in
  let stage_metrics =
    List.mapi
      (fun s st ->
        {
          sm_stage = s;
          sm_kernel = st.st_kernel.Workload.id;
          sm_role = Workload.role_name st.st_kernel.Workload.role;
          sm_width = st.st_width;
          sm_threads = st.st_threads;
          sm_handled = stage_handled.(s);
          sm_latency = Metrics.percentiles stage_lat.(s);
          sm_max_queue = boundaries.(s).b_max;
        })
      cf.cf_stages
  in
  {
    ch_seed = seed;
    ch_duration = duration;
    ch_offered = !offered;
    ch_served = !served;
    ch_dropped = !dropped;
    ch_residual = residual;
    ch_stages = stage_metrics;
    ch_e2e = e2e_p;
    ch_queue_capacity = cf.cf_queue_capacity;
    ch_max_queue =
      Array.fold_left (fun acc b -> max acc b.b_max) 0 boundaries;
    ch_slo_p99 = cf.cf_slo_p99;
    ch_slo_ok = slo_ok;
  }

(* ---- rendering ---- *)

let json t =
  let stage_json sm =
    Json.Obj
      [ ("stage", Int sm.sm_stage); ("kernel", String sm.sm_kernel);
        ("role", String sm.sm_role); ("width", Int sm.sm_width);
        ("threads", Int sm.sm_threads); ("handled", Int sm.sm_handled);
        ("latency", Metrics.pctls_json sm.sm_latency);
        ("max_queue", Int sm.sm_max_queue) ]
  in
  Json.Obj
    [ ("seed", Int t.ch_seed); ("duration", Int t.ch_duration);
      ("offered", Int t.ch_offered); ("served", Int t.ch_served);
      ("dropped", Int t.ch_dropped); ("residual", Int t.ch_residual);
      ("conservation", Bool (conservation_ok t));
      ("queue_capacity", Int t.ch_queue_capacity); ("max_queue", Int t.ch_max_queue);
      ("e2e", Metrics.pctls_json t.ch_e2e); ("slo_p99", Int t.ch_slo_p99);
      ("slo_ok", Bool t.ch_slo_ok); ("stages", List (List.map stage_json t.ch_stages)) ]

let to_json t = Json.to_string (json t)

let pp ppf t =
  Fmt.pf ppf
    "chain: seed %d, duration %d: offered %d, served %d, dropped %d, \
     residual %d, conservation %s@."
    t.ch_seed t.ch_duration t.ch_offered t.ch_served t.ch_dropped t.ch_residual
    (if conservation_ok t then "ok" else "VIOLATED");
  List.iter
    (fun sm ->
      Fmt.pf ppf
        "  stage %d %-12s (%s, %dx%d): handled %6d, latency %a, max queue \
         %d/%d@."
        sm.sm_stage sm.sm_kernel sm.sm_role sm.sm_width sm.sm_threads
        sm.sm_handled Metrics.pp_pctls sm.sm_latency sm.sm_max_queue
        t.ch_queue_capacity)
    t.ch_stages;
  Fmt.pf ppf "  end-to-end %a; SLO p99 <= %d: %s@." Metrics.pp_pctls t.ch_e2e
    t.ch_slo_p99
    (if t.ch_slo_ok then "ok" else "VIOLATED")
