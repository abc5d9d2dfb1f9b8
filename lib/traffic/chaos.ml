(* Deterministic system-level fault schedules.

   Everything here is plain integer data: an event names an engine, a
   cycle and the fault's parameters. The dispatcher injects events at
   slice boundaries, so the exact injection cycle is quantised to the
   slice grid — which is why reproducibility needs no coordination:
   the schedule, the arrival streams and the engines are all pure
   functions of their seeds. *)

type stall = Transient of int | Permanent

type event =
  | Crash of { engine : int; at : int }
  | Hang of { engine : int; at : int; stall : stall }
  | Storm of { engine : int; at : int; writes : int }
  | Flood of {
      engine : int;
      thread : int;
      at : int;
      duration : int;
      period : int;
    }

let event_engine = function
  | Crash { engine; _ } | Hang { engine; _ } | Storm { engine; _ }
  | Flood { engine; _ } ->
    engine

let event_at = function
  | Crash { at; _ } | Hang { at; _ } | Storm { at; _ } | Flood { at; _ } -> at

let pp_event ppf = function
  | Crash { engine; at } -> Fmt.pf ppf "crash(engine=%d at=%d)" engine at
  | Hang { engine; at; stall = Permanent } ->
    Fmt.pf ppf "hang(engine=%d at=%d permanent)" engine at
  | Hang { engine; at; stall = Transient n } ->
    Fmt.pf ppf "hang(engine=%d at=%d for=%d)" engine at n
  | Storm { engine; at; writes } ->
    Fmt.pf ppf "storm(engine=%d at=%d writes=%d)" engine at writes
  | Flood { engine; thread; at; duration; period } ->
    Fmt.pf ppf "flood(engine=%d port=%d at=%d for=%d period=%d)" engine thread
      at duration period

type t = { seed : int; events : event list }

let of_events ?(seed = 0) events =
  { seed; events = List.stable_sort (fun a b -> compare (event_at a) (event_at b)) events }


type spec = {
  crashes : int;
  permanent_hangs : int;
  transient_hangs : int;
  storms : int;
  floods : int;
}

let quiet =
  { crashes = 0; permanent_hangs = 0; transient_hangs = 0; storms = 0; floods = 0 }

let headroom_specs n =
  List.init n (fun i ->
      {
        Npra_workloads.Workload.arrival =
          Npra_workloads.Workload.Uniform { period = 1500 + (137 * i) };
        queue_capacity = 8;
        per_packet_iters = 1;
      })

(* The repo-wide 30-bit xorshift, seeded per schedule. *)
let schedule ~seed ~engines ~threads ~duration spec =
  let rng = Npra_core.Rng.create ~seed in
  let rand () = Npra_core.Rng.next rng in
  let engine () = rand () mod max 1 engines in
  (* middle half of the run: traffic exists on both sides of the fault *)
  let at () = (duration / 4) + (rand () mod max 1 (duration / 2)) in
  let draw n f = List.init n (fun _ -> f ()) in
  let events =
    draw spec.crashes (fun () -> Crash { engine = engine (); at = at () })
    @ draw spec.permanent_hangs (fun () ->
          Hang { engine = engine (); at = at (); stall = Permanent })
    @ draw spec.transient_hangs (fun () ->
          Hang
            {
              engine = engine ();
              at = at ();
              stall = Transient (max 1 (duration / 6));
            })
    @ draw spec.storms (fun () ->
          Storm { engine = engine (); at = at (); writes = 64 })
    @ draw spec.floods (fun () ->
          Flood
            {
              engine = engine ();
              thread = rand () mod max 1 threads;
              at = at ();
              duration = max 1 (duration / 3);
              period = 8;
            })
  in
  of_events ~seed events
