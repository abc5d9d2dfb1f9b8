(* Workload framework.

   Each benchmark kernel is generated as an IR program parameterised by a
   memory base (so several instances can run side by side with disjoint
   memory) and an iteration count (the paper's benchmarks loop forever;
   we run a fixed number of main-loop iterations and report
   cycles/iteration).

   Memory map of one instance, relative to [mem_base]:

     +0    .. +255   input packet buffer (pseudo-random words)
     +256  .. +511   auxiliary state / tables
     +512  .. +767   output area
     +768  .. +1023  spill area (used only by the Chaitin baseline)

   Instances must be spaced by at least [instance_size] words. *)

open Npra_ir

type t = {
  name : string;
  prog : Prog.t;
  iters : int;
  mem_base : int;
  mem_image : (int * int) list;
}

let instance_size = 1024
let input_offset = 0
let state_offset = 256
let output_offset = 512
let spill_offset = 768

let input_base w = w.mem_base + input_offset
let state_base w = w.mem_base + state_offset
let output_base w = w.mem_base + output_offset
let spill_base w = w.mem_base + spill_offset

(* Deterministic pseudo-random words (xorshift); the same seed always
   produces the same packet image, keeping every experiment
   reproducible. *)
let random_words ~seed n =
  let state = ref (if seed = 0 then 0x9E3779B9 else seed land 0x3FFFFFFF) in
  List.init n (fun _ ->
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 17) in
      let x = x lxor (x lsl 5) in
      let x = x land 0x3FFFFFFF in
      state := if x = 0 then 1 else x;
      x)

(* Fresh packet words for one service start: 8 words poked into [w]'s
   input buffer, a pure function of (seed, engine, thread, seq), so a
   traffic run that refreshes payloads still replays exactly. *)
let refresh ~seed ~engine ~thread ~seq w =
  List.mapi
    (fun j v -> (input_base w + j, v))
    (random_words
       ~seed:(seed + (engine * 65537) + (thread * 257) + (seq * 13) + 1)
       8)

let packet_image ~mem_base ~seed n =
  List.mapi (fun i v -> (mem_base + input_offset + i, v)) (random_words ~seed n)

(* Where a kernel can sit in an rx -> classify -> tx packet chain. Rx
   kernels ingest and validate packets, Tx kernels emit them, Classify
   kernels are header/payload processing that fits between the two;
   Standalone kernels only make sense as whole-packet services. *)
type role = Rx | Classify | Tx | Standalone

let role_name = function
  | Rx -> "rx"
  | Classify -> "classify"
  | Tx -> "tx"
  | Standalone -> "standalone"

type spec = {
  id : string;
  summary : string;
  build : mem_base:int -> iters:int -> t;
  default_iters : int;
  role : role;
}

(* ------------------------------------------------------------------ *)
(* Traffic specifications.

   The arrival models live here, below the traffic subsystem, so the
   registry can attach a default packet-arrival pattern to each kernel
   without depending on the dispatcher that realises it
   ({!Npra_traffic.Arrival} turns a spec + seed into a deterministic
   arrival stream). All parameters are in machine cycles. *)

type arrival =
  | Uniform of { period : int }
      (* one packet every [period] cycles, seed-phased *)
  | Poisson of { mean_period : int }
      (* exponential-ish inter-arrivals via a fixed-point table,
         mean [mean_period] cycles *)
  | Bursty of { on_cycles : int; off_cycles : int; period : int }
      (* on/off source: [period]-spaced arrivals during each
         [on_cycles] burst, silence for [off_cycles] between bursts *)
  | Windowed of { from_cycle : int; until_cycle : int; inner : arrival }
      (* mix churn: [inner]'s arrivals restricted to
         [from_cycle, until_cycle) — a kernel joining the mix mid-run
         ([from_cycle] > 0), leaving it ([until_cycle] < duration), or
         both. Arrivals outside the window are skipped, not deferred. *)

type traffic_spec = {
  arrival : arrival;
  queue_capacity : int;  (* per-thread input queue bound; excess drops *)
  per_packet_iters : int;  (* kernel main-loop iterations per packet *)
}

let rec pp_arrival ppf = function
  | Uniform { period } -> Fmt.pf ppf "uniform(period=%d)" period
  | Poisson { mean_period } -> Fmt.pf ppf "poisson(mean=%d)" mean_period
  | Bursty { on_cycles; off_cycles; period } ->
    Fmt.pf ppf "bursty(on=%d,off=%d,period=%d)" on_cycles off_cycles period
  | Windowed { from_cycle; until_cycle; inner } ->
    Fmt.pf ppf "windowed(%d..%d,%a)" from_cycle until_cycle pp_arrival inner

let pp_traffic_spec ppf t =
  Fmt.pf ppf "%a q=%d iters/pkt=%d" pp_arrival t.arrival t.queue_capacity
    t.per_packet_iters
