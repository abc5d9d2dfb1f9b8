(* Deterministic, seedable packet-arrival streams.

   A stream realises a {!Npra_workloads.Workload.arrival} model as a
   monotone sequence of arrival cycles. No [Random] and no run-time
   floating point: randomness comes from a xorshift generator seeded
   explicitly (the same generator family the workloads use for packet
   images), and the Poisson approximation draws inter-arrival times
   from a fixed-point table of -ln(u) values built once at module
   initialisation. Replays are exact: the same (seed, model) pair
   always yields the same stream, on every platform. *)

open Npra_workloads

type t = {
  model : Workload.arrival;
  rng : Npra_core.Rng.t;  (* the repo-wide 30-bit xorshift stream *)
  mutable next_at : int;  (* cycle of the next arrival *)
}

let rand t = Npra_core.Rng.next t.rng

(* Fixed-point quantile table for the exponential distribution:
   entry i is round(-ln((i + 0.5) / 256) * 1024), i.e. the inter-arrival
   multiplier for the i-th of 256 equiprobable bins, in units of
   mean/1024. Built once with float [log]; every draw afterwards is
   integer-only, so streams are bit-reproducible. The bin mean is
   ~1024, making the empirical mean track [mean_period]. *)
let exp_table =
  Array.init 256 (fun i ->
      let u = (float_of_int i +. 0.5) /. 256. in
      int_of_float (Float.round (-.log u *. 1024.)))

(* Exponential inter-arrival in cycles, at least 1. *)
let exp_gap t ~mean =
  let q = exp_table.(rand t land 0xFF) in
  max 1 ((mean * q) / 1024)

(* The cycle at which the on/off source is next allowed to emit: inside
   an on-phase that is [at] itself; otherwise the start of the next
   burst. *)
let bursty_align ~on_cycles ~off_cycles at =
  let span = on_cycles + off_cycles in
  let phase = at mod span in
  if phase < on_cycles then at else at - phase + span

(* A [Workload.Windowed] model whose window has closed yields no more
   arrivals: [never] compares greater than any duration, and the step
   functions below guard against stepping past it. *)
let never = max_int

(* First arrival of a model (a seed-derived phase so co-resident
   uniform streams do not arrive in lockstep), the arrival after [at],
   and the window clamp for churn models — mutually recursive because a
   [Windowed] wrapper skips the inner stream's out-of-window arrivals,
   consuming their generator draws so the in-window stream is the same
   whether or not the window is present. *)
let rec first t model =
  match model with
  | Workload.Uniform { period } -> rand t mod max 1 period
  | Workload.Poisson { mean_period } -> exp_gap t ~mean:mean_period
  | Workload.Bursty { on_cycles; off_cycles; period } ->
    bursty_align ~on_cycles ~off_cycles (rand t mod max 1 period)
  | Workload.Windowed { from_cycle; until_cycle; inner } ->
    clamp t ~from_cycle ~until_cycle inner (first t inner)

and step t model at =
  match model with
  | Workload.Uniform { period } -> at + max 1 period
  | Workload.Poisson { mean_period } -> at + exp_gap t ~mean:mean_period
  | Workload.Bursty { on_cycles; off_cycles; period } ->
    bursty_align ~on_cycles ~off_cycles (at + max 1 period)
  | Workload.Windowed { from_cycle; until_cycle; inner } ->
    if at >= until_cycle then never
    else clamp t ~from_cycle ~until_cycle inner (step t inner at)

and clamp t ~from_cycle ~until_cycle inner a =
  if a >= until_cycle then never
  else if a < from_cycle then
    clamp t ~from_cycle ~until_cycle inner (step t inner a)
  else a

let create ~seed model =
  let t = { model; rng = Npra_core.Rng.create ~seed; next_at = 0 } in
  (* discard a few words so nearby seeds decorrelate *)
  for _ = 1 to 3 do
    ignore (rand t)
  done;
  t.next_at <- first t model;
  t

let peek t = t.next_at

let advance t =
  let at = t.next_at in
  t.next_at <- step t t.model at;
  at

(* The first [n] arrival cycles, for tests and tables. *)
let take ~seed model n =
  let t = create ~seed model in
  List.init n (fun _ -> advance t)

let solo_service ?(config = Npra_sim.Machine.default_config)
    (sys : Registry.system) progs =
  let open Npra_sim in
  List.map2
    (fun prog w ->
      let m =
        Machine.run
          ~config:{ config with max_cycles = 100_000_000 }
          ~mem_image:w.Workload.mem_image [ prog ]
      in
      match
        (List.hd (Machine.report m).Machine.thread_reports).Machine.completion
      with
      | Some c -> max 1 c
      | None -> 1)
    progs sys.Registry.workloads
