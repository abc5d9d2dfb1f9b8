(* bench simspeed: how fast does the simulator simulate?

   Two guarded measurements, written to BENCH_simspeed.json.

   Engine sweep — every registry kernel as a balanced four-thread
   system, run to completion repeatedly under each engine (the legacy
   oracle and soa) with the sentinel off, so the soa burst loop
   actually engages, and under soa once more with the sentinel armed,
   the configuration every chaos, adapt and fault run pays for. The
   figure of merit is simulated cycles per wall second; the
   deterministic cycle count per run is read off a first run and
   cross-checked across engines and sentinel modes, so the rate is
   anchored to the machine model, not to repetitions.

   Pool matrix — a matrix of chip cells at different scales run through
   {!Npra_chip.Shard} on a one-worker and a two-worker pool, in
   alternating order over several pairs. Every run must match the
   first byte for byte, and the guarded figure is the real speedup of
   jobs 2 over jobs 1 (the ratio of the median wall clocks).

   The floors the report is held to (exit 1 below any) live in
   {!Checks.simspeed}. *)

open Npra_workloads
open Npra_core
open Npra_bench
module Machine = Npra_sim.Machine
module Pool = Npra_par.Pool
module Shard = Npra_chip.Shard

(* ------------------------------------------------------------------ *)
(* Engine sweep.                                                       *)

type kernel_speed = {
  k_name : string;
  k_cycles : int;  (* deterministic simulated cycles of one system run *)
  k_legacy : float;  (* cycles per second *)
  k_soa : float;
  k_trap : float;  (* soa with the sentinel armed *)
}

let kernel_system spec =
  let sys = Registry.system (List.init 4 (fun _ -> spec)) in
  let bal =
    Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases sys.progs
  in
  (bal.Pipeline.programs, sys.mem_image)

(* Repeat [run] — which returns the seconds its timed region took —
   until [min_s] of measured time accumulates, then report the
   simulation rate. The first (cycle-counting) run warms every cache. *)
let cps ~min_s ~cycles run =
  let reps = ref 0 in
  let spent = ref 0. in
  while !spent < min_s do
    spent := !spent +. run ();
    incr reps
  done;
  float_of_int (cycles * !reps) /. !spent

(* One rep: a fresh machine driven to completion, with construction
   (program decode, row concatenation) outside the timed region. That
   is the steady-state rate the traffic layer actually sees — a
   dispatcher builds each engine's machine once and then drives it
   through thousands of [run_until] slices — and it is the figure the
   engine comparison is about: how fast an engine executes cycles, not
   how fast programs decode. *)
let measure_kernel ~quick spec =
  let progs, mem_image = kernel_system spec in
  let run ?(sentinel = `Off) engine () =
    let m = Machine.create ~engine ~sentinel ~mem_image progs in
    let t0 = Unix.gettimeofday () in
    (match Machine.run_until m ~horizon:1_000_000_000 with
    | `Idle | `Horizon | `Halted _ -> ());
    Unix.gettimeofday () -. t0
  in
  let cycles ?(sentinel = `Off) engine =
    (Machine.report (Machine.run ~engine ~sentinel ~mem_image progs))
      .Machine.total_cycles
  in
  let c = cycles `Soa in
  if cycles `Legacy <> c || cycles ~sentinel:`Trap `Soa <> c then
    Fmt.failwith "simspeed: engine cycle counts diverge on %s" spec.Workload.id;
  let min_s = if quick then 0.02 else 0.25 in
  {
    k_name = spec.Workload.id;
    k_cycles = c;
    k_legacy = cps ~min_s ~cycles:c (run `Legacy);
    k_soa = cps ~min_s ~cycles:c (run `Soa);
    k_trap = cps ~min_s ~cycles:c (run ~sentinel:`Trap `Soa);
  }

(* Sweep-wide rate of one engine: total cycles over the time it takes
   to simulate every kernel once at its measured per-kernel rate — the
   cycle-weighted harmonic mean, so no kernel's rate is over-counted. *)
let sweep_cps kernels rate_of =
  let cycles =
    List.fold_left (fun a k -> a +. float_of_int k.k_cycles) 0. kernels
  in
  let seconds =
    List.fold_left
      (fun a k -> a +. (float_of_int k.k_cycles /. rate_of k))
      0. kernels
  in
  cycles /. seconds

(* ------------------------------------------------------------------ *)
(* Pool matrix.                                                        *)

type cell = { cl_engines : int; cl_shards : int; cl_duration : int }

(* Cells at deliberately different scales: the spread hash deals each
   cell's engines unevenly across its shards, and mixing small and
   large cells gives the task vector a cost spread that idle workers
   even out by stealing. The full-mode cells run long enough that each
   side of a jobs-1/jobs-2 pair takes at least about 0.3 s on a 2-core
   host: at a few tens of milliseconds, domain start-up decided the
   ratio. *)
let cells ~quick =
  if quick then
    [
      { cl_engines = 6; cl_shards = 2; cl_duration = 1_200 };
      { cl_engines = 16; cl_shards = 4; cl_duration = 1_200 };
      { cl_engines = 40; cl_shards = 8; cl_duration = 2_400 };
    ]
  else
    [
      { cl_engines = 8; cl_shards = 2; cl_duration = 180_000 };
      { cl_engines = 24; cl_shards = 6; cl_duration = 180_000 };
      { cl_engines = 64; cl_shards = 8; cl_duration = 360_000 };
    ]

let shard_system () =
  let sys =
    Registry.system ~iters:2 (List.map Registry.find_exn [ "crc32"; "frag" ])
  in
  let bal =
    Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases sys.progs
  in
  let specs =
    List.init 2 (fun _ ->
        {
          Workload.arrival = Workload.Uniform { period = 200 };
          queue_capacity = 4;
          per_packet_iters = 2;
        })
  in
  (bal.Pipeline.programs, sys.mem_image, specs)

let run_matrix ~pool ~seed ~cells (progs, mem_image, specs) =
  List.map
    (fun c ->
      Shard.run ~pool ~seed ~engines:c.cl_engines ~shards:c.cl_shards
        ~duration:c.cl_duration ~specs ~mem_image progs)
    cells

(* the run takes an odd number of pairs, so this is the middle one *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* ------------------------------------------------------------------ *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run (o : Cli.opts) =
  let quick = o.Cli.quick and jobs = o.Cli.jobs in
  let seed = Option.value o.Cli.seed ~default:42 in
  Fmt.pr
    "@.== Simspeed: engines + pool at jobs 1 vs 2 (seed %d, %d jobs%s) ==@."
    seed jobs
    (if quick then ", quick" else "");
  (* engine sweep *)
  Fmt.pr "%-12s %10s %14s %14s %8s %14s %8s@." "kernel" "cycles" "legacy c/s"
    "soa c/s" "soa/leg" "armed c/s" "arm/off";
  let kernels =
    List.map
      (fun spec ->
        let k = measure_kernel ~quick spec in
        Fmt.pr "%-12s %10d %14.0f %14.0f %7.2fx %14.0f %7.2fx@." k.k_name
          k.k_cycles k.k_legacy k.k_soa (k.k_soa /. k.k_legacy) k.k_trap
          (k.k_trap /. k.k_soa);
        k)
      Registry.all
  in
  let s_legacy = sweep_cps kernels (fun k -> k.k_legacy) in
  let s_soa = sweep_cps kernels (fun k -> k.k_soa) in
  let s_trap = sweep_cps kernels (fun k -> k.k_trap) in
  let soa_over_legacy = s_soa /. s_legacy and trap_over_off = s_trap /. s_soa in
  Fmt.pr "%-12s %10s %14.0f %14.0f %7.2fx %14.0f %7.2fx@." "sweep" "-" s_legacy
    s_soa soa_over_legacy s_trap trap_over_off;
  (* pool matrix: jobs 1 and jobs 2 alternate which runs first, and
     every run must equal the first byte for byte *)
  let cells = cells ~quick in
  let system = shard_system () in
  let domains = Domain.recommended_domain_count () in
  let pairs = if quick then 1 else 5 in
  let timed_matrix jobs =
    let runs, s =
      timed (fun () -> run_matrix ~pool:(Pool.create ~jobs ()) ~seed ~cells system)
    in
    (List.map Shard.to_json runs, s)
  in
  let runs =
    List.init pairs (fun p ->
        if p mod 2 = 0 then
          let one = timed_matrix 1 in
          (one, timed_matrix 2)
        else
          let two = timed_matrix 2 in
          (timed_matrix 1, two))
  in
  let reference = fst (fst (List.hd runs)) in
  let identical =
    List.for_all (fun ((a, _), (b, _)) -> a = reference && b = reference) runs
  in
  let wall1 = median (List.map (fun ((_, s), _) -> s) runs) in
  let wall2 = median (List.map (fun (_, (_, s)) -> s) runs) in
  let speedup = wall1 /. wall2 in
  Fmt.pr
    "@.pool: shard matrix (%d chips) at jobs 1 vs 2, median of %d pairs on %d \
     domains:@."
    (List.length cells) pairs domains;
  Fmt.pr "  jobs 1 %.3fs, jobs 2 %.3fs  (%.2fx), identical: %b@." wall1 wall2
    speedup identical;
  let rate x = Json.Float (0, x) in
  let kernel k =
    Json.Obj
      [ ("name", String k.k_name); ("cycles", Int k.k_cycles);
        ("legacy_cps", rate k.k_legacy); ("soa_cps", rate k.k_soa);
        ("soa_over_legacy", Float (3, k.k_soa /. k.k_legacy));
        ("soa_trap_cps", rate k.k_trap) ]
  in
  let cell c =
    Json.Obj
      [ ("engines", Int c.cl_engines); ("shards", Int c.cl_shards);
        ("duration", Int c.cl_duration) ]
  in
  let members =
    [ ("benchmark", Json.String "simspeed"); ("quick", Bool quick); ("seed", Int seed);
      ( "engines",
        Obj
          [ ("kernels", List (List.map kernel kernels));
            ( "sweep",
              Obj
                [ ("legacy_cps", rate s_legacy); ("soa_cps", rate s_soa);
                  ("soa_over_legacy", Float (3, soa_over_legacy));
                  ("soa_trap_cps", rate s_trap);
                  ("trap_over_off", Float (3, trap_over_off)) ] ) ] );
      ( "pool",
        Obj
          [ ("cells", List (List.map cell cells)); ("domains", Int domains);
            ("identical_at_jobs1_and_jobs2", Bool identical);
            ("wall_clock_jobs1_s", Float (3, wall1));
            ("wall_clock_jobs2_s", Float (3, wall2));
            ("speedup_jobs2", Float (3, speedup)) ] );
      ( "floors",
        Obj
          [ ("soa_over_legacy_min", Float (2, Checks.simspeed_ratio_floor ~quick));
            ("trap_over_off_min", Float (2, Checks.trap_ratio_floor ~quick));
            ("soa_cps_min", rate Checks.floor_soa_cps);
            ("speedup_jobs2_min", Float (2, Checks.floor_speedup_jobs2));
            ("enforced_engine_floors", Bool (not quick)) ] ) ]
  in
  let ok = Checks.apply Checks.simspeed_floors (Obj members) = [] in
  Json.Obj (members @ [ ("ok", Bool ok) ])
