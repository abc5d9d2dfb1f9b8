(* npra — the network-processor register allocation toolchain CLI.

   Subcommands:
     list               list the benchmark kernels
     dump <kernel>      print a kernel's assembly
     analyze <kernel>   NSR / interference / bound statistics
     allocate <k...>    balance registers across up to 4 kernels and
                        print the allocation, verifying safety
     simulate <k...>    allocate, then run on the cycle-level machine
     throughput <k...>  allocate, then measure packet throughput on a
                        bank of micro-engines under seeded traffic
     asm <file>         allocate threads from an assembly file
     table1|fig14|table2|table3   reproduce the paper's experiments *)

open Cmdliner
open Npra_ir
open Npra_regalloc
open Npra_workloads
open Npra_core

let kernel_arg p doc =
  Arg.(required & pos p (some string) None & info [] ~docv:"KERNEL" ~doc)

let kernels_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"KERNEL" ~doc:"Benchmark kernel ids (see $(b,npra list)).")

let iters_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "iters" ] ~docv:"N" ~doc:"Main-loop iterations per thread.")

let nreg_arg =
  Arg.(
    value & opt int 128
    & info [ "nreg" ] ~docv:"N" ~doc:"Registers in the shared file.")

(* A count option that must be at least 1. A smaller value is a usage
   error: cmdliner prints the message and the usage line, and the
   command exits 2. *)
let positive_opt name ~default ~doc =
  let check n =
    if n >= 1 then `Ok n
    else `Error (true, Fmt.str "--%s must be at least 1, got %d" name n)
  in
  let arg = Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc) in
  Term.(ret (const check $ arg))

let lookup id =
  match Registry.find id with
  | Some s -> s
  | None ->
    Fmt.epr "unknown kernel %S; available: %s@." id
      (String.concat ", " (Registry.ids ()));
    exit 2

(* The system of [ids], kernel [i] at slot [i]; an unknown id exits 2. *)
let system_of ?iters ids = Registry.system ?iters (List.map lookup ids)

(* ---- list ---- *)

let list_cmd =
  let run traffic chains =
    if chains then begin
      List.iter
        (fun s ->
          Fmt.pr "%-12s %-10s %s@." s.Workload.id
            (Workload.role_name s.Workload.role)
            s.Workload.summary)
        Registry.all;
      Fmt.pr "@.chain families (rx/tx pairs for inter-engine chains):@.";
      List.iter
        (fun (family, rx, tx) ->
          Fmt.pr "  %-10s %s -> classify -> %s@." family rx.Workload.id
            tx.Workload.id)
        (Registry.chain_families ())
    end
    else
      List.iter
        (fun s ->
          if traffic then
            match Registry.default_traffic s.Workload.id with
            | Some t ->
              Fmt.pr "%-12s %-48s %a@." s.Workload.id s.Workload.summary
                Workload.pp_traffic_spec t
            | None ->
              Fmt.pr "%-12s %-48s (no traffic model)@." s.Workload.id
                s.Workload.summary
          else Fmt.pr "%-12s %s@." s.Workload.id s.Workload.summary)
        Registry.all
  in
  let traffic_flag =
    Arg.(
      value & flag
      & info [ "traffic" ]
          ~doc:"Also show each kernel's default packet-arrival model.")
  in
  let chains_flag =
    Arg.(
      value & flag
      & info [ "chains" ]
          ~doc:
            "Show each kernel's chain role (rx/classify/tx/standalone) and \
             the rx/tx chain families the registry pairs up.")
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark kernels")
    Term.(const run $ traffic_flag $ chains_flag)

(* ---- dump ---- *)

let dump_cmd =
  let run id =
    let w = Registry.instantiate (lookup id) ~slot:0 in
    Fmt.pr "%s" (Npra_asm.Printer.to_string w.Workload.prog)
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print a kernel's assembly")
    Term.(const run $ kernel_arg 0 "Kernel id.")

(* ---- analyze ---- *)

let analyze_cmd =
  let run id =
    let w = Registry.instantiate (lookup id) ~slot:0 in
    let prog = Npra_cfg.Webs.rename w.Workload.prog in
    let ctx = Context.create prog in
    let _colored, b = Estimate.run ctx in
    let nsr = Nsr.compute prog in
    Fmt.pr "%s: %d instructions, %d CTX, %d live ranges@." w.Workload.name
      (Prog.length prog)
      (Prog.count_ctx_switches prog)
      (Context.num_nodes ctx);
    Fmt.pr "bounds: %a@." Estimate.pp_bounds b;
    Fmt.pr "%a" Nsr.pp nsr
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Print NSR and bound statistics")
    Term.(const run $ kernel_arg 0 "Kernel id.")

(* ---- allocate ---- *)

(* Run the graceful-degradation chain; report provenance and the
   diagnostic trail rather than dying, and exit only if every stage of
   the chain failed. *)
let balanced_or_die ?spill_bases ~nreg progs =
  match Pipeline.balanced ~nreg ?spill_bases progs with
  | Ok bal -> bal
  | Error trail ->
    Fmt.epr "allocation failed at every stage:@.";
    List.iter (fun d -> Fmt.epr "  %a@." Pipeline.pp_diagnostic d) trail;
    exit 1

let print_layout (bal : Pipeline.balanced) =
  (match bal.Pipeline.inter with
  | Some inter -> Fmt.pr "%a" Inter.pp inter
  | None ->
    Fmt.pr "spilled ranges per thread: %a@."
      Fmt.(list ~sep:sp int)
      bal.Pipeline.spilled_ranges);
  Fmt.pr "%a" Assign.pp bal.Pipeline.layout

let verified_or_die (bal : Pipeline.balanced) =
  match bal.Pipeline.verify_errors with
  | [] -> Fmt.pr "safety verification: OK@."
  | errs ->
    Fmt.pr "safety verification FAILED:@.";
    List.iter (fun e -> Fmt.pr "  %a@." Verify.pp_error e) errs;
    exit 1

let print_balanced (bal : Pipeline.balanced) =
  List.iter
    (fun d -> Fmt.pr "degraded: %a@." Pipeline.pp_diagnostic d)
    bal.Pipeline.trail;
  Fmt.pr "allocation served by: %a@." Pipeline.pp_stage bal.Pipeline.provenance;
  print_layout bal;
  Fmt.pr "moves inserted: %d@." bal.Pipeline.moves;
  verified_or_die bal

let allocate_cmd =
  let run nreg iters ids =
    let sys = system_of ?iters ids in
    print_balanced
      (balanced_or_die ~spill_bases:sys.spill_bases ~nreg sys.progs)
  in
  Cmd.v
    (Cmd.info "allocate" ~doc:"Balance registers across kernels (up to 4)")
    Term.(const run $ nreg_arg $ iters_arg $ kernels_arg)

(* ---- simulate ---- *)

let simulate_cmd =
  let run nreg iters baseline_too show_timeline ids =
    let { Registry.workloads; progs; mem_image; spill_bases } =
      system_of ?iters ids
    in
    let iters_l = List.map (fun w -> w.Workload.iters) workloads in
    let bal = balanced_or_die ~spill_bases ~nreg progs in
    List.iter
      (fun d -> Fmt.pr "degraded: %a@." Pipeline.pp_diagnostic d)
      bal.Pipeline.trail;
    (match bal.Pipeline.verify_errors with
    | [] -> ()
    | errs ->
      List.iter (fun e -> Fmt.epr "verify: %a@." Verify.pp_error e) errs;
      exit 1);
    let machine =
      Npra_sim.Machine.run ~mem_image ~timeline:show_timeline
        bal.Pipeline.programs
    in
    let report = Npra_sim.Machine.report machine in
    Fmt.pr "== balanced allocation ==@.%a" Npra_sim.Machine.pp_report report;
    if show_timeline then begin
      Fmt.pr "@.== timeline (first 60 intervals) ==@.";
      let full = Fmt.str "%a" Npra_sim.Machine.pp_timeline machine in
      String.split_on_char '\n' full
      |> List.filteri (fun i _ -> i < 60)
      |> List.iter (Fmt.pr "%s@.")
    end;
    List.iter2
      (fun tr n -> Fmt.pr "  %-16s %.1f cycles/iteration@." tr.Npra_sim.Machine.name n)
      report.Npra_sim.Machine.thread_reports
      (Pipeline.cycles_per_iteration report iters_l);
    if baseline_too then begin
      let base = Pipeline.baseline ~nreg ~spill_bases progs in
      let report =
        Npra_sim.Machine.report
          (Npra_sim.Machine.run ~mem_image base.Pipeline.base_programs)
      in
      Fmt.pr "== spilling baseline (fixed partition) ==@.%a"
        Npra_sim.Machine.pp_report report;
      List.iter2
        (fun tr n ->
          Fmt.pr "  %-16s %.1f cycles/iteration@." tr.Npra_sim.Machine.name n)
        report.Npra_sim.Machine.thread_reports
        (Pipeline.cycles_per_iteration report iters_l)
    end
  in
  let baseline_flag =
    Arg.(value & flag & info [ "baseline" ] ~doc:"Also run the spilling baseline.")
  in
  let timeline_flag =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Print the scheduling timeline.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Allocate and run kernels on the machine model")
    Term.(
      const run $ nreg_arg $ iters_arg $ baseline_flag $ timeline_flag
      $ kernels_arg)

(* ---- throughput ---- *)

let throughput_cmd =
  let run nreg engines duration seed use_baseline json ids =
    let { Registry.workloads; progs; mem_image; spill_bases }, specs =
      Registry.traffic_system (List.map lookup ids)
    in
    let progs =
      if use_baseline then begin
        if not json then
          Fmt.pr "allocation: spilling baseline (fixed partition)@.";
        (Pipeline.baseline ~nreg ~spill_bases progs).Pipeline.base_programs
      end
      else begin
        let bal = balanced_or_die ~spill_bases ~nreg progs in
        if not json then begin
          List.iter
            (fun d -> Fmt.pr "degraded: %a@." Pipeline.pp_diagnostic d)
            bal.Pipeline.trail;
          Fmt.pr "allocation served by: %a@." Pipeline.pp_stage
            bal.Pipeline.provenance
        end;
        bal.Pipeline.programs
      end
    in
    if not json then
      List.iter2
        (fun w s ->
          Fmt.pr "  %-12s %a@." w.Workload.name Workload.pp_traffic_spec s)
        workloads specs;
    let m =
      Npra_traffic.Dispatch.run ~engines ~sentinel:`Trap ~seed
        ~duration ~specs ~mem_image progs
    in
    if json then print_string (Npra_traffic.Metrics.to_json m)
    else Fmt.pr "%a" Npra_traffic.Metrics.pp m;
    match Npra_traffic.Metrics.faults m with
    | [] -> ()
    | fs ->
      List.iter (fun (e, f) -> Fmt.epr "engine %d FAULT: %s@." e f) fs;
      exit 1
  in
  let engines_arg =
    positive_opt "engines" ~default:2 ~doc:"Micro-engines running the mix."
  in
  let duration_arg =
    Arg.(
      value & opt int 100_000
      & info [ "duration" ] ~docv:"CYCLES"
          ~doc:"Cycles of traffic generation per engine.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the arrival streams and packet payloads.")
  in
  let baseline_flag =
    Arg.(
      value & flag
      & info [ "baseline" ]
          ~doc:"Run the spilling fixed-partition baseline instead of the \
                balanced allocator.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the run metrics as canonical JSON instead of the report.")
  in
  Cmd.v
    (Cmd.info "throughput"
       ~doc:
         "Allocate kernels (up to 4) and measure packet throughput under \
          their default traffic models")
    Term.(
      const run $ nreg_arg $ engines_arg $ duration_arg $ seed_arg
      $ baseline_flag $ json_flag $ kernels_arg)

(* ---- chaos ---- *)

let chaos_cmd =
  let run nreg engines duration seed crashes hangs transient_hangs storms floods
      shed json ids =
    let sys, specs = Registry.traffic_system (List.map lookup ids) in
    let bal = balanced_or_die ~spill_bases:sys.spill_bases ~nreg sys.progs in
    let progs = bal.Pipeline.programs in
    let open Npra_traffic in
    let chaos =
      Chaos.schedule ~seed:(seed + 131) ~engines ~threads:(List.length progs)
        ~duration
        {
          Chaos.crashes;
          permanent_hangs = hangs;
          transient_hangs;
          storms;
          floods;
        }
    in
    if not json then
      Fmt.pr "chaos schedule (seed %d): %a@." chaos.Chaos.seed
        Fmt.(list ~sep:comma Chaos.pp_event)
        chaos.Chaos.events;
    let m =
      Dispatch.run ~engines ~sentinel:`Trap ~chaos
        ~watchdog:Dispatch.default_watchdog
        ?shed:(if shed then Some Dispatch.default_shed else None)
        ~seed ~duration ~specs ~mem_image:sys.mem_image progs
    in
    if json then print_string (Metrics.to_json m)
    else begin
      Fmt.pr "%a" Metrics.pp m;
      Fmt.pr "delivered fraction (flood excluded): %.4f, surviving %d/%d@."
        (Metrics.delivered_fraction m)
        (Metrics.surviving_engines m)
        engines
    end;
    if not (Metrics.conservation_ok m) then begin
      Fmt.epr
        "PACKET CONSERVATION VIOLATED: offered %d <> served %d + dropped %d + \
         residual %d@."
        (Metrics.total_offered m) (Metrics.total_served m)
        (Metrics.total_dropped m) (Metrics.total_residual m);
      exit 1
    end
  in
  let engines_arg =
    positive_opt "engines" ~default:3 ~doc:"Micro-engines running the mix."
  in
  let duration_arg =
    Arg.(
      value & opt int 40_000
      & info [ "duration" ] ~docv:"CYCLES"
          ~doc:"Cycles of traffic generation.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for arrival streams and the fault schedule.")
  in
  let count name doc = Arg.(value & opt int 0 & info [ name ] ~docv:"N" ~doc) in
  let crashes_arg = count "crashes" "Permanent engine crashes to inject." in
  let hangs_arg = count "hangs" "Permanent engine hangs (watchdog fodder)." in
  let transient_arg = count "transient-hangs" "Self-clearing engine stalls." in
  let storms_arg = count "storms" "Register-corruption storms." in
  let floods_arg = count "floods" "Offered-load floods on one port." in
  let shed_flag =
    Arg.(
      value & flag
      & info [ "shed" ]
          ~doc:"Enable the per-port deficit-round-robin admission credit.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the run metrics as canonical JSON (the same shape the \
             bench harness writes) instead of the human-readable report.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run kernels under packet traffic with injected engine faults: \
          watchdog quarantine, re-dispatch and overload shedding, with a \
          printed recovery trail")
    Term.(
      const run $ nreg_arg $ engines_arg $ duration_arg $ seed_arg
      $ crashes_arg $ hangs_arg $ transient_arg $ storms_arg $ floods_arg
      $ shed_flag $ json_flag $ kernels_arg)

(* ---- adapt ---- *)

let scenarios_json names =
  Json.to_string
    (Json.Obj [ ("scenarios", List (List.map (fun n -> Json.String n) names)) ])

let adapt_cmd =
  let run scenario seed quick json list_scenarios =
    let names = Npra_fault.Adaptdriver.scenario_names in
    if list_scenarios then
      if json then
        print_string (scenarios_json names)
      else List.iter (fun n -> Fmt.pr "%s@." n) names
    else begin
      match Npra_fault.Adaptdriver.run_scenario ~seed ~quick scenario with
      | None ->
        Fmt.epr "unknown scenario %S; available: %s@." scenario
          (String.concat ", " names);
        exit 2
      | Some cell ->
        if json then print_string (Json.to_string (Npra_fault.Adaptdriver.cell_json cell))
        else Fmt.pr "%a" Npra_fault.Adaptdriver.pp_cell cell;
        if not cell.Npra_fault.Adaptdriver.c_ok then exit 1
    end
  in
  let scenario_arg =
    Arg.(
      value & pos 0 string "phase-shift"
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Traffic scenario to replay (see $(b,--list) for the full \
             set).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for arrival streams and any fault schedule.")
  in
  let quick_flag =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Half-duration run with a proportionally faster controller \
             (smaller window and dwell).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the cell as canonical JSON (the same shape BENCH_adapt\
             .json uses) instead of the replay report.")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the scenarios and exit.")
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Replay one shifting-traffic scenario twice — allocation frozen vs \
          the adaptive re-balancing control loop — and print the full \
          re-balance trail")
    Term.(
      const run $ scenario_arg $ seed_arg $ quick_flag $ json_flag
      $ list_flag)

(* ---- chip ---- *)

let chip_cmd =
  let run scenario seed jobs quick json list_scenarios =
    let names = Npra_chip.Driver.scenario_names ~quick in
    if list_scenarios then
      if json then
        print_string (scenarios_json names)
      else List.iter (fun n -> Fmt.pr "%s@." n) names
    else begin
      let pool = Npra_par.Pool.create ~jobs () in
      match Npra_chip.Driver.run_scenario ~pool ~seed ~quick scenario with
      | None ->
        Fmt.epr "unknown scenario %S; available: %s@." scenario
          (String.concat ", " names);
        exit 2
      | Some cell ->
        if json then print_string (Json.to_string (Npra_chip.Driver.cell_json cell))
        else Fmt.pr "%a" Npra_chip.Driver.pp_cell cell;
        if not (Npra_chip.Driver.cell_ok cell) then exit 1
    end
  in
  let scenario_arg =
    Arg.(
      value & pos 0 string "shard"
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Chip scenario to replay (see $(b,--list) for the full set): a \
             sharded fixed-vs-balanced run, a sharded chaos run, or one \
             rx → classify → tx chain per registry chain family.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for the shard spreader, arrival streams and any fault \
             schedule.")
  in
  let jobs_arg =
    positive_opt "jobs" ~default:1
      ~doc:
        "Worker domains running the shards of a shard scenario in \
         parallel; a chain scenario runs in one domain. The replay is \
         byte-identical at any job count."
  in
  let quick_flag =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Scaled-down chip (fewer engines, shorter runs).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the cell as canonical JSON (the same shape BENCH_chip\
             .json uses) instead of the replay report.")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the scenarios and exit.")
  in
  Cmd.v
    (Cmd.info "chip"
       ~doc:
         "Replay one full-chip scenario: sharded dispatch over the tiered \
          memory hierarchy, chaos across shards, or an inter-engine packet \
          chain with DRR hand-off and a latency SLO")
    Term.(
      const run $ scenario_arg $ seed_arg $ jobs_arg $ quick_flag $ json_flag
      $ list_flag)

(* ---- portfolio ---- *)

let portfolio_cmd =
  let run nreg seed jobs probe_horizon json ids =
    let pool = Npra_par.Pool.create ~jobs () in
    let progs, spill_bases, probe =
      Experiments.portfolio_system ~horizon:probe_horizon (List.map lookup ids)
    in
    match Portfolio.race ~pool ~nreg ~spill_bases ~seed ~probe progs with
    | Error trail ->
      Fmt.epr "every portfolio entrant failed:@.";
      List.iter (fun d -> Fmt.epr "  %a@." Pipeline.pp_diagnostic d) trail;
      exit 1
    | Ok p when json ->
      print_string (Json.to_string (Experiments.portfolio_race_json ~seed ~nreg p));
      if p.Portfolio.winner.Pipeline.verify_errors <> [] then exit 1
    | Ok p ->
      Fmt.pr "slate (%d entrants, %d probed):@."
        (List.length p.Portfolio.slate)
        p.Portfolio.probed;
      List.iter
        (fun (stage, oc) ->
          Fmt.pr "  %-40s %a@."
            (Fmt.str "%a" Pipeline.pp_stage stage)
            Portfolio.pp_outcome oc)
        p.Portfolio.slate;
      let w = p.Portfolio.winner in
      Fmt.pr "winner: %a (%a)@." Pipeline.pp_stage w.Pipeline.provenance
        Portfolio.pp_score p.Portfolio.winner_score;
      print_layout w;
      verified_or_die w
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the randomised split-order entrants.")
  in
  let jobs_arg =
    positive_opt "jobs" ~default:1
      ~doc:
        "Worker domains racing the slate. The result is identical at any \
         job count; only wall clock changes."
  in
  let horizon_arg =
    Arg.(
      value & opt int 24_000
      & info [ "horizon" ] ~docv:"CYCLES"
          ~doc:"Cycle budget of the throughput probe that breaks score ties.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the race result as canonical JSON (the same score fields \
             the bench harness writes) instead of the human-readable \
             report.")
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:
         "Race the allocation strategy slate in parallel (up to 4 kernels) \
          and print the winner with the full slate verdict")
    Term.(
      const run $ nreg_arg $ seed_arg $ jobs_arg $ horizon_arg $ json_flag
      $ kernels_arg)

(* ---- asm ---- *)

(* Frontend failures (exit 3) are distinct from allocation failures
   (exit 1): scripts can tell "your source is malformed" from "your
   source is fine but does not fit the register file". *)
let frontend_or_die ~what ~src = function
  | Ok progs -> progs
  | Error diags ->
    Fmt.epr "%s: %d error(s)@.%s@." what (List.length diags)
      (Npra_diag.Diag.to_string ~src diags);
    exit 3

let asm_cmd =
  let run nreg file =
    let src = In_channel.with_open_text file In_channel.input_all in
    let progs =
      frontend_or_die ~what:"parse failed" ~src (Npra_asm.Parser.parse src)
    in
    let bal = balanced_or_die ~nreg progs in
    print_balanced bal;
    List.iter
      (fun p -> Fmt.pr "%s@." (Npra_asm.Printer.to_string p))
      bal.Pipeline.programs
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly file.")
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Allocate the threads of an assembly file")
    Term.(const run $ nreg_arg $ file_arg)

(* ---- cc: compile NPC source ---- *)

let cc_cmd =
  let run nreg optimize simulate file =
    let src = In_channel.with_open_text file In_channel.input_all in
    match
      frontend_or_die ~what:"compilation failed" ~src
        (Npra_npc.Npc.compile src)
    with
    | progs ->
      Fmt.pr "compiled %d thread(s): %s@." (List.length progs)
        (String.concat ", " (List.map (fun p -> p.Prog.name) progs));
      let progs =
        if optimize then
          List.map
            (fun p ->
              let p', stats = Npra_opt.Opt.run p in
              Fmt.pr "  %s: %a@." p.Prog.name Npra_opt.Opt.pp_stats stats;
              p')
            progs
        else progs
      in
      let bal = balanced_or_die ~nreg progs in
      print_balanced bal;
      List.iter
        (fun p -> Fmt.pr "%s@." (Npra_asm.Printer.to_string p))
        bal.Pipeline.programs;
      if simulate then begin
        let report =
          Npra_sim.Machine.report
            (Npra_sim.Machine.run ~mem_image:[] bal.Pipeline.programs)
        in
        Fmt.pr "%a" Npra_sim.Machine.pp_report report
      end
  in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"NPC source file.")
  in
  let sim_flag =
    Arg.(value & flag & info [ "run" ] ~doc:"Also run the result on the machine model.")
  in
  let opt_flag =
    Arg.(value & flag & info [ "O" ] ~doc:"Copy-propagate and eliminate dead code first.")
  in
  Cmd.v
    (Cmd.info "cc" ~doc:"Compile NPC (C-subset) threads and balance their registers")
    Term.(const run $ nreg_arg $ opt_flag $ sim_flag $ file_arg)

(* ---- sra ---- *)

let sra_cmd =
  let run nreg nthd id =
    let w = Registry.instantiate (lookup id) ~slot:0 in
    let th = Inter.init_thread (Npra_cfg.Webs.rename w.Workload.prog) in
    match Sra.allocate ~nreg ~nthd th with
    | Error (`Infeasible m) ->
      Fmt.epr "infeasible: %s@." m;
      exit 1
    | Ok r -> Fmt.pr "%a@." Sra.pp r
  in
  let nthd_arg =
    Arg.(
      value & opt int 4
      & info [ "threads" ] ~docv:"N" ~doc:"Identical threads sharing the PU.")
  in
  Cmd.v
    (Cmd.info "sra"
       ~doc:"Symmetric register allocation: one kernel on all threads (paper              section 8)")
    Term.(const run $ nreg_arg $ nthd_arg $ kernel_arg 0 "Kernel id.")

(* ---- dot ---- *)

let dot_cmd =
  let run kind id =
    let w = Registry.instantiate (lookup id) ~slot:0 in
    let prog = Npra_cfg.Webs.rename w.Workload.prog in
    match kind with
    | "cfg" -> Fmt.pr "%a" Dot.cfg prog
    | "gig" -> Fmt.pr "%a" Dot.interference prog
    | other ->
      Fmt.epr "unknown graph kind %S (cfg | gig)@." other;
      exit 2
  in
  let kind_arg =
    Arg.(
      value
      & opt string "cfg"
      & info [ "kind" ] ~docv:"KIND" ~doc:"Graph to render: cfg or gig.")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Emit Graphviz for a kernel's CFG (NSR-clustered) or interference graph")
    Term.(const run $ kind_arg $ kernel_arg 0 "Kernel id.")

(* ---- experiments ---- *)

let experiment name doc render =
  Cmd.v (Cmd.info name ~doc) Term.(const render $ const ())

let table1_cmd =
  experiment "table1" "Reproduce Table 1 (benchmark properties)" (fun () ->
      Report.print (Experiments.table1_report (Experiments.table1 ())))

let fig14_cmd =
  experiment "fig14" "Reproduce Figure 14 (SRA register demand)" (fun () ->
      let rows = Experiments.fig14 () in
      Report.print (Experiments.fig14_report rows);
      Fmt.pr "average saving: %.1f%%@." (Experiments.fig14_average rows))

let table2_cmd =
  experiment "table2" "Reproduce Table 2 (moves at minimal registers)"
    (fun () -> Report.print (Experiments.table2_report (Experiments.table2 ())))

let table3_cmd =
  experiment "table3" "Reproduce Table 3 (ARA scenarios)" (fun () ->
      Report.print (Experiments.table3_report (Experiments.table3 ())))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  (* every usage error, cmdliner's own parse errors included, exits 2 *)
  exit
    (Cmd.eval ~term_err:2
       (Cmd.group ~default
          (Cmd.info "npra" ~version:"1.0.0"
             ~doc:
               "Balanced register allocation for a multithreaded network \
                processor (PLDI 2004 reproduction)")
          [
            list_cmd; dump_cmd; analyze_cmd; allocate_cmd; portfolio_cmd;
            simulate_cmd; throughput_cmd; chaos_cmd; adapt_cmd; chip_cmd;
            asm_cmd;
            cc_cmd; sra_cmd;
            dot_cmd;
            table1_cmd; fig14_cmd; table2_cmd; table3_cmd;
          ]))
