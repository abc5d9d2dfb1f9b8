(* Fault-injection detection matrix.

   For each workload kernel: build a four-thread system, allocate it
   through the graceful-degradation pipeline, confirm the corruption
   sentinel stays silent on the clean system (a false-positive check
   that also calibrates the cycle budget), then run every fault mutator
   and push the corrupted system through both detection layers — the
   static verifier and the sentinel-armed simulator. Any injected fault
   that neither layer catches fails the harness. *)

open Npra_regalloc
open Npra_sim
open Npra_workloads
open Npra_core

type runtime_outcome =
  | Trapped of Machine.corruption  (* the sentinel caught it *)
  | Stuck of string  (* the machine trapped for another reason *)
  | Silent  (* ran to completion unnoticed *)

let runtime_name = function
  | Trapped _ -> "corruption"
  | Stuck _ -> "stuck"
  | Silent -> "silent"

type status =
  | Not_applicable of string
  | Injected of {
      thread : int;
      detail : string;
      static_errors : int;  (* Verify errors on the corrupted system *)
      runtime : runtime_outcome;
      detected : bool;  (* static_errors > 0 or the sentinel trapped *)
    }

type cell = { fault : Mutate.kind; status : status }

type kernel_report = {
  k_name : string;
  provenance : Pipeline.stage;  (* which pipeline stage allocated it *)
  clean_fault : string option;
      (* sentinel or machine trap on the *clean* system: a false
         positive, and an immediate harness failure *)
  clean_cycles : int;
  cells : cell list;
}

type matrix = { kernels : kernel_report list; nthd : int; nreg : int }

let nthd = 4
let nreg = 128

let kernel_report ?seed spec =
  let sys = Registry.system (List.init nthd (fun _ -> spec)) in
  (* An explicit seed overlays fresh packet words on every thread's
     input buffer (later image entries win), so the matrix can be
     replayed over different packet contents; without one the committed
     baseline images stay byte-identical. *)
  let mem_image =
    match seed with
    | None -> sys.mem_image
    | Some seed ->
      sys.mem_image
      @ List.concat
          (List.mapi
             (fun slot w ->
               List.mapi
                 (fun j v -> (Workload.input_base w + j, v))
                 (Workload.random_words ~seed:(seed + (slot * 7919)) 16))
             sys.workloads)
  in
  let bal =
    Pipeline.balanced_exn ~nreg ~spill_bases:sys.spill_bases sys.progs
  in
  let layout = bal.Pipeline.layout in
  (* Clean run, sentinel armed: must complete without any trap. *)
  let clean_fault, clean_cycles =
    match
      Machine.run ~sentinel:`Trap ~mem_image bal.Pipeline.programs
    with
    | m -> (None, (Machine.report m).Machine.total_cycles)
    | exception Machine.Corruption c ->
      (Some (Fmt.str "sentinel false positive: %a" Machine.pp_corruption c), 0)
    | exception Machine.Stuck s ->
      (Some (Fmt.str "clean run stuck: %a" Machine.pp_stuck s), 0)
  in
  (* Corrupted code can diverge (a dropped move may derail a loop
     counter), so fault runs get a budget derived from the clean run
     rather than the default hundred-million-cycle ceiling. *)
  let config =
    {
      Machine.default_config with
      Machine.max_cycles = (4 * clean_cycles) + 20_000;
    }
  in
  let run_fault kind =
    match Mutate.inject layout bal.Pipeline.programs kind with
    | Mutate.Not_applicable reason ->
      { fault = kind; status = Not_applicable reason }
    | Mutate.Applied inj ->
      let static_errors =
        List.length (Verify.check_system layout inj.Mutate.programs)
      in
      let runtime =
        match
          Machine.run ~config ~sentinel:`Trap ~mem_image inj.Mutate.programs
        with
        | _ -> Silent
        | exception Machine.Corruption c -> Trapped c
        | exception Machine.Stuck s -> Stuck (Fmt.str "%a" Machine.pp_stuck s)
      in
      let detected =
        static_errors > 0
        || match runtime with Trapped _ -> true | Stuck _ | Silent -> false
      in
      {
        fault = kind;
        status =
          Injected
            {
              thread = inj.Mutate.thread;
              detail = inj.Mutate.detail;
              static_errors;
              runtime;
              detected;
            };
      }
  in
  {
    k_name = spec.Workload.id;
    provenance = bal.Pipeline.provenance;
    clean_fault;
    clean_cycles;
    cells = List.map run_fault Mutate.all_kinds;
  }

(* Kernel reports never read each other — each builds, allocates and
   simulates its own four-thread system — so the matrix fans out over
   the pool and [map_list] keeps registry order. *)
let run ?(pool = Npra_par.Pool.sequential) ?seed ?(specs = Registry.all) () =
  { kernels = Npra_par.Pool.map_list pool (kernel_report ?seed) specs;
    nthd; nreg }

let all_detected m =
  List.for_all
    (fun k ->
      k.clean_fault = None
      && List.for_all
           (fun c ->
             match c.status with
             | Not_applicable _ -> true
             | Injected i -> i.detected)
           k.cells)
    m.kernels

(* (injected, detected, not applicable) across the whole matrix. *)
let totals m =
  List.fold_left
    (fun acc k ->
      List.fold_left
        (fun (inj, det, na) c ->
          match c.status with
          | Not_applicable _ -> (inj, det, na + 1)
          | Injected i -> (inj + 1, (det + if i.detected then 1 else 0), na))
        acc k.cells)
    (0, 0, 0) m.kernels

let pp ppf m =
  Fmt.pf ppf "%-12s %-18s %-9s %-9s %-10s %s@." "kernel" "fault" "static"
    "sentinel" "detected" "note";
  List.iter
    (fun k ->
      (match k.clean_fault with
      | None ->
        Fmt.pf ppf "%-12s %-18s %-9s %-9s %-10s clean, %d cycles [%a]@."
          k.k_name "(none)" "-" "silent" "n/a" k.clean_cycles Pipeline.pp_stage
          k.provenance
      | Some f ->
        Fmt.pf ppf "%-12s %-18s %-9s %-9s %-10s %s@." k.k_name "(none)" "-" "-"
          "FALSE+" f);
      List.iter
        (fun c ->
          match c.status with
          | Not_applicable reason ->
            Fmt.pf ppf "%-12s %-18s %-9s %-9s %-10s %s@." k.k_name
              (Mutate.kind_name c.fault) "-" "-" "n/a" reason
          | Injected i ->
            Fmt.pf ppf "%-12s %-18s %-9d %-9s %-10s %s@." k.k_name
              (Mutate.kind_name c.fault) i.static_errors
              (runtime_name i.runtime)
              (if i.detected then "yes" else "MISSED")
              i.detail)
        k.cells)
    m.kernels;
  let inj, det, na = totals m in
  Fmt.pf ppf "@.injected %d, detected %d, not applicable %d@." inj det na

let to_json m =
  let cell_json c =
    let fault = ("fault", Json.String (Mutate.kind_name c.fault)) in
    match c.status with
    | Not_applicable reason ->
      Json.Obj [ fault; ("applied", Bool false); ("reason", String reason) ]
    | Injected i ->
      Json.Obj
        [ fault; ("applied", Bool true); ("thread", Int i.thread);
          ("static_errors", Int i.static_errors);
          ("runtime", String (runtime_name i.runtime));
          ("detected", Bool i.detected); ("detail", String i.detail) ]
  in
  let kernel_json k =
    Json.Obj
      [ ("kernel", String k.k_name);
        ("provenance", String (Fmt.str "%a" Pipeline.pp_stage k.provenance));
        ("clean_sentinel_silent", Bool (k.clean_fault = None));
        ("clean_cycles", Int k.clean_cycles);
        ("faults", List (List.map cell_json k.cells)) ]
  in
  let inj, det, na = totals m in
  Json.Obj
    [ ("benchmark", String "faults"); ("threads_per_system", Int m.nthd);
      ("nreg", Int m.nreg); ("kernels", List (List.map kernel_json m.kernels));
      ("injected", Int inj); ("detected", Int det); ("not_applicable", Int na);
      ("all_detected", Bool (all_detected m)) ]
