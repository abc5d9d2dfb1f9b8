(** Fault-injection detection matrix.

    Runs every (kernel × fault-mutator) cell through both detection
    layers — the static verifier and the corruption-sentinel-armed
    simulator — after confirming the sentinel stays silent on the clean
    system. The resulting matrix is the repo's evidence that an unsafe
    allocation cannot slip through undetected. *)

open Npra_sim
open Npra_workloads
open Npra_core

type runtime_outcome =
  | Trapped of Machine.corruption  (** the sentinel caught it *)
  | Stuck of string  (** the machine trapped for another reason *)
  | Silent  (** ran to completion unnoticed *)

type status =
  | Not_applicable of string
      (** the kernel offers no violating candidate for this mutator *)
  | Injected of {
      thread : int;
      detail : string;
      static_errors : int;
      runtime : runtime_outcome;
      detected : bool;  (** [static_errors > 0] or the sentinel trapped *)
    }

type cell = { fault : Mutate.kind; status : status }

type kernel_report = {
  k_name : string;
  provenance : Pipeline.stage;
  clean_fault : string option;
      (** a trap on the clean system — a false positive; harness failure *)
  clean_cycles : int;
  cells : cell list;
}

type matrix = { kernels : kernel_report list; nthd : int; nreg : int }

val run :
  ?pool:Npra_par.Pool.t ->
  ?seed:int ->
  ?specs:Workload.spec list ->
  unit ->
  matrix
(** Builds, allocates, corrupts and measures each kernel as a
    four-thread system over the full 128-register file. Defaults to the
    whole registry. [seed] overlays seeded packet words on each
    thread's input buffer, replaying the matrix over different packet
    contents; omitted, the registry's committed images are used
    unchanged. [pool] fans the per-kernel reports out over its workers;
    kernels are independent, so the matrix — and its JSON — is
    identical at any job count. *)

val all_detected : matrix -> bool
(** True iff every injected fault was caught by at least one layer and
    no clean run trapped. *)

val totals : matrix -> int * int * int
(** (injected, detected, not-applicable) across the matrix. *)

val pp : matrix Fmt.t

val to_json : matrix -> Npra_core.Json.t
(** The BENCH_faults.json payload, without its wall_clock member. *)
