(** Never-crash fuzzing harness for the two frontends and the full
    pipeline behind them.

    Feeds three families of input — pure random bytes, token/line/byte
    mutations of printed valid kernels, and print→mutate→parse round
    trips — through parse → optimise → balanced allocation → verify →
    sentinel-armed simulation under a step budget, and asserts the
    totality contract: every input maps to a structured outcome, never
    an uncaught exception, never a wall-clock hang. *)

type lang = Asm | Npc

val lang_name : lang -> string

type outcome =
  | Rejected of Npra_diag.Diag.t list
      (** the frontend refused it with structured diagnostics *)
  | Accepted  (** whole pipeline ran: allocated, verified, simulated *)
  | Alloc_failed  (** every stage of the degradation chain rejected it *)
  | Verify_failed of int  (** allocation produced verifier errors *)
  | Budget_stopped of string
      (** the simulator's cycle budget or deadlock detector fired — a
          structured stop, the fate of any non-terminating input *)
  | Crashed of string  (** an uncaught exception: the bug we hunt *)

val outcome_name : outcome -> string

val run_input : lang -> string -> outcome
(** Drive one input through the full pipeline at 64 registers, with a
    simulator budget of 30 000 cycles. Catches {e nothing}
    structured and {e everything} unstructured: [Crashed] is returned
    only for exceptions that escape the totality contract. *)

type stats = {
  seed : int;
  inputs : int;
  rejected : int;
  accepted : int;
  alloc_failed : int;
  verify_failed : int;
  budget_stopped : int;
  crashes : int;
  hangs : int;
  slowest_s : float;  (** wall-clock of the slowest single input *)
  crash_reports : (lang * string * string) list;
      (** (language, input excerpt, exception) for each crash, capped *)
}

val run :
  ?pool:Npra_par.Pool.t ->
  ?seed:int ->
  ?count:int ->
  unit ->
  stats
(** [count] generated/mutated inputs (default 12_000), deterministic in
    [seed]. The seeded crasher corpus and the pristine kernel corpus
    are always prepended, so regressions are caught even at tiny
    counts. An input is a hang if it takes longer than 10 s of wall
    clock.

    [pool] fans input evaluation out over its workers. Inputs are
    generated before evaluation begins and the stats are folded in
    input order, so every field except the wall-clock observations
    ([slowest_s], [hangs]) is identical at any job count. *)

val crashers_rejected : unit -> (lang * string * string) list
(** Runs the crasher corpus; returns the entries that did {e not}
    produce a structured rejection (empty = contract holds). *)

val ok : stats -> bool
(** Zero crashes and zero hangs. *)

val to_json : stats -> Npra_core.Json.t
(** The BENCH_fuzz.json payload, without its wall_clock member. It
    leaves out [slowest_s], a wall-clock reading, so the payload is a
    function of the inputs alone. *)
