(* What every workload hands the driver. *)

(* Output checks, counted against operations attempted. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* first few, for the report *)
}

let checks () = { attempted = 0; failed = 0; failures = [] }

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.failures < 8 then c.failures <- what () :: c.failures
  end

(* One set-up workload.

   [run_op i] performs operation [i] of the seeded stream untraced; the
   driver times it. It returns the simulated cycles the operation
   executed with the host seconds its simulation took (both 0 for a pure
   compile) and a check of its outputs, which the driver runs outside
   the timed window; the check returns the simulation it ran itself
   (cycles, host seconds) — for a compiled mix, its generated code.

   [trace tr i] replays operation [i] layer by layer under the span
   recorder; [layers] then turns the replayed operations into per-layer
   metrics, given what the untraced pass over the same operations took. *)
type op = { cycles : float; sim_s : float; verify : checks -> float * float }

type instance = {
  tail_pct : float;  (* the design tail percentile *)
  run_op : int -> op;
  trace : Trace.t -> int -> unit;
  layers :
    Trace.t ->
    untraced_s:float ->
    untraced_cycles:float ->
    ops:int ->
    checks ->
    (string * float) list;
}
