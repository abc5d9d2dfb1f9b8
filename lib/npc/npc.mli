(** NPC — the network-processor C subset.

    NPC mirrors the role of IXP-C in the paper: a small C-like language
    for writing packet-processing threads. A file declares one thread
    per [thread NAME { ... }] block; [mem\[e\]] reads memory (a
    context-switch point), [mem\[e\] = e;] writes it, [yield;] switches
    voluntarily. Compilation produces one IR program per thread, ready
    for the balanced register allocator:

    {[
      let threads = Npc.compile_exn {|
        thread checksum {
          var sum = 0;
          var p = 1000;
          var n = 4;
          while (n > 0) {
            sum = sum + mem[p];
            p = p + 1;
            n = n - 1;
          }
          mem[2000] = sum;
        }
      |} in
      let bal = Npra_core.Pipeline.balanced ~nreg:128 threads in ...
    ]}

    The whole frontend is total: any input maps to programs or a list
    of {!Npra_diag.Diag.t} — with line/column spans, a phase tag
    ([Lex]/[Parse]/[Sema]/[Ir]) and multi-error recovery — never to an
    exception. *)

open Npra_ir

val compile : string -> (Prog.t list, Npra_diag.Diag.t list) result
(** Parse, scope-check, lower. One program per thread. Reports at most
    20 diagnostics, the {!Npra_diag.Diag.bag} default. *)

val compile_exn : string -> Prog.t list
(** @raise Failure with rendered diagnostics. For tests and scripts. *)
