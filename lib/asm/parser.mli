(** Recursive-descent parser for the NPRA assembly language.

    A file holds one or more thread sections, each opened by a
    [.thread NAME] directive (a directive-free file is one anonymous
    thread). The grammar accepts exactly what {!Printer} emits.

    Parsing is total and recovering: a malformed line yields one
    structured diagnostic and parsing resynchronizes at the next line,
    up to a configurable error budget. No input raises. *)

open Npra_ir

val parse :
  ?limit:int -> string -> (Prog.t list, Npra_diag.Diag.t list) result
(** All thread sections of the file, or every diagnostic found —
    lexical, syntactic and program-structure — capped at [limit]
    (default 20). *)

val parse_exn : string -> Prog.t list
(** @raise Failure with rendered diagnostics. For tests and scripts. *)

val parse_one_exn : string -> Prog.t
(** @raise Failure with rendered diagnostics. *)
