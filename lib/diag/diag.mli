(** Structured diagnostics shared by every frontend.

    A diagnostic is an error: it carries the compilation phase that
    raised it, a source span with line {e and} column, and a message. Frontends
    accumulate diagnostics in a {!bag} with a configurable error budget
    instead of raising on the first problem, and render them with a
    source excerpt and caret so a bad byte stream always maps to a
    precise report, never an exception. *)

type pos = { line : int; col : int }
(** 1-based line and column. *)

type span = { start_pos : pos; end_pos : pos }
(** [end_pos] is inclusive of the last character of the construct; a
    single-character construct has [start_pos = end_pos]. *)

type phase = Lex | Parse | Sema | Ir
(** Which frontend stage produced the diagnostic. *)

type t = { phase : phase; span : span; message : string }

val pos : line:int -> col:int -> pos
val point : pos -> span
val span : pos -> pos -> span

val error : phase -> span -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [error phase span fmt ...] builds a diagnostic. *)

val compare : t -> t -> int
(** Source order: by start position. *)

val pp : t Fmt.t
(** One line: ["3:7: parse error: unknown mnemonic"]. *)

val render_all : src:string -> t list Fmt.t
(** Every diagnostic through {!pp} plus the offending source line and a
    caret run under the span, separated by newlines:

    {v
    3:7: parse error: unknown mnemonic "frobnicate"
      |   frobnicate v0
      |   ^^^^^^^^^^
    v} *)

val to_string : ?src:string -> t list -> string
(** Render a diagnostic list to a string, with source excerpts when
    [src] is given. *)

(** {1 Accumulation with an error budget} *)

type bag

val bag : ?limit:int -> unit -> bag
(** A fresh accumulator. At most [limit] (default 20) diagnostics are
    kept; later ones are counted but dropped, and {!diagnostics}
    appends a summary note for them. *)

val add : bag -> t -> unit

val full : bag -> bool
(** True once the budget is exhausted — frontends use this to stop
    recovering and bail out. *)

val count : bag -> int
(** Diagnostics seen, including dropped ones. *)

val has_errors : bag -> bool

val diagnostics : bag -> t list
(** In insertion order; if any were dropped, ends with a
    ["too many errors"] note. *)
