(** Lexer for the NPRA assembly language. Comments run from [';'] or
    ['#'] to end of line; tokens carry a full line/column span.

    Tokenization is total: malformed input produces placeholder tokens
    plus structured diagnostics, never an exception. *)

type token =
  | IDENT of string
  | REG of Npra_ir.Reg.t
  | INT of int
  | COMMA
  | COLON
  | LBRACKET
  | RBRACKET
  | PLUS
  | DIRECTIVE of string
  | NEWLINE
  | EOF

type lexeme = { token : token; span : Npra_diag.Diag.span }

val line : lexeme -> int
(** Start line of the lexeme, for quick assertions. *)


val tokenize : string -> lexeme list * Npra_diag.Diag.t list
(** The token stream always ends with [EOF]. Unlexable characters and
    out-of-range literals are reported in the diagnostic list and
    replaced by a placeholder (or skipped), so the parser always has a
    stream to work on. *)
