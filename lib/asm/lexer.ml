(* Lexer for the NPRA assembly language.

   The surface syntax mirrors the printer in {!Npra_ir.Instr}:

     .thread checksum
     entry:
       movi v0, 0
       load v1, [v2+4]
       add v0, v0, v1
       bne v0, 0, entry
       ctx_switch
       halt

   Tokens carry a line/column span for error reporting. Comments run
   from ';' or '#' to the end of the line.

   Tokenization never raises: malformed constructs are reported as
   {!Npra_diag.Diag.t} values and replaced by a placeholder token (a
   zero integer or register) or skipped, so the parser downstream
   always sees a well-formed stream ending in [EOF]. *)

open Npra_diag

type token =
  | IDENT of string  (* mnemonics, label names *)
  | REG of Npra_ir.Reg.t
  | INT of int
  | COMMA
  | COLON
  | LBRACKET
  | RBRACKET
  | PLUS
  | DIRECTIVE of string  (* .thread etc. *)
  | NEWLINE
  | EOF

type lexeme = { token : token; span : Diag.span }

let line l = l.span.Diag.start_pos.Diag.line

(* Register indices are bound-checked against these at lex time (an
   unchecked [v99999999999999999999] used to crash [int_of_string]).
   Any real file has well under a thousand physical registers and the
   web renamer emits consecutive virtual indices, so these bounds only
   reject absurd literals while staying far clear of legitimate code. *)
let max_virtual_index = 999_999
let max_physical_index = 4_095

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c || c = '.'

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let diags = ref [] in
  let line = ref 1 and bol = ref 0 in
  let i = ref 0 in
  let pos_at k = Diag.pos ~line:!line ~col:(k - !bol + 1) in
  (* span from byte [start] to the byte before the current position *)
  let span_from start = Diag.span (pos_at start) (pos_at (max start (!i - 1))) in
  let push_at start token = out := { token; span = span_from start } :: !out in
  let report start fmt =
    Fmt.kstr
      (fun message ->
        diags := Diag.error Diag.Lex (span_from start) "%s" message :: !diags)
      fmt
  in
  (* A register token is [v<digits>] or [r<digits>]; anything else
     alphanumeric is an identifier. Indices are bound-checked — an
     oversized literal yields a diagnostic and a placeholder register
     so parsing can continue past it. *)
  let classify_word start w =
    let reg_index prefix =
      if
        String.length w > 1
        && w.[0] = prefix
        && String.for_all is_digit (String.sub w 1 (String.length w - 1))
      then Some (String.sub w 1 (String.length w - 1))
      else None
    in
    let bounded kind bound mk text =
      match int_of_string_opt text with
      | Some v when v <= bound -> REG (mk v)
      | Some v ->
        report start "%s register index %d exceeds the register file bound %d"
          kind v bound;
        REG (mk 0)
      | None ->
        report start "%s register index %S is out of range" kind text;
        REG (mk 0)
    in
    match reg_index 'v' with
    | Some text ->
      bounded "virtual" max_virtual_index (fun v -> Npra_ir.Reg.V v) text
    | None -> (
      match reg_index 'r' with
      | Some text ->
        bounded "physical" max_physical_index (fun v -> Npra_ir.Reg.P v) text
      | None -> IDENT w)
  in
  while !i < n do
    let start = !i in
    let c = src.[!i] in
    if c = '\n' then begin
      incr i;
      push_at start NEWLINE;
      incr line;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = ';' || c = '#' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if c = ',' then begin
      incr i;
      push_at start COMMA
    end
    else if c = ':' then begin
      incr i;
      push_at start COLON
    end
    else if c = '[' then begin
      incr i;
      push_at start LBRACKET
    end
    else if c = ']' then begin
      incr i;
      push_at start RBRACKET
    end
    else if c = '+' then begin
      incr i;
      push_at start PLUS
    end
    else if c = '-' || is_digit c then begin
      incr i;
      while !i < n && (is_digit src.[!i] || src.[!i] = 'x' || src.[!i] = 'X'
                       || (src.[!i] >= 'a' && src.[!i] <= 'f')
                       || (src.[!i] >= 'A' && src.[!i] <= 'F'))
      do
        incr i
      done;
      let text = String.sub src start (!i - start) in
      match int_of_string_opt text with
      | Some v -> push_at start (INT v)
      | None ->
        report start "malformed integer %S" text;
        push_at start (INT 0)
    end
    else if c = '.' then begin
      incr i;
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      push_at start (DIRECTIVE (String.sub src (start + 1) (!i - start - 1)))
    end
    else if is_ident_start c then begin
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      push_at start (classify_word start (String.sub src start (!i - start)))
    end
    else begin
      incr i;
      report start "unexpected character %C" c
    end
  done;
  let eof_span = Diag.point (pos_at !i) in
  out := { token = EOF; span = eof_span } :: !out;
  (List.rev !out, List.rev !diags)
