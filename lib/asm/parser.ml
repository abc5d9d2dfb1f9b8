(* Recursive-descent parser for the NPRA assembly language.

   A file holds one or more thread sections, each opened by a [.thread
   NAME] directive (a file without any directive is a single anonymous
   thread). Within a section: labels ([name:]) and instructions, one per
   line. The grammar accepts exactly what {!Printer} emits, giving a
   round-trip property the tests rely on.

   The parser is total: errors are accumulated as {!Npra_diag.Diag.t}
   values and recovery resynchronizes at the next line boundary, so one
   bad line costs one diagnostic instead of the rest of the file. A
   section that produced any diagnostic is not validated further
   (dangling branches inside a half-parsed section would only cascade);
   clean sections get full structural validation — duplicate labels,
   undefined or end-of-program branch targets, control falling off the
   end — each with a precise span. *)

open Npra_ir
open Npra_diag

(* recoverable syntax error: already reported, resync at the next line *)
exception Recover

(* the error budget is exhausted: abandon the parse *)
exception Overflow

type state = { mutable toks : Lexer.lexeme list; bag : Diag.bag }

(* The lexer guarantees a terminal [EOF] lexeme; [advance] never drops
   it, so [peek] is total even after an error path consumed EOF. *)
let peek st =
  match st.toks with [] -> assert false | l :: _ -> l

let advance st =
  match st.toks with
  | [] | [ _ ] -> ()
  | _ :: rest -> st.toks <- rest

let report st span fmt =
  Fmt.kstr
    (fun message ->
      Diag.add st.bag (Diag.error Diag.Parse span "%s" message);
      if Diag.full st.bag then raise Overflow)
    fmt

let error st span fmt =
  Fmt.kstr
    (fun message ->
      report st span "%s" message;
      raise Recover)
    fmt

(* On a mismatch, error WITHOUT consuming the token: if it is the
   NEWLINE the error path synchronizes on, eating it would make
   [sync_line] overshoot and swallow the following line too. *)
let expect st tok what =
  let l = peek st in
  if l.Lexer.token = tok then advance st
  else error st l.Lexer.span "expected %s" what

let expect_reg st =
  let l = peek st in
  match l.Lexer.token with
  | Lexer.REG r ->
    advance st;
    r
  | _ -> error st l.Lexer.span "expected a register"

let expect_int st =
  let l = peek st in
  match l.Lexer.token with
  | Lexer.INT n ->
    advance st;
    n
  | _ -> error st l.Lexer.span "expected an integer"

let expect_ident st =
  let l = peek st in
  match l.Lexer.token with
  | Lexer.IDENT s ->
    advance st;
    s
  | _ -> error st l.Lexer.span "expected an identifier"

let expect_operand st =
  let l = peek st in
  match l.Lexer.token with
  | Lexer.REG r ->
    advance st;
    Instr.Reg r
  | Lexer.INT n ->
    advance st;
    Instr.Imm n
  | _ -> error st l.Lexer.span "expected a register or integer"

let expect_comma st = expect st Lexer.COMMA "','"

(* [dst, [addr+off]] with the offset optional. *)
let expect_mem st =
  expect st Lexer.LBRACKET "'['";
  let addr = expect_reg st in
  let l = peek st in
  let off =
    match l.Lexer.token with
    | Lexer.PLUS ->
      advance st;
      expect_int st
    | _ -> 0
  in
  expect st Lexer.RBRACKET "']'";
  (addr, off)

let alu_of_name = function
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | "xor" -> Some Instr.Xor
  | "shl" -> Some Instr.Shl
  | "shr" -> Some Instr.Shr
  | "mul" -> Some Instr.Mul
  | _ -> None

let cond_of_name = function
  | "beq" -> Some Instr.Eq
  | "bne" -> Some Instr.Ne
  | "blt" -> Some Instr.Lt
  | "bge" -> Some Instr.Ge
  | "bgt" -> Some Instr.Gt
  | "ble" -> Some Instr.Le
  | _ -> None

let parse_instr st span mnemonic =
  match alu_of_name mnemonic, cond_of_name mnemonic, mnemonic with
  | Some op, _, _ ->
    let dst = expect_reg st in
    expect_comma st;
    let src1 = expect_reg st in
    expect_comma st;
    let src2 = expect_operand st in
    Instr.Alu { op; dst; src1; src2 }
  | None, Some cond, _ ->
    let src1 = expect_reg st in
    expect_comma st;
    let src2 = expect_operand st in
    expect_comma st;
    let target = expect_ident st in
    Instr.Brc { cond; src1; src2; target }
  | None, None, "mov" ->
    let dst = expect_reg st in
    expect_comma st;
    let src = expect_reg st in
    Instr.Mov { dst; src }
  | None, None, "movi" ->
    let dst = expect_reg st in
    expect_comma st;
    let imm = expect_int st in
    Instr.Movi { dst; imm }
  | None, None, "load" ->
    let dst = expect_reg st in
    expect_comma st;
    let addr, off = expect_mem st in
    Instr.Load { dst; addr; off }
  | None, None, "store" ->
    let src = expect_reg st in
    expect_comma st;
    let addr, off = expect_mem st in
    Instr.Store { src; addr; off }
  | None, None, "br" -> Instr.Br { target = expect_ident st }
  | None, None, "ctx_switch" -> Instr.Ctx_switch
  | None, None, "nop" -> Instr.Nop
  | None, None, "halt" -> Instr.Halt
  | None, None, other -> error st span "unknown mnemonic %S" other

type section = {
  name : string;
  opened : Diag.span;  (* the .thread directive, or the first token *)
  mutable rev_code : (Instr.t * Diag.span) list;
  mutable count : int;
  mutable labels : (string * int * Diag.span) list;
  mutable dirty : bool;  (* a diagnostic was recorded inside: skip
                            structural validation to avoid cascades *)
}

(* Skip to just past the next NEWLINE (or to EOF): the resynchronization
   point after a malformed statement. *)
let sync_line st =
  let rec go () =
    match (peek st).Lexer.token with
    | Lexer.EOF -> ()
    | Lexer.NEWLINE -> advance st
    | _ ->
      advance st;
      go ()
  in
  go ()

(* Structural validation of a clean section, mirroring {!Prog.validate}
   but with source spans. *)
let validate_section st s =
  let n = s.count in
  if n = 0 then
    report st s.opened "thread section %S has no instructions" s.name;
  let code = List.rev s.rev_code in
  List.iteri
    (fun i (ins, span) ->
      (match Instr.branch_target ins with
      | Some l -> (
        match
          List.find_opt (fun (name, _, _) -> name = l) s.labels
        with
        | None -> report st span "undefined label %S" l
        | Some (_, j, _) when j >= n ->
          report st span "branch to %S targets the program end" l
        | Some _ -> ())
      | None -> ());
      if i = n - 1 && Instr.falls_through ins then
        report st span "control falls off the end of thread %S" s.name)
    code

let build_section st s =
  if s.dirty then None
  else begin
    let before = Diag.count st.bag in
    validate_section st s;
    if Diag.count st.bag > before then None
    else
      let code = List.rev_map fst s.rev_code in
      let labels = List.map (fun (l, i, _) -> (l, i)) (List.rev s.labels) in
      match Prog.make ~name:s.name ~code ~labels with
      | p -> Some p
      | exception Prog.Invalid m ->
        (* validate_section should subsume Prog.validate; belt and
           braces for any check added there later *)
        report st s.opened "%s" m;
        None
  end

let parse_sections st =
  let sections = ref [] in
  let current = ref None in
  let section span =
    match !current with
    | Some s -> s
    | None ->
      let s =
        { name = "main"; opened = span; rev_code = []; count = 0; labels = [];
          dirty = false }
      in
      current := Some s;
      s
  in
  let close () =
    match !current with
    | Some s ->
      sections := build_section st s :: !sections;
      current := None
    | None -> ()
  in
  let mark_dirty () =
    match !current with Some s -> s.dirty <- true | None -> ()
  in
  let rec loop () =
    let l = peek st in
    match l.Lexer.token with
    | Lexer.EOF -> close ()
    | Lexer.NEWLINE ->
      advance st;
      loop ()
    | Lexer.DIRECTIVE "thread" -> (
      advance st;
      match expect_ident st with
      | name ->
        close ();
        current :=
          Some
            { name; opened = l.Lexer.span; rev_code = []; count = 0;
              labels = []; dirty = false };
        loop ()
      | exception Recover ->
        (* the malformed directive opens nothing; whatever preceded it
           is still a complete section *)
        close ();
        sync_line st;
        loop ())
    | Lexer.DIRECTIVE d ->
      (try error st l.Lexer.span "unknown directive .%s" d
       with Recover ->
         mark_dirty ();
         sync_line st);
      loop ()
    | Lexer.IDENT id -> (
      advance st;
      match (peek st).Lexer.token with
      | Lexer.COLON ->
        advance st;
        let s = section l.Lexer.span in
        (if List.exists (fun (name, _, _) -> name = id) s.labels then begin
           report st l.Lexer.span "duplicate label %S" id;
           s.dirty <- true
         end
         else s.labels <- (id, s.count, l.Lexer.span) :: s.labels);
        loop ()
      | _ ->
        let s = section l.Lexer.span in
        (match
           let ins = parse_instr st l.Lexer.span id in
           (match (peek st).Lexer.token with
           | Lexer.NEWLINE | Lexer.EOF -> ()
           | _ ->
             error st (peek st).Lexer.span "trailing tokens after instruction");
           ins
         with
        | ins ->
          s.rev_code <- (ins, l.Lexer.span) :: s.rev_code;
          s.count <- s.count + 1
        | exception Recover ->
          s.dirty <- true;
          sync_line st);
        loop ())
    | _ ->
      (try error st l.Lexer.span "expected a label, mnemonic or directive"
       with Recover ->
         mark_dirty ();
         sync_line st);
      loop ()
  in
  (* closing a section runs validation, which can itself exhaust the
     budget — keep both Overflow exits local *)
  (try loop () with Overflow -> ());
  (try close () with Overflow -> ());
  List.rev !sections

let parse ?(limit = 20) src =
  let toks, lex_diags = Lexer.tokenize src in
  let bag = Diag.bag ~limit () in
  List.iter (Diag.add bag) lex_diags;
  let st = { toks; bag } in
  let sections =
    if Diag.full bag then [] else parse_sections st
  in
  if Diag.has_errors bag then Error (Diag.diagnostics bag)
  else Ok (List.filter_map Fun.id sections)

let parse_one src =
  match parse src with
  | Ok [ p ] -> Ok p
  | Ok ps ->
    Error
      [
        Diag.error Diag.Parse
          (Diag.point (Diag.pos ~line:1 ~col:1))
          "expected exactly one thread section, found %d" (List.length ps);
      ]
  | Error ds -> Error ds

let fail_diags src ds = Fmt.failwith "%s" (Diag.to_string ~src ds)

let parse_exn src =
  match parse src with Ok ps -> ps | Error ds -> fail_diags src ds

let parse_one_exn src =
  match parse_one src with Ok p -> p | Error ds -> fail_diags src ds
