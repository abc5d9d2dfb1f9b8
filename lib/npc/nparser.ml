(* Recursive-descent parser for NPC with precedence climbing.

   Precedence (loosest to tightest):
     ||  &&  (== !=)  (< <= > >=)  (| ^)  &  (<< >>)  (+ -)  *  unary

   The parser is total and recovering: every syntax error is recorded
   as a structured diagnostic, then parsing resynchronizes — at the
   next ';' or '}' inside a block, at the next 'thread'/'fun' at the
   top level — and continues, capped by the bag's error budget. No
   input raises. *)

open Npra_diag

(* recoverable syntax error: already reported, resync and continue *)
exception Recover

(* the error budget is exhausted: abandon the parse *)
exception Overflow

type state = { mutable toks : Nlexer.lexeme list; bag : Diag.bag }

(* The lexer guarantees a terminal [TEOF] lexeme; [advance] never drops
   it, so [peek] is total even after an error path consumed TEOF. *)
let peek st = match st.toks with [] -> assert false | l :: _ -> l

let advance st =
  match st.toks with [] | [ _ ] -> () | _ :: r -> st.toks <- r

let next st =
  let l = peek st in
  advance st;
  l

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

let error_at st (l : Nlexer.lexeme) fmt = error st (Nlexer.span_of_lexeme l) fmt

(* On a mismatch, error WITHOUT consuming: the offending token is often
   the very ';' or '}' the enclosing recovery synchronizes on. *)
let expect st tok what =
  let l = peek st in
  if l.Nlexer.token = tok then advance st
  else error_at st l "expected %s" what

let expect_ident st =
  let l = next st in
  match l.Nlexer.token with
  | Nlexer.TIDENT s -> s
  | _ -> error_at st l "expected an identifier"

(* binary operator of a token, with its precedence level *)
let binop_of = function
  | Nlexer.TLOR -> Some (Ast.Lor, 1)
  | Nlexer.TLAND -> Some (Ast.Land, 2)
  | Nlexer.TEQ -> Some (Ast.Eq, 3)
  | Nlexer.TNE -> Some (Ast.Ne, 3)
  | Nlexer.TLT -> Some (Ast.Lt, 4)
  | Nlexer.TLE -> Some (Ast.Le, 4)
  | Nlexer.TGT -> Some (Ast.Gt, 4)
  | Nlexer.TGE -> Some (Ast.Ge, 4)
  | Nlexer.TPIPE -> Some (Ast.Or, 5)
  | Nlexer.TCARET -> Some (Ast.Xor, 5)
  | Nlexer.TAMP -> Some (Ast.And, 6)
  | Nlexer.TSHL -> Some (Ast.Shl, 7)
  | Nlexer.TSHR -> Some (Ast.Shr, 7)
  | Nlexer.TPLUS -> Some (Ast.Add, 8)
  | Nlexer.TMINUS -> Some (Ast.Sub, 8)
  | Nlexer.TSTAR -> Some (Ast.Mul, 9)
  | _ -> None

let rec parse_expr st = parse_binary st 1

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    let l = peek st in
    match binop_of l.Nlexer.token with
    | Some (op, prec) when prec >= min_prec ->
      advance st;
      let rhs = parse_binary st (prec + 1) in
      loop { Ast.desc = Ast.Binop (op, lhs, rhs); pos = l.Nlexer.pos }
    | Some _ | None -> lhs
  in
  loop lhs

and parse_unary st =
  let l = peek st in
  match l.Nlexer.token with
  | Nlexer.TMINUS ->
    advance st;
    { Ast.desc = Ast.Unop (Ast.Neg, parse_unary st); pos = l.Nlexer.pos }
  | Nlexer.TBANG ->
    advance st;
    { Ast.desc = Ast.Unop (Ast.Not, parse_unary st); pos = l.Nlexer.pos }
  | Nlexer.TTILDE ->
    advance st;
    { Ast.desc = Ast.Unop (Ast.Bnot, parse_unary st); pos = l.Nlexer.pos }
  | _ -> parse_primary st

and parse_primary st =
  (* On a token that cannot start an expression, error WITHOUT
     consuming it: if it is the statement's own ';' or '}', eating it
     would make [sync_stmt] overshoot and silently swallow the next
     statement. *)
  (match (peek st).Nlexer.token with
  | Nlexer.TINT _ | Nlexer.TIDENT _ | Nlexer.TMEM | Nlexer.TLPAREN -> ()
  | _ -> error_at st (peek st) "expected an expression");
  let l = next st in
  match l.Nlexer.token with
  | Nlexer.TINT v -> { Ast.desc = Ast.Int v; pos = l.Nlexer.pos }
  | Nlexer.TIDENT x -> (
    match (peek st).Nlexer.token with
    | Nlexer.TLPAREN ->
      advance st;
      let rec args acc =
        match (peek st).Nlexer.token with
        | Nlexer.TRPAREN ->
          advance st;
          List.rev acc
        | Nlexer.TEOF ->
          error_at st (peek st) "unterminated argument list"
        | _ ->
          let e = parse_expr st in
          (match (peek st).Nlexer.token with
          | Nlexer.TCOMMA -> advance st
          | _ -> ());
          args (e :: acc)
      in
      { Ast.desc = Ast.Call (x, args []); pos = l.Nlexer.pos }
    | _ -> { Ast.desc = Ast.Var x; pos = l.Nlexer.pos })
  | Nlexer.TMEM ->
    expect st Nlexer.TLBRACKET "'['";
    let e = parse_expr st in
    expect st Nlexer.TRBRACKET "']'";
    { Ast.desc = Ast.Mem e; pos = l.Nlexer.pos }
  | Nlexer.TLPAREN ->
    let e = parse_expr st in
    expect st Nlexer.TRPAREN "')'";
    e
  | _ -> error_at st l "expected an expression"

(* simple statements usable as for-loop init/step (no semicolon) *)
let rec parse_simple_stmt st =
  let l = peek st in
  match l.Nlexer.token with
  | Nlexer.TVAR ->
    advance st;
    let x = expect_ident st in
    expect st Nlexer.TASSIGN "'='";
    let e = parse_expr st in
    { Ast.sdesc = Ast.Decl (x, e); spos = l.Nlexer.pos }
  | Nlexer.TIDENT x ->
    advance st;
    expect st Nlexer.TASSIGN "'='";
    let e = parse_expr st in
    { Ast.sdesc = Ast.Assign (x, e); spos = l.Nlexer.pos }
  | _ -> error_at st l "expected a declaration or assignment"

and parse_stmt st =
  let l = peek st in
  match l.Nlexer.token with
  | Nlexer.TVAR ->
    advance st;
    let x = expect_ident st in
    expect st Nlexer.TASSIGN "'='";
    let e = parse_expr st in
    expect st Nlexer.TSEMI "';'";
    { Ast.sdesc = Ast.Decl (x, e); spos = l.Nlexer.pos }
  | Nlexer.TYIELD ->
    advance st;
    expect st Nlexer.TSEMI "';'";
    { Ast.sdesc = Ast.Yield; spos = l.Nlexer.pos }
  | Nlexer.THALT ->
    advance st;
    expect st Nlexer.TSEMI "';'";
    { Ast.sdesc = Ast.Halt; spos = l.Nlexer.pos }
  | Nlexer.TIF ->
    advance st;
    expect st Nlexer.TLPAREN "'('";
    let cond = parse_expr st in
    expect st Nlexer.TRPAREN "')'";
    let then_ = parse_block st in
    let else_ =
      match (peek st).Nlexer.token with
      | Nlexer.TELSE ->
        advance st;
        Some (parse_block st)
      | _ -> None
    in
    { Ast.sdesc = Ast.If (cond, then_, else_); spos = l.Nlexer.pos }
  | Nlexer.TWHILE ->
    advance st;
    expect st Nlexer.TLPAREN "'('";
    let cond = parse_expr st in
    expect st Nlexer.TRPAREN "')'";
    let body = parse_block st in
    { Ast.sdesc = Ast.While (cond, body); spos = l.Nlexer.pos }
  | Nlexer.TFOR ->
    advance st;
    expect st Nlexer.TLPAREN "'('";
    let init =
      match (peek st).Nlexer.token with
      | Nlexer.TSEMI -> None
      | _ -> Some (parse_simple_stmt st)
    in
    expect st Nlexer.TSEMI "';'";
    let cond =
      match (peek st).Nlexer.token with
      | Nlexer.TSEMI -> None
      | _ -> Some (parse_expr st)
    in
    expect st Nlexer.TSEMI "';'";
    let step =
      match (peek st).Nlexer.token with
      | Nlexer.TRPAREN -> None
      | _ -> Some (parse_simple_stmt st)
    in
    expect st Nlexer.TRPAREN "')'";
    let body = parse_block st in
    { Ast.sdesc = Ast.For (init, cond, step, body); spos = l.Nlexer.pos }
  | Nlexer.TRETURN ->
    advance st;
    let e = parse_expr st in
    expect st Nlexer.TSEMI "';'";
    { Ast.sdesc = Ast.Return e; spos = l.Nlexer.pos }
  | Nlexer.TBREAK ->
    advance st;
    expect st Nlexer.TSEMI "';'";
    { Ast.sdesc = Ast.Break; spos = l.Nlexer.pos }
  | Nlexer.TCONTINUE ->
    advance st;
    expect st Nlexer.TSEMI "';'";
    { Ast.sdesc = Ast.Continue; spos = l.Nlexer.pos }
  | Nlexer.TLBRACE ->
    { Ast.sdesc = Ast.Block (parse_block st); spos = l.Nlexer.pos }
  | Nlexer.TMEM ->
    advance st;
    expect st Nlexer.TLBRACKET "'['";
    let addr = parse_expr st in
    expect st Nlexer.TRBRACKET "']'";
    expect st Nlexer.TASSIGN "'='";
    let v = parse_expr st in
    expect st Nlexer.TSEMI "';'";
    { Ast.sdesc = Ast.Mem_store (addr, v); spos = l.Nlexer.pos }
  | Nlexer.TIDENT x ->
    advance st;
    expect st Nlexer.TASSIGN "'='";
    let e = parse_expr st in
    expect st Nlexer.TSEMI "';'";
    { Ast.sdesc = Ast.Assign (x, e); spos = l.Nlexer.pos }
  | _ -> error_at st l "expected a statement"

(* After a bad statement: skip to just past the next ';', or stop short
   of a '}' / EOF so the enclosing block can close normally. *)
and sync_stmt st =
  let rec go () =
    match (peek st).Nlexer.token with
    | Nlexer.TSEMI -> advance st
    | Nlexer.TRBRACE | Nlexer.TEOF -> ()
    | _ ->
      advance st;
      go ()
  in
  go ()

and parse_block st =
  expect st Nlexer.TLBRACE "'{'";
  let rec stmts acc =
    match (peek st).Nlexer.token with
    | Nlexer.TRBRACE ->
      advance st;
      List.rev acc
    | Nlexer.TEOF ->
      report st (Nlexer.span_of_lexeme (peek st))
        "unterminated block (missing '}')";
      List.rev acc
    | _ -> (
      match parse_stmt st with
      | s -> stmts (s :: acc)
      | exception Recover ->
        sync_stmt st;
        stmts acc)
  in
  stmts []

let parse_item st =
  let l = next st in
  match l.Nlexer.token with
  | Nlexer.TTHREAD ->
    let name = expect_ident st in
    let body = parse_block st in
    Ast.Thread { Ast.name; body; tpos = l.Nlexer.pos }
  | Nlexer.TFUN ->
    let fname = expect_ident st in
    expect st Nlexer.TLPAREN "'('";
    let rec params acc =
      match (peek st).Nlexer.token with
      | Nlexer.TRPAREN ->
        advance st;
        List.rev acc
      | Nlexer.TIDENT x ->
        advance st;
        (match (peek st).Nlexer.token with
        | Nlexer.TCOMMA -> advance st
        | _ -> ());
        params (x :: acc)
      | _ -> error_at st (peek st) "expected a parameter name"
    in
    let params = params [] in
    let fbody = parse_block st in
    Ast.Func { Ast.fname; params; fbody; fpos = l.Nlexer.pos }
  | _ -> error_at st l "expected 'thread' or 'fun'"

(* After a bad item: skip to the next top-level 'thread'/'fun'. *)
let sync_item st =
  let rec go () =
    match (peek st).Nlexer.token with
    | Nlexer.TTHREAD | Nlexer.TFUN | Nlexer.TEOF -> ()
    | _ ->
      advance st;
      go ()
  in
  go ()

let parse src =
  let toks, lex_diags = Nlexer.tokenize src in
  let bag = Diag.bag () in
  List.iter (Diag.add bag) lex_diags;
  let st = { toks; bag } in
  let items = ref [] in
  (try
     if not (Diag.full bag) then
       while (peek st).Nlexer.token <> Nlexer.TEOF do
         match parse_item st with
         | item -> items := item :: !items
         | exception Recover -> sync_item st
       done
   with Overflow -> ());
  let prog = List.rev !items in
  if Ast.threads prog = [] && not (Diag.has_errors bag) then
    Diag.add bag
      (Diag.error Diag.Parse
         (Diag.point (Diag.pos ~line:1 ~col:1))
         "a program needs at least one thread");
  if Diag.has_errors bag then Error (Diag.diagnostics bag) else Ok prog
