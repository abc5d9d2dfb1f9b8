(* Structured diagnostics: spans, budget-capped
   accumulation, and caret rendering. See the interface for the model. *)

type pos = { line : int; col : int }
type span = { start_pos : pos; end_pos : pos }
type phase = Lex | Parse | Sema | Ir
type t = { phase : phase; span : span; message : string }

let pos ~line ~col = { line; col }
let point p = { start_pos = p; end_pos = p }
let span a b = { start_pos = a; end_pos = b }

let error phase span fmt =
  Fmt.kstr (fun message -> { phase; span; message }) fmt

let compare a b = Stdlib.compare a.span.start_pos b.span.start_pos

let pp_phase ppf = function
  | Lex -> Fmt.string ppf "lex"
  | Parse -> Fmt.string ppf "parse"
  | Sema -> Fmt.string ppf "sema"
  | Ir -> Fmt.string ppf "ir"

let pp ppf d =
  Fmt.pf ppf "%d:%d: %a error: %s" d.span.start_pos.line d.span.start_pos.col
    pp_phase d.phase d.message

(* The 1-based [line]'th line of [src], without its newline. *)
let source_line src line =
  let n = String.length src in
  let rec find_start l i =
    if l <= 1 then Some i
    else
      match String.index_from_opt src i '\n' with
      | Some j when j + 1 <= n -> find_start (l - 1) (j + 1)
      | _ -> None
  in
  match find_start line 0 with
  | None -> None
  | Some start ->
    if start >= n then if line >= 1 then Some "" else None
    else
      let stop =
        match String.index_from_opt src start '\n' with
        | Some j -> j
        | None -> n
      in
      Some (String.sub src start (stop - start))

let render ~src ppf d =
  pp ppf d;
  match source_line src d.span.start_pos.line with
  | None -> ()
  | Some text ->
    (* Tabs render as single spaces so the caret column stays honest. *)
    let text = String.map (function '\t' -> ' ' | c -> c) text in
    let visible =
      String.map (fun c -> if Char.code c < 0x20 then '?' else c) text
    in
    let col = max 1 d.span.start_pos.col in
    let width =
      if d.span.end_pos.line = d.span.start_pos.line then
        max 1 (d.span.end_pos.col - col + 1)
      else max 1 (String.length text - col + 1)
    in
    (* Clamp to the line so a span past EOL still points somewhere. *)
    let col = min col (String.length visible + 1) in
    let width = min width (String.length visible - col + 2) in
    Fmt.pf ppf "@.  |   %s@.  |   %s%s" visible
      (String.make (col - 1) ' ')
      (String.make (max 1 width) '^')

let render_all ~src ppf ds =
  Fmt.(list ~sep:(any "@.") (render ~src)) ppf ds

let to_string ?src ds =
  match src with
  | Some src -> Fmt.str "%a" (render_all ~src) ds
  | None -> Fmt.str "%a" Fmt.(list ~sep:(any "@.") pp) ds

(* ------------------------------------------------------------------ *)

type bag = {
  limit : int;
  mutable rev_kept : t list;
  mutable kept : int;
  mutable dropped : int;
  mutable last : span option;  (* span of the newest diagnostic *)
}

let bag ?(limit = 20) () =
  { limit = max 1 limit; rev_kept = []; kept = 0; dropped = 0; last = None }

let add b d =
  b.last <- Some d.span;
  if b.kept < b.limit then begin
    b.rev_kept <- d :: b.rev_kept;
    b.kept <- b.kept + 1
  end
  else b.dropped <- b.dropped + 1

let full b = b.kept >= b.limit
let count b = b.kept + b.dropped
let has_errors b = count b > 0

let diagnostics b =
  let kept = List.rev b.rev_kept in
  if b.dropped = 0 then kept
  else
    let at =
      match b.last with Some s -> s | None -> point (pos ~line:1 ~col:1)
    in
    kept
    @ [
        error Parse at "too many errors; %d more suppressed (budget %d)"
          b.dropped b.limit;
      ]
