(* Plain-text table rendering for experiment output.

   Columns are sized to their widest cell; numbers are right-aligned,
   text left-aligned. Kept dependency-free so the bench harness and CLI
   share one look. *)

type align = L | R

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  rows : string list list;
}

let make ~title ~headers ~aligns rows = { title; headers; aligns; rows }

let float1 x = if Float.is_nan x then "-" else Fmt.str "%.1f" x
let pct x = if Float.is_nan x then "-" else Fmt.str "%+.1f%%" x

let render ppf t =
  let cols = List.length t.headers in
  let width i =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row i)))
      (String.length (List.nth t.headers i))
      t.rows
  in
  let widths = List.init cols width in
  let pad a w s =
    let fill = String.make (max 0 (w - String.length s)) ' ' in
    match a with L -> s ^ fill | R -> fill ^ s
  in
  let line row aligns =
    String.concat "  "
      (List.map2 (fun (w, a) s -> pad a w s) (List.combine widths aligns) row)
  in
  Fmt.pf ppf "@.== %s ==@." t.title;
  Fmt.pf ppf "%s@." (line t.headers (List.map (fun _ -> L) t.headers));
  Fmt.pf ppf "%s@."
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Fmt.pf ppf "%s@." (line row t.aligns)) t.rows

let print t = render Fmt.stdout t
