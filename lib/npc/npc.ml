(* Facade: compile NPC source to IR thread programs.

   Every stage is total — lexing, parsing and scope checking accumulate
   structured diagnostics instead of raising, and lowering failures
   (which scope checking should rule out) are caught and reported as
   [Ir]-phase diagnostics, so [compile] maps any byte stream to either
   programs or a diagnostic list. *)

open Npra_diag

let cap diags =
  let bag = Diag.bag () in
  List.iter (Diag.add bag) diags;
  Diag.diagnostics bag

let compile src =
  match Nparser.parse src with
  | Error ds -> Error ds
  | Ok ast -> (
    match Sema.check ast with
    | [] -> (
      match Lower.lower ast with
      | progs -> Ok progs
      | exception (Invalid_argument m | Npra_ir.Prog.Invalid m) ->
        Error
          [
            Diag.error Diag.Ir
              (Diag.point (Diag.pos ~line:1 ~col:1))
              "internal lowering failure: %s" m;
          ])
    | errs -> Error (cap errs))

let compile_exn src =
  match compile src with
  | Ok progs -> progs
  | Error ds -> Fmt.failwith "npc:@.%s" (Diag.to_string ~src ds)
