(** Assembly printer: emits the surface syntax accepted by {!Parser},
    giving the round-trip property [Parser.parse_one (Printer.to_string p)]
    ≡ [p]. *)

open Npra_ir

val to_string : Prog.t -> string
val to_string_many : Prog.t list -> string
