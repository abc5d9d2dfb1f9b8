(* Named only in a comment of another module. *)
let mentioned = 0
