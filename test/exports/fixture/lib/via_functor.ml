(* Used only as a functor argument. *)
let twice x = 2 * x
