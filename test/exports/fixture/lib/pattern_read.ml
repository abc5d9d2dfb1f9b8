(* [x] and [y] are read only by a record pattern. *)
type point = { x : int; y : int }

let origin = { x = 0; y = 0 }
