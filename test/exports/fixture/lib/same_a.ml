(* [Same_a.shared] is used; [Same_b.shared], of the same name, is not. *)
let shared = 1
