(* [?factor] is only ever forwarded as [?factor]. *)
let scaled ?(factor = 1) n = factor * n
