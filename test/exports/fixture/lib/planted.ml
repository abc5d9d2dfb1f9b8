let unused x = x + 1
let own_only x = x * 2
let entry ?(unused_opt = 0) x = own_only x + unused_opt

type shape = Square | Circle

let area = function Square -> 4 | Circle -> 3

type counter = { mutable hits : int; label : string }

let make_counter label = { hits = 0; label }
let reset c = c.hits <- 0
