(* Uses of the fixture library, and near-misses the guard must not
   report. *)

open Dead_fixture

let planted () =
  let c = Planted.make_counter "c" in
  Planted.reset c;
  Planted.entry 1 + Planted.area Planted.Square + String.length c.label

module Apply (X : sig
  val twice : int -> int
end) =
struct
  let run = X.twice
end

module Applied = Apply (Via_functor)

module Extended = struct
  include Via_include
end

let sum () =
  let Pattern_read.{ x; y } = Pattern_read.origin in
  x + y

let scaled ?factor n = Forward.scaled ?factor n
let shared () = Same_a.shared

(* Commented.mentioned is named here and nowhere else. *)
