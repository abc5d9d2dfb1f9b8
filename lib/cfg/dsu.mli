(** Union-find (disjoint-set union) over the universe [0 .. n-1]. *)

type t

val create : int -> t
val find : t -> int -> int
val union : t -> int -> int -> unit
