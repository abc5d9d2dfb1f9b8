(** One item of each kind the guard reports. *)

val unused : int -> int
(** Referenced nowhere: a dead value. *)

val own_only : int -> int
(** Called only by [entry]: an export used only in its own module. *)

val entry : ?unused_opt:int -> int -> int
(** Called from another module, never with [?unused_opt]. *)

(** [Circle] is matched by [area] but never built. *)
type shape = Square | Circle

val area : shape -> int

(** [hits] is written by [reset] but never read. *)
type counter = { mutable hits : int; label : string }

val make_counter : string -> counter
val reset : counter -> unit
