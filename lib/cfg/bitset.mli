(** Dense fixed-width bit vectors backed by [int] arrays.

    The workhorse representation of the dataflow engine: a set of small
    integers (register indices from {!Npra_ir.Numbering}, gap numbers)
    stored one bit per element. All sets taking part in a binary
    operation must share the same width; mixing widths raises
    [Invalid_argument].

    Bitsets are mutable. Analysis results that hand out internal bitsets
    document whether the caller may keep or mutate them. *)

type t

val create : int -> t
(** [create width] is the empty set over the universe [0 .. width-1]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val equal : t -> t -> bool
val cardinal : t -> int
val subset : t -> t -> bool
(** [subset a b] is true when every element of [a] is in [b]. *)

val union_into : into:t -> t -> bool
(** [union_into ~into src] adds every element of [src] to [into];
    returns [true] when [into] grew. The return value is what lets the
    worklist fixpoint detect saturation without a separate [equal]. *)

val diff_into : into:t -> t -> unit
(** [into := into \ src]. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
(** Fresh-result variants. *)

val iter : (int -> unit) -> t -> unit
(** Iterates set elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val of_list : int -> int list -> t
(** [of_list width elts]; raises [Invalid_argument] on out-of-range
    elements. *)

(** {2 Flat-array bridge}

    The dataflow engine stores one bit-row per instruction inside a
    single flat [int array] to avoid allocating tens of thousands of
    small sets; these expose just enough of the word layout for that.
    Regular consumers never need them. *)

val bits_per_word : int

val words_for : int -> int
(** Words needed to hold a set of the given width (0 for width 0). *)

val load_words : t -> src:int array -> pos:int -> t
(** Overwrites the set's words from [src.(pos) ..]; [src] must hold at
    least [max 1 (words_for w)] words at [pos], [w] being the width the
    set was created with. Returns the set for chaining. *)
