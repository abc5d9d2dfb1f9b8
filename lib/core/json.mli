(** JSON values: one type, one canonical printer, one small reader.

    Every BENCH_*.json report and every [npra ... --json] payload is
    built as a {!t} and printed by {!to_string}, so escaping, float
    digits and layout are decided here and nowhere else. The reader
    exists so committed reports can be checked in OCaml. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
      (** [Float (d, x)] prints [x] with [d] decimal places; a
          non-finite [x] prints as [null]. *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in print order *)

val to_string : t -> string
(** The canonical text. A top-level object gets one member per line,
    and a top-level member whose value is a non-empty array gets one
    element per line; everything else prints inline with [": "] and
    [", "]. Empty containers print as [[]] and [{}]. Strings escape the
    quote, the backslash and every control character ([\u00XX]); other
    bytes pass through. The text ends in a newline. *)

val parse : string -> (t, string) result
(** Reads one JSON value surrounded by optional whitespace. Total: any
    malformed, truncated or too deeply nested input is an [Error]
    naming the byte offset, never an exception. A number with a
    fraction or an exponent reads as [Float] with as many decimal
    places as its fraction has digits; any other number reads as [Int],
    so [Float (0, x)] reads back as [Int]. *)
