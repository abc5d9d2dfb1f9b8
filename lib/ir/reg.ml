(* Registers of the NPRA intermediate representation.

   Before register allocation a program refers to virtual registers [V n];
   after allocation every reference is a physical register [P n] indexing
   the processing unit's shared general-purpose register file. *)

type t =
  | V of int  (** virtual register, compiler temporary *)
  | P of int  (** physical GPR in the shared register file *)

let compare (a : t) (b : t) =
  match a, b with
  | V x, V y | P x, P y -> Int.compare x y
  | V _, P _ -> -1
  | P _, V _ -> 1

let equal a b = compare a b = 0

(* Registers are immutable, so one block per physical index serves every
   program: allocation output then points at these instead of holding a
   fresh [P k] block per occurrence. Indices past the table (the
   assembler accepts up to 4095) get a fresh block. *)
let phys_table = Array.init 256 (fun k -> P k)

let phys k =
  if k >= 0 && k < Array.length phys_table then phys_table.(k) else P k

let is_virtual = function V _ -> true | P _ -> false
let is_physical = function P _ -> true | V _ -> false

let number = function V n | P n -> n

let pp ppf = function
  | V n -> Fmt.pf ppf "v%d" n
  | P n -> Fmt.pf ppf "r%d" n

let to_string r = Fmt.str "%a" pp r

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare
end)
