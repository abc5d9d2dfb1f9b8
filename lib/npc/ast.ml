(* Abstract syntax of NPC, the network-processor C subset.

   NPC mirrors the role of IXP-C in the paper: a small C-like language
   for writing packet-processing threads, compiled onto the IR and then
   register-allocated across threads. A file declares one thread per
   [thread NAME { ... }] block.

   Expressions are integers throughout; comparisons yield 0/1. [mem[e]]
   reads memory (a context-switch point on the target), [mem[e] = e]
   writes it, and [yield] is the voluntary context switch. *)

type pos = { line : int; col : int }

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Land  (* && short-circuit *)
  | Lor  (* || short-circuit *)

type unop =
  | Neg  (* -e *)
  | Not  (* !e : 0/1 *)
  | Bnot  (* ~e *)

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Int of int
  | Var of string
  | Mem of expr  (* mem[e] *)
  | Call of string * expr list  (* f(e1, ..., en), inlined *)
  | Unop of unop * expr
  | Binop of binop * expr * expr

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Decl of string * expr  (* var x = e; *)
  | Assign of string * expr  (* x = e; *)
  | Mem_store of expr * expr  (* mem[e1] = e2; *)
  | If of expr * block * block option
  | While of expr * block
  | For of stmt option * expr option * stmt option * block
      (* for (init; cond; step) body — init/step are Decl or Assign *)
  | Break
  | Continue
  | Yield  (* yield; *)
  | Halt  (* halt; *)
  | Return of expr  (* return e; — only inside functions *)
  | Block of block

and block = stmt list

type thread = { name : string; body : block; tpos : pos }

(* Functions are always inlined: the target machine has no call stack,
   which is also how IXP-C compilers handled procedures. *)
type func = { fname : string; params : string list; fbody : block; fpos : pos }

type item = Thread of thread | Func of func

type program = item list

let threads prog =
  List.filter_map (function Thread t -> Some t | Func _ -> None) prog

let funcs prog =
  List.filter_map (function Func f -> Some f | Thread _ -> None) prog
