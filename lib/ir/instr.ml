(* Instructions of the NPRA intermediate representation.

   The instruction set models the programmer-visible core of an IXP-class
   micro-engine: single-cycle ALU operations and branches, a voluntary
   [Ctx_switch], and long-latency [Load]/[Store] memory operations that
   relinquish the processing unit while the access is in flight.

   The context-switch semantics follow the paper's model: the switch point
   of a [Load] sits between the issue of the read and the write-back of the
   destination ("transfer register" rule), so the destination is not live
   across the load's own context-switch boundary. *)

type alu_op =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Mul

type cond =
  | Eq
  | Ne
  | Lt
  | Ge
  | Gt
  | Le

type operand =
  | Reg of Reg.t
  | Imm of int

type label = string

type t =
  | Alu of { op : alu_op; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Mov of { dst : Reg.t; src : Reg.t }
  | Movi of { dst : Reg.t; imm : int }
  | Load of { dst : Reg.t; addr : Reg.t; off : int }
  | Store of { src : Reg.t; addr : Reg.t; off : int }
  | Br of { target : label }
  | Brc of { cond : cond; src1 : Reg.t; src2 : operand; target : label }
  | Ctx_switch
  | Nop
  | Halt

let alu_op_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Mul -> "mul"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Gt -> "gt"
  | Le -> "le"

let eval_alu op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 31)
  | Shr -> a lsr (b land 31)
  | Mul -> a * b

let eval_cond c a b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Gt -> a > b
  | Le -> a <= b

let defs = function
  | Alu { dst; _ } | Mov { dst; _ } | Movi { dst; _ } | Load { dst; _ } ->
    [ dst ]
  | Store _ | Br _ | Brc _ | Ctx_switch | Nop | Halt -> []

let operand_uses = function Reg r -> [ r ] | Imm _ -> []

let uses = function
  | Alu { src1; src2; _ } -> src1 :: operand_uses src2
  | Mov { src; _ } -> [ src ]
  | Movi _ -> []
  | Load { addr; _ } -> [ addr ]
  | Store { src; addr; _ } -> [ src; addr ]
  | Br _ | Ctx_switch | Nop | Halt -> []
  | Brc { src1; src2; _ } -> src1 :: operand_uses src2

(* An instruction "causes a context switch" when executing it gives up the
   CPU: voluntary switches and long-latency memory operations. *)
let causes_ctx_switch = function
  | Ctx_switch | Load _ | Store _ -> true
  | Alu _ | Mov _ | Movi _ | Br _ | Brc _ | Nop | Halt -> false

(* Control can fall through to the next instruction, except after an
   unconditional branch or halt. *)
let falls_through = function
  | Br _ | Halt -> false
  | Alu _ | Mov _ | Movi _ | Load _ | Store _ | Brc _ | Ctx_switch | Nop ->
    true

let branch_target = function
  | Br { target } | Brc { target; _ } -> Some target
  | Alu _ | Mov _ | Movi _ | Load _ | Store _ | Ctx_switch | Nop | Halt ->
    None

let is_branch i = Option.is_some (branch_target i)

(* Shared [Reg (P k)] operands, over the same range as {!Reg.phys}. *)
let phys_operands = Array.init 256 (fun k -> Reg (Reg.phys k))

let reg_operand r =
  match r with
  | Reg.P k when k >= 0 && k < Array.length phys_operands -> phys_operands.(k)
  | Reg.P _ | Reg.V _ -> Reg r

let map_regs f instr =
  match instr with
  | Alu { op; dst; src1; src2 } ->
    let src2 = match src2 with Reg r -> reg_operand (f r) | Imm _ as o -> o in
    Alu { op; dst = f dst; src1 = f src1; src2 }
  | Mov { dst; src } -> Mov { dst = f dst; src = f src }
  | Movi { dst; imm } -> Movi { dst = f dst; imm }
  | Load { dst; addr; off } -> Load { dst = f dst; addr = f addr; off }
  | Store { src; addr; off } -> Store { src = f src; addr = f addr; off }
  | Brc { cond; src1; src2; target } ->
    let src2 = match src2 with Reg r -> reg_operand (f r) | Imm _ as o -> o in
    Brc { cond; src1 = f src1; src2; target }
  | Br _ | Ctx_switch | Nop | Halt -> instr

let map_regs2 ~def ~use instr =
  match instr with
  | Alu { op; dst; src1; src2 } ->
    let src2 = match src2 with Reg r -> reg_operand (use r) | Imm _ as o -> o in
    Alu { op; dst = def dst; src1 = use src1; src2 }
  | Mov { dst; src } -> Mov { dst = def dst; src = use src }
  | Movi { dst; imm } -> Movi { dst = def dst; imm }
  | Load { dst; addr; off } -> Load { dst = def dst; addr = use addr; off }
  | Store { src; addr; off } -> Store { src = use src; addr = use addr; off }
  | Brc { cond; src1; src2; target } ->
    let src2 = match src2 with Reg r -> reg_operand (use r) | Imm _ as o -> o in
    Brc { cond; src1 = use src1; src2; target }
  | Br _ | Ctx_switch | Nop | Halt -> instr

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm n -> Fmt.int ppf n

let pp ppf = function
  | Alu { op; dst; src1; src2 } ->
    Fmt.pf ppf "%s %a, %a, %a" (alu_op_name op) Reg.pp dst Reg.pp src1
      pp_operand src2
  | Mov { dst; src } -> Fmt.pf ppf "mov %a, %a" Reg.pp dst Reg.pp src
  | Movi { dst; imm } -> Fmt.pf ppf "movi %a, %d" Reg.pp dst imm
  | Load { dst; addr; off } ->
    Fmt.pf ppf "load %a, [%a+%d]" Reg.pp dst Reg.pp addr off
  | Store { src; addr; off } ->
    Fmt.pf ppf "store %a, [%a+%d]" Reg.pp src Reg.pp addr off
  | Br { target } -> Fmt.pf ppf "br %s" target
  | Brc { cond; src1; src2; target } ->
    Fmt.pf ppf "b%s %a, %a, %s" (cond_name cond) Reg.pp src1 pp_operand src2
      target
  | Ctx_switch -> Fmt.string ppf "ctx_switch"
  | Nop -> Fmt.string ppf "nop"
  | Halt -> Fmt.string ppf "halt"

let to_string i = Fmt.str "%a" pp i
