(* Imperative builder eDSL for writing IR kernels.

   A builder accumulates instructions and label bindings, hands out fresh
   virtual registers and labels, and finally seals the result into a
   validated {!Prog.t}. Workload kernels are written against this API. *)

type t = {
  name : string;
  mutable rev_code : Instr.t list;
  mutable count : int;
  mutable labels : (Instr.label * int) list;
  mutable next_vreg : int;
  mutable next_label : int;
  named : (string, Reg.t) Hashtbl.t;
}

let create ~name =
  {
    name;
    rev_code = [];
    count = 0;
    labels = [];
    next_vreg = 0;
    next_label = 0;
    named = Hashtbl.create 16;
  }

let fresh b =
  let r = Reg.V b.next_vreg in
  b.next_vreg <- b.next_vreg + 1;
  r

let reg b name =
  match Hashtbl.find_opt b.named name with
  | Some r -> r
  | None ->
    let r = fresh b in
    Hashtbl.add b.named name r;
    r

let fresh_label ?(hint = "L") b =
  let l = Fmt.str "%s%d" hint b.next_label in
  b.next_label <- b.next_label + 1;
  l

let here b = b.count

let place b l = b.labels <- (l, b.count) :: b.labels

let label ?hint b =
  let l = fresh_label ?hint b in
  place b l;
  l

let emit b ins =
  b.rev_code <- ins :: b.rev_code;
  b.count <- b.count + 1

(* Instruction helpers. Binary helpers take an [Instr.operand] second
   source so kernels can mix registers and immediates freely. *)

let alu b op dst src1 src2 = emit b (Instr.Alu { op; dst; src1; src2 })
let add b dst src1 src2 = alu b Instr.Add dst src1 src2
let sub b dst src1 src2 = alu b Instr.Sub dst src1 src2
let and_ b dst src1 src2 = alu b Instr.And dst src1 src2
let or_ b dst src1 src2 = alu b Instr.Or dst src1 src2
let xor b dst src1 src2 = alu b Instr.Xor dst src1 src2
let shl b dst src1 src2 = alu b Instr.Shl dst src1 src2
let shr b dst src1 src2 = alu b Instr.Shr dst src1 src2
let mul b dst src1 src2 = alu b Instr.Mul dst src1 src2

let mov b dst src = emit b (Instr.Mov { dst; src })
let movi b dst imm = emit b (Instr.Movi { dst; imm })
let load b dst addr off = emit b (Instr.Load { dst; addr; off })
let store b src addr off = emit b (Instr.Store { src; addr; off })
let br b target = emit b (Instr.Br { target })

let brc b cond src1 src2 target =
  emit b (Instr.Brc { cond; src1; src2; target })

let ctx_switch b = emit b Instr.Ctx_switch
let halt b = emit b Instr.Halt

let imm n = Instr.Imm n
let rge r = Instr.Reg r

(* Structured control flow. *)

let loop b ~iters body =
  (* Counts [iters] down to zero in a fresh register. *)
  let counter = fresh b in
  movi b counter iters;
  let top = label ~hint:"loop" b in
  body ();
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top

let if_ b cond src1 src2 ~then_ ~else_ =
  (* Branches to [then_] when the condition holds, mirroring the paper's
     [if( )br L1] examples. *)
  let l_then = fresh_label ~hint:"then" b in
  let l_join = fresh_label ~hint:"join" b in
  brc b cond src1 src2 l_then;
  else_ ();
  br b l_join;
  place b l_then;
  then_ ();
  place b l_join

let finish b =
  Prog.make ~name:b.name ~code:(List.rev b.rev_code) ~labels:b.labels
