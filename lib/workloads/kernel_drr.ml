(* Deficit round-robin scheduler kernel (NetBench `drr`).

   Eight queues; their deficit counters are kept in registers across the
   whole scheduling loop (boundary values), packet lengths arrive from
   memory. Each round adds a quantum to the active queue's deficit and
   services the head packet if the deficit covers it. A mid-sized
   boundary clique between md5 and the plumbing kernels. *)

open Npra_ir
open Builder

let queues = 8
let quantum = 500

let build ~mem_base ~iters =
  let b = create ~name:"drr" in
  let buf = reg b "buf" and out = reg b "out" and counter = reg b "counter" in
  movi b buf (mem_base + Workload.input_offset);
  movi b out (mem_base + Workload.output_offset);
  movi b counter iters;
  (* per-queue deficit counters live for the entire run *)
  let deficit =
    Array.init queues (fun q ->
        let r = reg b (Fmt.str "deficit%d" q) in
        movi b r 0;
        r)
  in
  let top = label ~hint:"round" b in
  (* head packet lengths for the whole round: the loads come first, so
     the length registers are co-live across the remaining loads *)
  let len =
    Array.init queues (fun q ->
        let r = reg b (Fmt.str "len%d" q) in
        load b r buf q;
        r)
  in
  (* stage the updated deficits in temporaries inside the NSR before
     committing, so a whole round is internal computation *)
  let staged =
    Array.init queues (fun q ->
        let r = reg b (Fmt.str "staged%d" q) in
        and_ b len.(q) len.(q) (imm 0x3FF);
        add b r deficit.(q) (imm quantum);
        r)
  in
  for q = 0 to queues - 1 do
    let skip = fresh_label ~hint:"starve" b in
    brc b Instr.Lt staged.(q) (rge len.(q)) skip;
    sub b staged.(q) staged.(q) (rge len.(q));
    place b skip
  done;
  for q = 0 to queues - 1 do
    mov b deficit.(q) staged.(q);
    store b staged.(q) out q
  done;
  ctx_switch b;
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  halt b;
  let prog = finish b in
  {
    Workload.name = "drr";
    prog;
    iters;
    mem_base;
    mem_image = Workload.packet_image ~mem_base ~seed:0xD44 64;
  }

let spec =
  {
    Workload.id = "drr";
    summary = "per-queue deficits held across all CSBs";
    build = (fun ~mem_base ~iters -> build ~mem_base ~iters);
    default_iters = 16;
    role = Workload.Classify;
  }
