(* WRAPS packet-scheduling kernels (Zhuang & Liu [18], receive and send
   halves).

   WRAPS maintains per-flow credit state for a large flow set. Keeping
   the hot flows' credits in registers across the scheduling loop is
   what made WRAPS fast on the IXP — and it is exactly what blows the
   32-register budget of a fixed partition: with 26 flow credits plus
   descriptor and ring state live across every load, RegPCSBmax lands in
   the low thirties. The conventional allocator must spill credits inside
   the hot loop; the balanced allocator gives these threads a private
   block larger than 32 by shrinking the co-resident light threads — the
   paper's third scenario, with >20% speedup for WRAPS.

   Receive classifies an arriving descriptor into a flow and charges its
   credit; send picks the highest-credit flow among four candidates and
   emits its head packet. *)

open Npra_ir
open Builder

let flows = 28

let init_credits b =
  Array.init flows (fun f ->
      let r = reg b (Fmt.str "credit%d" f) in
      movi b r ((f * 37) mod 64);
      r)

let build_rx ~mem_base ~iters =
  let b = create ~name:"wraps_rx" in
  let buf = reg b "buf" and out = reg b "out" and counter = reg b "counter" in
  movi b buf (mem_base + Workload.input_offset);
  movi b out (mem_base + Workload.output_offset);
  movi b counter iters;
  let credit = init_credits b in
  let top = label ~hint:"arrival" b in
  (* descriptor: word0 = flow hash, word1 = length *)
  let desc = reg b "desc" and len = reg b "len" in
  load b desc buf 0;
  load b len buf 1;
  and_ b len len (imm 0x3FF);
  (* charge the hashed flow; unrolled dispatch over flow groups keeps
     every credit register live across the loads above *)
  let fid = reg b "fid" in
  and_ b fid desc (imm 31);
  (* clamp ids beyond the flow count into flow 0 *)
  let clamp = fresh_label ~hint:"ok" b in
  brc b Instr.Lt fid (imm flows) clamp;
  movi b fid 0;
  place b clamp;
  for f = 0 to flows - 1 do
    (* fair-sharing yields inside the long unrolled dispatch *)
    if f > 0 && f mod 10 = 0 then ctx_switch b;
    let skip = fresh_label ~hint:"nf" b in
    brc b Instr.Ne fid (imm f) skip;
    add b credit.(f) credit.(f) (rge len);
    place b skip
  done;
  (* periodic credit decay keeps all credits genuinely used *)
  let decay = fresh_label ~hint:"nodecay" b in
  let phase = reg b "phase" in
  and_ b phase counter (imm 7);
  brc b Instr.Ne phase (imm 0) decay;
  for f = 0 to flows - 1 do
    if f > 0 && f mod 8 = 0 then ctx_switch b;
    shr b credit.(f) credit.(f) (imm 1)
  done;
  place b decay;
  store b fid out 0;
  add b buf buf (imm 2);
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  (* final state dump so every credit is observably live to the end *)
  for f = 0 to flows - 1 do
    store b credit.(f) out (1 + f)
  done;
  halt b;
  let prog = finish b in
  {
    Workload.name = "wraps_rx";
    prog;
    iters;
    mem_base;
    mem_image = Workload.packet_image ~mem_base ~seed:0x3A91 128;
  }

let build_tx ~mem_base ~iters =
  let b = create ~name:"wraps_tx" in
  let buf = reg b "buf" and out = reg b "out" and counter = reg b "counter" in
  movi b buf (mem_base + Workload.input_offset);
  movi b out (mem_base + Workload.output_offset);
  movi b counter iters;
  let credit = init_credits b in
  let top = label ~hint:"departure" b in
  (* candidate set: four flows derived from the round counter *)
  let best = reg b "best" and best_f = reg b "best_f" in
  let base_f = reg b "base_f" in
  and_ b base_f counter (imm 3);
  mul b base_f base_f (imm (flows / 4));
  movi b best (-1);
  movi b best_f 0;
  for c = 0 to 3 do
    if c > 0 then ctx_switch b;
    let cand = reg b (Fmt.str "cand%d" c) in
    (* candidate flow id = base + c, compared via unrolled dispatch *)
    movi b cand 0;
    for f = 0 to flows - 1 do
      if f > 0 && f mod 8 = 0 then ctx_switch b;
      let skip = fresh_label ~hint:"nc" b in
      let probe = reg b (Fmt.str "probe%d" c) in
      add b probe base_f (imm c);
      brc b Instr.Ne probe (imm f) skip;
      mov b cand credit.(f);
      place b skip
    done;
    let worse = fresh_label ~hint:"worse" b in
    brc b Instr.Le cand (rge best) worse;
    mov b best cand;
    add b best_f base_f (imm c);
    place b worse
  done;
  (* emit the head packet of the winning flow and debit it *)
  let head = reg b "head" in
  load b head buf 0;
  store b head out 0;
  store b best_f out 1;
  for f = 0 to flows - 1 do
    if f > 0 && f mod 8 = 0 then ctx_switch b;
    let skip = fresh_label ~hint:"nd" b in
    brc b Instr.Ne best_f (imm f) skip;
    shr b credit.(f) credit.(f) (imm 1);
    place b skip
  done;
  add b buf buf (imm 1);
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  for f = 0 to flows - 1 do
    store b credit.(f) out (2 + f)
  done;
  halt b;
  let prog = finish b in
  {
    Workload.name = "wraps_tx";
    prog;
    iters;
    mem_base;
    mem_image = Workload.packet_image ~mem_base ~seed:0x3A92 128;
  }

let spec_rx =
  {
    Workload.id = "wraps_rx";
    summary = "WRAPS receive, credits in registers (critical)";
    build = (fun ~mem_base ~iters -> build_rx ~mem_base ~iters);
    default_iters = 12;
    role = Workload.Rx;
  }

let spec_tx =
  {
    Workload.id = "wraps_tx";
    summary = "WRAPS send, credits in registers (critical)";
    build = (fun ~mem_base ~iters -> build_tx ~mem_base ~iters);
    default_iters = 12;
    role = Workload.Tx;
  }
