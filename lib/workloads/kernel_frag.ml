(* IP fragmentation kernel (CommBench `frag`).

   Per packet: compute the IP checksum over the payload words (the loop
   from the paper's Figure 4), then emit two fragment headers with
   adjusted length/offset fields and the recomputed checksum. Moderate
   pressure; checksum state (sum, buf, len) lives across every load in
   the inner loop — the classic small boundary clique of Figure 5. *)

open Npra_ir
open Builder

let payload_words = 6

let build ~mem_base ~iters =
  let b = create ~name:"frag" in
  let buf = reg b "buf" and out = reg b "out" and counter = reg b "counter" in
  movi b buf (mem_base + Workload.input_offset);
  movi b out (mem_base + Workload.output_offset);
  movi b counter iters;
  let top = label ~hint:"packet" b in
  let sum = reg b "sum" and len = reg b "len" in
  movi b sum 0;
  movi b len payload_words;
  let p = reg b "p" in
  mov b p buf;
  (* checksum loop: sum/p/len live across the load CSB *)
  let csum = label ~hint:"csum" b in
  let word = reg b "word" in
  load b word p 0;
  add b sum sum (rge word);
  add b p p (imm 1);
  sub b len len (imm 1);
  brc b Instr.Gt len (imm 0) csum;
  (* fold carries: sum = (sum & 0xFFFF) + (sum >> 16), twice *)
  let hi = reg b "hi" in
  for _ = 1 to 2 do
    shr b hi sum (imm 16);
    and_ b sum sum (imm 0xFFFF);
    add b sum sum (rge hi)
  done;
  xor b sum sum (imm 0xFFFF);
  (* first fragment header: id, offset 0, half length, checksum *)
  let ident = reg b "ident" in
  load b ident buf 0;
  let half = reg b "half" in
  movi b half (payload_words / 2);
  store b ident out 0;
  store b half out 1;
  store b sum out 2;
  (* second fragment header: same id, offset half, rest, checksum+1 *)
  let sum2 = reg b "sum2" in
  add b sum2 sum (imm 1);
  and_ b sum2 sum2 (imm 0xFFFF);
  store b ident out 4;
  store b half out 5;
  store b sum2 out 6;
  ctx_switch b;
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  halt b;
  let prog = finish b in
  {
    Workload.name = "frag";
    prog;
    iters;
    mem_base;
    mem_image = Workload.packet_image ~mem_base ~seed:0xF4A6 payload_words;
  }

let spec =
  {
    Workload.id = "frag";
    summary = "checksum + fragment emission (the paper's Figure 4 kernel)";
    build = (fun ~mem_base ~iters -> build ~mem_base ~iters);
    default_iters = 24;
    role = Workload.Classify;
  }
