(* Layer-2/layer-3 forwarding kernels (Intel example code `L2l3fwd`,
   receive and send halves).

   Receive: pull a five-word frame header from the input ring, validate
   the ethertype and a header checksum, look up the output port in a
   hash-indexed table (one dependent load), and push the annotated
   header onto the forwarding queue.

   Send: pop a frame from the forwarding queue, decrement the TTL,
   incrementally fix the checksum, and write the frame to the output
   ring.

   Both halves have moderate, evenly spread pressure — the co-resident
   "plumbing" threads of the paper's second scenario. *)

open Npra_ir
open Builder

let header_words = 5

let build_rx ~mem_base ~iters =
  let b = create ~name:"l2l3fwd_rx" in
  let buf = reg b "buf" and queue = reg b "queue" and counter = reg b "counter" in
  movi b buf (mem_base + Workload.input_offset);
  movi b queue (mem_base + Workload.output_offset);
  movi b counter iters;
  let table = reg b "table" in
  movi b table (mem_base + Workload.state_offset);
  let top = label ~hint:"frame" b in
  (* header words stay live across each other's loads *)
  let h =
    Array.init header_words (fun i ->
        let r = reg b (Fmt.str "h%d" i) in
        load b r buf i;
        r)
  in
  (* ethertype check: drop (skip) frames without the IPv4 marker bit *)
  let ety = reg b "ety" in
  and_ b ety h.(1) (imm 0xFF);
  let drop = fresh_label ~hint:"drop" b in
  brc b Instr.Eq ety (imm 0) drop;
  (* header checksum: sum of the five words folded to 16 bits *)
  let sum = reg b "sum" in
  mov b sum h.(0);
  for i = 1 to header_words - 1 do
    add b sum sum (rge h.(i))
  done;
  let hi = reg b "hi" in
  shr b hi sum (imm 16);
  and_ b sum sum (imm 0xFFFF);
  add b sum sum (rge hi);
  (* port lookup: hash the destination word into the 16-entry table *)
  let idx = reg b "idx" in
  and_ b idx h.(2) (imm 15);
  add b idx idx (rge table);
  let port = reg b "port" in
  load b port idx 0;
  (* enqueue header + port + checksum *)
  for i = 0 to header_words - 1 do
    store b h.(i) queue i
  done;
  store b port queue header_words;
  store b sum queue (header_words + 1);
  (* payload copy: eight more words through the PU *)
  let pay = reg b "pay" in
  for i = 0 to 7 do
    load b pay buf (header_words + i);
    store b pay queue (header_words + 2 + i)
  done;
  place b drop;
  add b buf buf (imm 1);
  ctx_switch b;
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  halt b;
  let prog = finish b in
  let table_image =
    List.init 16 (fun i -> (mem_base + Workload.state_offset + i, (i * 3) mod 8))
  in
  {
    Workload.name = "l2l3fwd_rx";
    prog;
    iters;
    mem_base;
    mem_image =
      Workload.packet_image ~mem_base ~seed:0x12F3 64 @ table_image;
  }

let build_tx ~mem_base ~iters =
  let b = create ~name:"l2l3fwd_tx" in
  let queue = reg b "queue" and ring = reg b "ring" and counter = reg b "counter" in
  movi b queue (mem_base + Workload.input_offset);
  movi b ring (mem_base + Workload.output_offset);
  movi b counter iters;
  let top = label ~hint:"frame" b in
  let h =
    Array.init header_words (fun i ->
        let r = reg b (Fmt.str "h%d" i) in
        load b r queue i;
        r)
  in
  (* TTL decrement in word 3 (low byte) with incremental checksum fix *)
  let ttl = reg b "ttl" in
  and_ b ttl h.(3) (imm 0xFF);
  let expired = fresh_label ~hint:"expired" b in
  brc b Instr.Eq ttl (imm 0) expired;
  sub b h.(3) h.(3) (imm 1);
  let sum = reg b "sum" in
  and_ b sum h.(4) (imm 0xFFFF);
  add b sum sum (imm 1);
  and_ b sum sum (imm 0xFFFF);
  mov b h.(4) sum;
  for i = 0 to header_words - 1 do
    store b h.(i) ring i
  done;
  let pay = reg b "pay" in
  for i = 0 to 7 do
    load b pay queue (header_words + i);
    store b pay ring (header_words + i)
  done;
  place b expired;
  add b queue queue (imm 1);
  ctx_switch b;
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  halt b;
  let prog = finish b in
  {
    Workload.name = "l2l3fwd_tx";
    prog;
    iters;
    mem_base;
    mem_image = Workload.packet_image ~mem_base ~seed:0x7713 64;
  }

let spec_rx =
  {
    Workload.id = "l2l3fwd_rx";
    summary = "receive half of the forwarding module";
    build = (fun ~mem_base ~iters -> build_rx ~mem_base ~iters);
    default_iters = 24;
    role = Workload.Rx;
  }

let spec_tx =
  {
    Workload.id = "l2l3fwd_tx";
    summary = "send half of the forwarding module";
    build = (fun ~mem_base ~iters -> build_tx ~mem_base ~iters);
    default_iters = 24;
    role = Workload.Tx;
  }
