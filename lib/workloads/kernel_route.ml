(* Route lookup kernel (NetBench `route` / trie lookup).

   Three-level pointer chase through a trie stored in the state area:
   each level's load depends on the previous one, so the kernel is almost
   pure memory latency — the extreme case of context-switch density with
   minimal register pressure. *)

open Npra_ir
open Builder

let levels = 3
let fanout_bits = 2  (* 4-way trie *)

let build ~mem_base ~iters =
  let b = create ~name:"route" in
  let buf = reg b "buf" and out = reg b "out" and counter = reg b "counter" in
  movi b buf (mem_base + Workload.input_offset);
  movi b out (mem_base + Workload.output_offset);
  movi b counter iters;
  let trie = reg b "trie" in
  movi b trie (mem_base + Workload.state_offset);
  let top = label ~hint:"lookup" b in
  let addr = reg b "dst_ip" in
  load b addr buf 0;
  let node = reg b "node" and idx = reg b "idx" in
  mov b node trie;
  for level = 0 to levels - 1 do
    (* idx = (ip >> (level * bits)) & mask; node = mem[node + idx] *)
    shr b idx addr (imm (level * fanout_bits));
    and_ b idx idx (imm ((1 lsl fanout_bits) - 1));
    add b idx idx (rge node);
    load b node idx 0;
    add b node node (rge trie)
  done;
  store b node out 0;
  add b buf buf (imm 1);
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  halt b;
  let prog = finish b in
  (* trie nodes: small offsets so chases stay inside the state area *)
  let trie_image =
    List.init 64 (fun i -> (mem_base + Workload.state_offset + i, (i * 5 + 3) mod 48))
  in
  {
    Workload.name = "route";
    prog;
    iters;
    mem_base;
    mem_image = Workload.packet_image ~mem_base ~seed:0x4073 64 @ trie_image;
  }

let spec =
  {
    Workload.id = "route";
    summary = "pointer-chasing lookup, latency bound";
    build = (fun ~mem_base ~iters -> build ~mem_base ~iters);
    default_iters = 24;
    role = Workload.Classify;
  }
