(* MD5-style message digest kernel (CommBench/NetBench `md5`).

   Models the register-pressure profile of an MD5 inner loop written for
   a multithreaded NPU: packet-processing digests on these machines are
   commonly two-way software-pipelined — two 12-word chunks are digested
   in an interleaved fashion so that one chunk's ALU rounds can overlap
   the other's SRAM loads. The consequence, and the property that matters
   for the paper's experiments, is that the message words of both chunks
   plus both chaining states stay live across many context-switch
   boundaries: RegPCSBmax lands in the mid-30s, so a conventional
   32-register-per-thread allocation must spill inside the hot loop,
   while the balanced allocator can feed the thread more private
   registers taken from its lighter co-resident threads.

   The arithmetic is MD5-shaped (nonlinear mixing function, add-constant,
   rotate-left by shift pairs, chaining addition) but not bit-exact MD5 —
   the experiments measure allocation behaviour, not digest values. *)

open Npra_ir
open Builder

let words = 10  (* message words per chunk *)
let rounds = 20  (* two groups of [words] rounds per chunk *)
let lanes = 2  (* two-way software pipelining *)

let mask = 0x3FFFFFFF

(* Rotate-left by [s] within 30 bits, built from shl/shr/or. *)
let rotl b ~tmp1 ~tmp2 x s =
  shl b tmp1 x (imm s);
  shr b tmp2 x (imm (30 - s));
  or_ b x tmp1 (rge tmp2);
  and_ b x x (imm mask)

let k_constants =
  [| 0xd76aa478; 0xe8c7b756; 0x242070db; 0xc1bdceee; 0xf57c0faf;
     0x4787c62a; 0xa8304613; 0xfd469501; 0x698098d8; 0x8b44f7af;
     0xffff5bb1; 0x895cd7be; 0x6b901122; 0xfd987193; 0xa679438e;
     0x49b40821 |]

let shifts = [| 7; 12; 17; 22 |]

let build ~mem_base ~iters =
  let b = create ~name:"md5" in
  let buf = reg b "buf" and out = reg b "out" and counter = reg b "counter" in
  movi b buf (mem_base + Workload.input_offset);
  movi b out (mem_base + Workload.output_offset);
  movi b counter iters;
  (* chaining state per lane: boundary values for the whole run *)
  let state =
    Array.init lanes (fun l ->
        Array.init 4 (fun i ->
            let r = reg b (Fmt.str "h%d_%d" l i) in
            movi b r ((0x67452301 + (l * 7919) + (i * 104729)) land mask);
            r))
  in
  let top = label ~hint:"block" b in
  (* Load both lanes' message words up front: 2 x 12 loads, each a CSB;
     every already-loaded word is live across the remaining loads. *)
  let m =
    Array.init lanes (fun l ->
        Array.init words (fun i ->
            let r = reg b (Fmt.str "m%d_%d" l i) in
            load b r buf ((l * words) + i);
            r))
  in
  (* working copies *)
  let w =
    Array.init lanes (fun l ->
        Array.init 4 (fun i ->
            let r = reg b (Fmt.str "w%d_%d" l i) in
            mov b r state.(l).(i);
            r))
  in
  let f = reg b "f" and g = reg b "g" in
  let t1 = reg b "t1" and t2 = reg b "t2" in
  (* interleaved rounds: lane 0 round r, lane 1 round r, ...; a voluntary
     ctx_switch every few rounds keeps the thread from monopolising the
     non-preemptive PU (the paper's fair-sharing discipline) *)
  for r = 0 to rounds - 1 do
    for l = 0 to lanes - 1 do
      let a = w.(l).(r mod 4)
      and bb = w.(l).((r + 1) mod 4)
      and c = w.(l).((r + 2) mod 4)
      and d = w.(l).((r + 3) mod 4) in
      if r < words then begin
        (* F = (b & c) | (~b & d) *)
        and_ b f bb (rge c);
        xor b g bb (imm mask);
        and_ b g g (rge d);
        or_ b f f (rge g)
      end
      else begin
        (* H = b ^ c ^ d *)
        xor b f bb (rge c);
        xor b f f (rge d)
      end;
      add b a a (rge f);
      add b a a (rge m.(l).(r mod words));
      add b a a (imm (k_constants.(r mod 16) land mask));
      and_ b a a (imm mask);
      rotl b ~tmp1:t1 ~tmp2:t2 a shifts.(r mod 4);
      add b a a (rge bb);
      and_ b a a (imm mask)
    done
  done;
  (* chain and emit the digests *)
  for l = 0 to lanes - 1 do
    for i = 0 to 3 do
      add b state.(l).(i) state.(l).(i) (rge w.(l).(i));
      and_ b state.(l).(i) state.(l).(i) (imm mask);
      store b state.(l).(i) out ((l * 4) + i)
    done
  done;
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  halt b;
  let prog = finish b in
  {
    Workload.name = "md5";
    prog;
    iters;
    mem_base;
    mem_image = Workload.packet_image ~mem_base ~seed:0x5151 (lanes * words);
  }

let spec =
  {
    Workload.id = "md5";
    summary = "message digest, very high register pressure (critical)";
    build = (fun ~mem_base ~iters -> build ~mem_base ~iters);
    default_iters = 12;
    role = Workload.Standalone;
  }
