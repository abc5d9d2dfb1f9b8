(* CRC-32 kernel (CommBench `crc`).

   Table-less bitwise CRC over packet words: one word is loaded per
   iteration, split into its four bytes, and the four byte lanes are
   reduced in parallel by an unrolled shift/xor step chain before being
   folded into the running checksum. Only the checksum and the walk
   pointers survive the per-word load, while the byte lanes and their
   step temporaries are co-live inside the non-switch region — a light
   thread whose pressure is mostly shareable. *)

open Npra_ir
open Builder

let poly = 0x04C11DB7 land 0x3FFFFFFF

let build ~mem_base ~iters =
  let b = create ~name:"crc32" in
  let buf = reg b "buf" and out = reg b "out" and counter = reg b "counter" in
  movi b buf (mem_base + Workload.input_offset);
  movi b out (mem_base + Workload.output_offset);
  movi b counter iters;
  let crc = reg b "crc" in
  movi b crc 0x3FFFFFFF;
  let top = label ~hint:"word" b in
  (* one load per iteration; everything after it is internal *)
  let word = reg b "word" in
  load b word buf 0;
  (* split into four byte lanes, co-live inside the NSR *)
  let lane =
    Array.init 4 (fun l ->
        let r = reg b (Fmt.str "lane%d" l) in
        shr b r word (imm (8 * l));
        and_ b r r (imm 0xFF);
        r)
  in
  let bit = Array.init 4 (fun l -> reg b (Fmt.str "bit%d" l)) in
  for _step = 1 to 4 do
    for l = 0 to 3 do
      (* if (lane & 1) lane = (lane >> 1) ^ poly else lane >>= 1 *)
      and_ b bit.(l) lane.(l) (imm 1);
      shr b lane.(l) lane.(l) (imm 1);
      let skip = fresh_label ~hint:"noxor" b in
      brc b Instr.Eq bit.(l) (imm 0) skip;
      xor b lane.(l) lane.(l) (imm poly);
      place b skip
    done
  done;
  for l = 0 to 3 do
    xor b crc crc (rge lane.(l))
  done;
  add b buf buf (imm 1);
  store b crc out 0;
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  halt b;
  let prog = finish b in
  {
    Workload.name = "crc32";
    prog;
    iters;
    mem_base;
    mem_image = Workload.packet_image ~mem_base ~seed:0xC7C7 64;
  }

let spec =
  {
    Workload.id = "crc32";
    summary = "table-less CRC, low pressure, load-heavy";
    build = (fun ~mem_base ~iters -> build ~mem_base ~iters);
    default_iters = 32;
    role = Workload.Classify;
  }
