(* URL pattern-matching kernel (NetBench `url`).

   Scans packet words for two four-"character" patterns (held as masked
   immediates), counting hits. Branch-heavy with small live ranges — the
   typical content-inspection profile. *)

open Npra_ir
open Builder

let window = 8  (* words scanned per packet *)

let build ~mem_base ~iters =
  let b = create ~name:"url" in
  let buf = reg b "buf" and out = reg b "out" and counter = reg b "counter" in
  movi b buf (mem_base + Workload.input_offset);
  movi b out (mem_base + Workload.output_offset);
  movi b counter iters;
  let top = label ~hint:"packet" b in
  let hits = reg b "hits" in
  movi b hits 0;
  let p = reg b "p" and rem = reg b "rem" in
  mov b p buf;
  movi b rem window;
  let scan = label ~hint:"scan" b in
  let word = reg b "word" in
  load b word p 0;
  (* pattern 1: low byte = 0x2F ('/') *)
  let lowb = reg b "lowb" in
  and_ b lowb word (imm 0xFF);
  let no1 = fresh_label ~hint:"no1" b in
  brc b Instr.Ne lowb (imm 0x2F) no1;
  add b hits hits (imm 1);
  place b no1;
  (* pattern 2: byte 1 = 0x3A (':') *)
  let midb = reg b "midb" in
  shr b midb word (imm 8);
  and_ b midb midb (imm 0xFF);
  let no2 = fresh_label ~hint:"no2" b in
  brc b Instr.Ne midb (imm 0x3A) no2;
  add b hits hits (imm 2);
  place b no2;
  add b p p (imm 1);
  sub b rem rem (imm 1);
  brc b Instr.Gt rem (imm 0) scan;
  store b hits out 0;
  add b buf buf (imm 1);
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  halt b;
  let prog = finish b in
  {
    Workload.name = "url";
    prog;
    iters;
    mem_base;
    mem_image = Workload.packet_image ~mem_base ~seed:0x0451 64;
  }

let spec =
  {
    Workload.id = "url";
    summary = "content inspection, branchy, small ranges";
    build = (fun ~mem_base ~iters -> build ~mem_base ~iters);
    default_iters = 16;
    role = Workload.Classify;
  }
