(* Two-dimensional FIR filter kernel (CommBench `fir2dim` stand-in).

   Per output pixel the kernel loads a 2x2 window, then evaluates a wide
   multiply-accumulate tree against sixteen immediate coefficients,
   computing all partial products before reducing them. The profile this
   produces is the interesting counterpoint to md5: high pressure
   *inside* the non-switch region (RegPmax in the twenties, from the
   co-live partial products) but very few values live across any
   context-switch boundary (the window is reloaded per pixel), so the
   balanced allocator can shrink this thread's private block aggressively
   and serve its internal pressure from the shared pool. *)

open Npra_ir
open Builder

let coeffs =
  [| 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59 |]

let build ~mem_base ~iters =
  let b = create ~name:"fir2dim" in
  let buf = reg b "buf" and out = reg b "out" and counter = reg b "counter" in
  movi b buf (mem_base + Workload.input_offset);
  movi b out (mem_base + Workload.output_offset);
  movi b counter iters;
  let top = label ~hint:"row" b in
  (* one output row of four pixels per main-loop iteration *)
  for o = 0 to 3 do
    (* 2x2 window: four loads; only the window pointer and already-loaded
       pixels cross the remaining CSBs *)
    let px =
      Array.init 4 (fun i ->
          let r = reg b (Fmt.str "p%d_%d" o i) in
          load b r buf (o + i);
          r)
    in
    (* all sixteen partial products are computed before any reduction, so
       they are co-live inside the NSR *)
    let prods =
      Array.init 16 (fun i ->
          let r = reg b (Fmt.str "prod%d_%d" o i) in
          mul b r px.(i mod 4) (imm coeffs.(i));
          r)
    in
    (* pairwise reduction tree *)
    let acc = reg b (Fmt.str "acc%d" o) in
    mov b acc prods.(0);
    for i = 1 to 15 do
      add b acc acc (rge prods.(i))
    done;
    and_ b acc acc (imm 0x3FFFFFFF);
    store b acc out o
  done;
  add b buf buf (imm 4);
  add b out out (imm 4);
  sub b counter counter (imm 1);
  brc b Instr.Gt counter (imm 0) top;
  halt b;
  let prog = finish b in
  {
    Workload.name = "fir2dim";
    prog;
    iters;
    mem_base;
    mem_image = Workload.packet_image ~mem_base ~seed:0xF12D 64;
  }

let spec =
  {
    Workload.id = "fir2dim";
    summary = "high internal pressure, tiny boundary pressure";
    build = (fun ~mem_base ~iters -> build ~mem_base ~iters);
    default_iters = 24;
    role = Workload.Standalone;
  }
