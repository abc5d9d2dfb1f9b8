(* Synthetic large-program generator.

   The real kernels top out at a few hundred instructions; the dataflow
   benchmarks need programs one to two orders of magnitude bigger to
   show how the analyses scale. [large] grows a structured program —
   straight ALU runs, diamonds, counted loops, sprinkled memory ops and
   context switches over a pool of long-lived variables — until it
   reaches the requested instruction count. Deterministic in the seed,
   like the packet images in {!Workload}. *)

open Npra_ir

let large ?(seed = 1) ~size () =
  let state = ref (if seed = 0 then 0x9E3779B9 else seed land 0x3FFFFFFF) in
  let rand bound =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) in
    let x = x land 0x3FFFFFFF in
    state := if x = 0 then 1 else x;
    x mod bound
  in
  let b = Builder.create ~name:(Fmt.str "synthetic%d" size) in
  let nv = 48 (* long-lived variables *) in
  let var = Array.init nv (fun i -> Builder.reg b (Fmt.str "x%d" i)) in
  let base = Builder.reg b "base" in
  Builder.movi b base 0;
  Array.iteri (fun i v -> Builder.movi b v ((i * 7) + 1)) var;
  let ops = [| Instr.Add; Instr.Sub; Instr.And; Instr.Or; Instr.Xor |] in
  let any () = var.(rand nv) in
  let emit_one () =
    match rand 10 with
    | 0 -> Builder.mov b (any ()) (any ())
    | 1 -> Builder.movi b (any ()) (rand 1000)
    | 2 -> Builder.load b (any ()) base (rand 64)
    | 3 -> Builder.store b (any ()) base (64 + rand 64)
    | 4 -> Builder.ctx_switch b
    | _ ->
      Builder.alu b ops.(rand (Array.length ops)) (any ()) (any ())
        (if rand 4 = 0 then Builder.imm (rand 1000) else Builder.rge (any ()))
  in
  let emit_run len = for _ = 1 to len do emit_one () done in
  (* leave room for the trailing stores and halt *)
  let budget = size - nv - 1 in
  while Builder.here b < budget do
    match rand 8 with
    | 0 ->
      Builder.if_ b Instr.Eq (any ()) (Builder.imm 0)
        ~then_:(fun () -> emit_run (1 + rand 4))
        ~else_:(fun () -> emit_run (1 + rand 4))
    | 1 -> Builder.loop b ~iters:(2 + rand 3) (fun () -> emit_run (1 + rand 4))
    | _ -> emit_run (2 + rand 6)
  done;
  (* observability, matching the property-test recipes: store every var *)
  Array.iteri (fun i v -> Builder.store b v base (128 + i)) var;
  Builder.halt b;
  Builder.finish b
