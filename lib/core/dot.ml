(* Graphviz export: CFG with NSR clustering, and interference graphs.

   `npra dot <kernel>` renders what the paper draws by hand in Figures
   4 and 5 — the control-flow graph carved into non-switch regions, and
   the global interference graph with boundary nodes highlighted. *)

open Npra_ir
open Npra_cfg
open Npra_regalloc

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* Control-flow graph at basic-block granularity, blocks clustered by
   the NSR of their first instruction; CSB instructions are drawn as
   diamond boundary nodes. *)
let cfg ppf prog =
  let blocks = Block.compute prog in
  let regions = Nsr.compute prog in
  Fmt.pf ppf "digraph cfg {@.";
  Fmt.pf ppf "  node [shape=box, fontname=\"monospace\", fontsize=10];@.";
  let block_label b =
    (* escape each instruction, then join with literal "\l" line breaks *)
    let buf = Buffer.create 128 in
    for i = b.Block.first to b.Block.last do
      Buffer.add_string buf
        (escape (Fmt.str "%d: %s" i (Instr.to_string (Prog.instr prog i))));
      Buffer.add_string buf "\\l"
    done;
    Buffer.contents buf
  in
  (* group blocks per region of their first instruction *)
  let by_region = Hashtbl.create 8 in
  Array.iter
    (fun b ->
      let key =
        match Nsr.region_of_instr regions b.Block.first with
        | Some r -> r
        | None -> -1
      in
      Hashtbl.replace by_region key
        (b :: (try Hashtbl.find by_region key with Not_found -> [])))
    (Block.blocks blocks);
  Hashtbl.iter
    (fun region bs ->
      if region >= 0 then begin
        Fmt.pf ppf "  subgraph cluster_nsr%d {@." region;
        Fmt.pf ppf "    label=\"NSR %d\"; style=dashed;@." region;
        List.iter
          (fun b -> Fmt.pf ppf "    b%d [label=\"%s\"];@." b.Block.id (block_label b))
          bs;
        Fmt.pf ppf "  }@."
      end
      else
        List.iter
          (fun b ->
            Fmt.pf ppf "  b%d [label=\"%s\", shape=diamond, style=filled, \
                        fillcolor=lightyellow];@."
              b.Block.id (block_label b))
          bs)
    by_region;
  Array.iter
    (fun b ->
      List.iter
        (fun s -> Fmt.pf ppf "  b%d -> b%d;@." b.Block.id s)
        (Block.succs blocks b.Block.id))
    (Block.blocks blocks);
  Fmt.pf ppf "}@."

(* Global interference graph: boundary nodes doubled circles, boundary
   interference (shared CSBs) drawn bold, plain co-liveness thin. *)
let interference ppf prog =
  let ctx = Context.create prog in
  Fmt.pf ppf "graph gig {@.";
  Fmt.pf ppf "  node [fontname=\"monospace\", fontsize=10];@.";
  List.iter
    (fun n ->
      let shape =
        if Context.is_boundary n then "doublecircle" else "circle"
      in
      Fmt.pf ppf "  n%d [label=\"%s\", shape=%s];@." n.Context.id
        (escape (Reg.to_string n.Context.vreg))
        shape)
    (Context.nodes ctx);
  let seen = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let bns =
        List.map (fun m -> m.Context.id) (Context.boundary_neighbors ctx n)
      in
      List.iter
        (fun m ->
          let key = (min n.Context.id m.Context.id, max n.Context.id m.Context.id) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            let style =
              if List.mem m.Context.id bns then " [style=bold]" else ""
            in
            Fmt.pf ppf "  n%d -- n%d%s;@." (fst key) (snd key) style
          end)
        (Context.neighbors ctx n))
    (Context.nodes ctx);
  Fmt.pf ppf "}@."

