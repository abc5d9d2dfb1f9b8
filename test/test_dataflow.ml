(* Differential tests for the dense dataflow engine.

   {!Npra_cfg.Liveness.compute} (the bitset worklist) must agree with
   {!Npra_cfg.Liveness.compute_reference} (the original Reg.Set engine,
   kept as oracle) at every instruction of every program we can throw at
   it: random qcheck recipes, all 11 benchmark kernels, and the synthetic
   large-program generator. The Bitset primitive itself is checked
   against Reg.Set on random operand pairs, and the dense views exposed
   by Points and Interference are cross-checked against their sparse
   counterparts. *)

open Npra_ir
open Npra_cfg
open Npra_regalloc
open Npra_workloads

let test name f = Alcotest.test_case name `Quick f

(* Both engines, compared at every instruction. *)
let engines_agree prog =
  let dense = Liveness.compute prog in
  let refr = Liveness.compute_reference prog in
  let ok = ref true in
  for i = 0 to Prog.length prog - 1 do
    if
      not
        (Reg.Set.equal (Liveness.live_in dense i) (Liveness.live_in refr i)
        && Reg.Set.equal (Liveness.live_out dense i) (Liveness.live_out refr i)
        && Reg.Set.equal
             (Liveness.live_across dense i)
             (Liveness.live_across refr i))
    then ok := false
  done;
  !ok

let check_engines_agree what prog =
  Alcotest.(check bool)
    (Fmt.str "dense = reference on %s" what)
    true (engines_agree prog)

(* ---------------- qcheck properties ---------------- *)

(* The acceptance bar is >= 200 generated programs through both engines;
   Test_props uses 60 for its heavier end-to-end properties. *)
let count = 200

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let differential_props =
  [
    prop "dense engine = reference engine on random programs"
      Test_props.arb_recipe
      (fun r -> engines_agree (Test_props.build_recipe ~name:"df" ~mem_base:0 r));
    prop "dense engine = reference engine on renamed random programs"
      Test_props.arb_recipe
      (fun r -> engines_agree (Test_props.program_of r));
  ]

(* ---------------- Bitset vs Reg.Set ---------------- *)

(* Model bitset elements as virtual registers so the oracle is literally
   Reg.Set, the structure the dense engine replaced. *)
let set_of_model width elts =
  Reg.Set.of_list (List.map (fun i -> Reg.V (i mod width)) elts)

let bitset_of_model width elts =
  Bitset.of_list width (List.map (fun i -> i mod width) elts)

let set_of_bitset bits =
  Bitset.fold (fun i acc -> Reg.Set.add (Reg.V i) acc) bits Reg.Set.empty

let arb_operands =
  QCheck.(
    triple (int_range 1 200) (small_list small_nat) (small_list small_nat))

let bitset_props =
  [
    prop "Bitset union/inter/diff agree with Reg.Set" arb_operands
      (fun (w, xs, ys) ->
        let sa = set_of_model w xs and sb = set_of_model w ys in
        let ba = bitset_of_model w xs and bb = bitset_of_model w ys in
        Reg.Set.equal (set_of_bitset (Bitset.union ba bb)) (Reg.Set.union sa sb)
        && Reg.Set.equal (set_of_bitset (Bitset.inter ba bb))
             (Reg.Set.inter sa sb)
        && Reg.Set.equal (set_of_bitset (Bitset.diff ba bb))
             (Reg.Set.diff sa sb));
    prop "Bitset equal/subset/cardinal/mem agree with Reg.Set" arb_operands
      (fun (w, xs, ys) ->
        let sa = set_of_model w xs and sb = set_of_model w ys in
        let ba = bitset_of_model w xs and bb = bitset_of_model w ys in
        Bitset.equal ba bb = Reg.Set.equal sa sb
        && Bitset.subset ba bb = Reg.Set.subset sa sb
        && Bitset.cardinal ba = Reg.Set.cardinal sa
        && List.for_all
             (fun i -> Bitset.mem ba (i mod w) = Reg.Set.mem (Reg.V (i mod w)) sa)
             ys);
    prop "Bitset union_into grows exactly when the union is larger"
      arb_operands
      (fun (w, xs, ys) ->
        let sa = set_of_model w xs and sb = set_of_model w ys in
        let ba = bitset_of_model w xs and bb = bitset_of_model w ys in
        let grew = Bitset.union_into ~into:ba bb in
        grew = not (Reg.Set.subset sb sa)
        && Reg.Set.equal (set_of_bitset ba) (Reg.Set.union sa sb));
    prop "Bitset iter visits elements in ascending order" arb_operands
      (fun (w, xs, _) ->
        let b = bitset_of_model w xs in
        let seen = ref [] in
        Bitset.iter (fun i -> seen := i :: !seen) b;
        let visited = List.rev !seen in
        visited = List.sort_uniq compare visited
        && List.length visited = Bitset.cardinal b);
  ]

(* ---------------- kernels and synthetic programs ---------------- *)

let kernel_prog spec = (Registry.instantiate spec ~slot:0).Workload.prog

let kernel_tests =
  List.concat_map
    (fun spec ->
      let id = spec.Workload.id in
      [
        test (Fmt.str "engines agree on kernel %s" id) (fun () ->
            check_engines_agree id (kernel_prog spec));
        test (Fmt.str "engines agree on renamed kernel %s" id) (fun () ->
            check_engines_agree (id ^ " (renamed)")
              (Webs.rename (kernel_prog spec)));
      ])
    Registry.all

let synthetic_tests =
  [
    test "engines agree on a 2k-instruction synthetic program" (fun () ->
        check_engines_agree "synthetic2k" (Synthetic.large ~size:2_000 ()));
    test "engines agree on synthetic programs across seeds" (fun () ->
        List.iter
          (fun seed ->
            check_engines_agree
              (Fmt.str "synthetic seed %d" seed)
              (Synthetic.large ~seed ~size:400 ()))
          [ 2; 3; 4; 5 ]);
    (* 216 and 296 straddle the 256-instruction cutoff at which an
       earlier [compute] switched from its worklist to a sweep solver. *)
    test "engines agree on 216- and 296-instruction synthetic programs"
      (fun () ->
        List.iter
          (fun size ->
            check_engines_agree
              (Fmt.str "synthetic size %d" size)
              (Synthetic.large ~size ()))
          [ 216; 296 ]);
  ]

(* ---------------- dense consumers vs sparse views ---------------- *)

let consumer_tests =
  [
    test "Points bit views match its Reg.Set views" (fun () ->
        let prog = Webs.rename (kernel_prog Kernel_wraps.spec_rx) in
        let pts = Points.compute prog in
        let num = Points.numbering pts in
        let to_set bits =
          Bitset.fold
            (fun i acc -> Reg.Set.add (Numbering.reg num i) acc)
            bits Reg.Set.empty
        in
        for p = 0 to Points.num_gaps pts - 1 do
          let sparse = Points.live_at_gap pts p in
          Alcotest.(check bool)
            (Fmt.str "gap %d bits = set" p)
            true
            (Reg.Set.equal (to_set (Points.live_at_gap_bits pts p)) sparse)
        done;
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Fmt.str "across %d bits = set" c)
              true
              (Reg.Set.equal
                 (to_set (Points.across_bits pts c))
                 (Points.across pts c)))
          (Points.csb_points pts));
    test "Interference adjacency matrix matches its edge lists" (fun () ->
        let prog = Webs.rename (kernel_prog Kernel_drr.spec) in
        let inter = Interference.build prog in
        let regs =
          List.map (fun n -> n.Interference.vreg) (Interference.nodes inter)
        in
        let edge_mem edges a b =
          List.exists
            (fun (x, y) ->
              (Reg.equal x a && Reg.equal y b)
              || (Reg.equal x b && Reg.equal y a))
            edges
        in
        let gig = Interference.gig_edges inter
        and big = Interference.big_edges inter in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                Alcotest.(check bool)
                  (Fmt.str "gig %a-%a" Reg.pp a Reg.pp b)
                  (edge_mem gig a b)
                  (Interference.interferes inter a b);
                Alcotest.(check bool)
                  (Fmt.str "big %a-%a" Reg.pp a Reg.pp b)
                  (edge_mem big a b)
                  (Interference.boundary_interferes inter a b))
              regs)
          regs);
    test "reference analysis rejects dense accessors" (fun () ->
        let prog = kernel_prog Kernel_url.spec in
        let refr = Liveness.compute_reference prog in
        match Liveness.numbering refr with
        | (_ : Numbering.t) -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

let suite =
  [
    ("dataflow.differential", differential_props);
    ("dataflow.bitset", bitset_props);
    ("dataflow.kernels", kernel_tests);
    ("dataflow.synthetic", synthetic_tests);
    ("dataflow.consumers", consumer_tests);
  ]
