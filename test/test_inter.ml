(* Tests for the inter-thread balancer, SRA, and the Chaitin baseline. *)

open Npra_ir
open Npra_cfg
open Npra_regalloc

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let web p = Webs.rename p
let analyse progs = Array.of_list (List.map Inter.init_thread progs)
let analysed p = Inter.init_thread (web p)

let inter_tests =
  [
    test "fig3: two threads share down to three registers" (fun () ->
        (* thread1 needs 3 (a private, b/c shareable), thread2 needs 1
           shared; pooling gives PR1=1, SR=2 -> 3 total at zero moves *)
        let t1 = web (Fixtures.fig3_thread1 ())
        and t2 = web (Fixtures.fig3_thread2 ()) in
        match Inter.allocate ~nreg:3 [ t1; t2 ] with
        | Error (`Infeasible m) -> Alcotest.fail m
        | Ok r ->
          check Alcotest.bool "fits" true (Inter.demand r.Inter.threads <= 3));
    test "fig3: sharing reaches the paper's two registers for thread1"
      (fun () ->
        (* with live-range splitting thread1 alone fits in 2 registers;
           on our three-address ISA the splits land on definition sites,
           so they can even be free of moves *)
        let t1 = web (Fixtures.fig3_thread1 ()) in
        match Inter.allocate ~nreg:2 [ t1 ] with
        | Error (`Infeasible m) -> Alcotest.fail m
        | Ok r ->
          check Alcotest.bool "fits in 2" true (Inter.demand r.Inter.threads <= 2);
          let th = r.Inter.threads.(0) in
          check Alcotest.int "valid colouring" 0
            (List.length
               (Context.check th.Inter.ctx ~pr:th.Inter.pr
                  ~r:(th.Inter.pr + th.Inter.sr))));
    test "infeasible demand is reported" (fun () ->
        let t1 = web (Fixtures.fig3_thread1 ()) in
        match Inter.allocate ~nreg:1 [ t1 ] with
        | Error (`Infeasible _) -> ()
        | Ok _ -> Alcotest.fail "expected infeasibility below MinR");
    test "four identical threads: shared registers counted once" (fun () ->
        let mk () = web (Fixtures.fig3_thread2 ()) in
        (* each thread: PR=0, SR=1; pooled demand is 1, not 4 *)
        match Inter.allocate ~nreg:4 [ mk (); mk (); mk (); mk () ] with
        | Error (`Infeasible m) -> Alcotest.fail m
        | Ok r ->
          check Alcotest.int "sgr" 1 r.Inter.sgr;
          check Alcotest.int "demand" 1 (Inter.demand r.Inter.threads));
    test "zero-cost tightening never inserts moves" (fun () ->
        let progs = [ web (Fixtures.fig4_frag ()) ] in
        match Inter.balance ~nreg:128 `Zero_cost (analyse progs) with
        | Error (`Infeasible m) -> Alcotest.fail m
        | Ok r -> check Alcotest.int "no moves" 0 (Inter.total_moves r));
    test "allocation at large nreg keeps the estimate" (fun () ->
        let t = web (Fixtures.fig4_frag ()) in
        match Inter.allocate ~nreg:128 [ t ] with
        | Error (`Infeasible m) -> Alcotest.fail m
        | Ok r ->
          let th = r.Inter.threads.(0) in
          check Alcotest.int "pr = max_pr" th.Inter.bounds.Estimate.max_pr
            th.Inter.pr);
    test "every committed context stays valid" (fun () ->
        let t1 = web (Fixtures.fig3_thread1 ())
        and t2 = web (Fixtures.fig4_frag ()) in
        match Inter.allocate ~nreg:7 [ t1; t2 ] with
        | Error (`Infeasible m) -> Alcotest.fail m
        | Ok r ->
          Array.iter
            (fun th ->
              check Alcotest.int "valid colouring" 0
                (List.length
                   (Context.check th.Inter.ctx ~pr:th.Inter.pr
                      ~r:(th.Inter.pr + th.Inter.sr))))
            r.Inter.threads);
  ]

let sra_tests =
  [
    test "SRA on fig3 thread2: zero private, one shared" (fun () ->
        match Sra.allocate ~nreg:8 ~nthd:4 (analysed (Fixtures.fig3_thread2 ())) with
        | Error (`Infeasible m) -> Alcotest.fail m
        | Ok r ->
          check Alcotest.int "pr" 0 r.Sra.pr;
          check Alcotest.int "sr" 1 r.Sra.sr;
          check Alcotest.int "demand" 1 (Sra.demand r));
    test "SRA demand respects the budget" (fun () ->
        match Sra.allocate ~nreg:16 ~nthd:4 (analysed (Fixtures.fig4_frag ())) with
        | Error (`Infeasible m) -> Alcotest.fail m
        | Ok r -> check Alcotest.bool "fits" true (Sra.demand r <= 16));
    test "SRA prefers zero-move solutions when the budget is loose"
      (fun () ->
        match Sra.allocate ~nreg:128 ~nthd:4 (analysed (Fixtures.fig4_frag ())) with
        | Error (`Infeasible m) -> Alcotest.fail m
        | Ok r -> check Alcotest.int "cost" 0 r.Sra.cost);
    test "SRA reports infeasibility under MinR" (fun () ->
        match Sra.allocate ~nreg:4 ~nthd:4 (analysed (Fixtures.fig3_thread1 ())) with
        | Error (`Infeasible _) -> ()
        | Ok r ->
          Alcotest.failf "expected infeasible, got PR=%d SR=%d" r.Sra.pr
            r.Sra.sr);
  ]

(* drr is the one registry kernel whose estimate sits several private
   registers above its floor with room to spare in the shared ones, so
   its SRA sweep walks a real strong-step chain; recipes small enough
   for a property reach the floor in at most one step. The reference
   drives each point from the estimate once for all cases: a step on
   drr takes about a tenth of a second. *)
let drr =
  lazy
    (analysed
       (Npra_workloads.Registry.instantiate
          (Npra_workloads.Registry.find_exn "drr")
          ~slot:0)
         .Npra_workloads.Workload.prog)

let drr_reach =
  let memo = Hashtbl.create 16 in
  fun ~pr ~sr ->
    match Hashtbl.find_opt memo (pr, sr) with
    | Some red -> red
    | None ->
      let red = Sra.reach (Lazy.force drr) ~pr ~sr in
      Hashtbl.add memo (pr, sr) red;
      red

let sweep_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:3
         ~name:"qcheck: the SRA sweep equals driving each point from the estimate"
         QCheck.(pair (int_range 1 4) (int_range 0 24))
         (fun (nthd, under) ->
           (* from the estimate's own demand down: the SR budget binds
              at the high PRs of the sweep and not at the low ones *)
           let th = Lazy.force drr in
           let { Estimate.min_pr; min_r; max_pr; max_r } = th.Inter.bounds in
           let max_sr = max_r - max_pr in
           let nreg = (nthd * max_pr) + max_sr - under in
           let points =
             List.filter_map
               (fun pr ->
                 let sr = min max_sr (nreg - (nthd * pr)) in
                 if sr >= max 0 (min_r - pr) then Some (pr, sr) else None)
               (List.init (max_pr - min_pr + 1) (fun i -> min_pr + i))
           in
           let same a b =
             match (a, b) with
             | None, None -> true
             | Some a, Some b ->
               a.Intra.cost = b.Intra.cost
               && String.equal
                    (Fmt.str "%a" Context.pp a.Intra.ctx)
                    (Fmt.str "%a" Context.pp b.Intra.ctx)
             | Some _, None | None, Some _ -> false
           in
           let sweep =
             List.sort
               (fun (a, _, _) (b, _, _) -> compare a b)
               (Sra.fold_sweep ~nreg ~nthd th
                  (fun acc pr sr red -> (pr, sr, red) :: acc)
                  [])
           in
           List.equal ( = ) points (List.map (fun (pr, sr, _) -> (pr, sr)) sweep)
           && List.for_all
                (fun (pr, sr, red) -> same red (drr_reach ~pr ~sr))
                sweep));
  ]

let chaitin_tests =
  [
    test "fig3 thread1 colours with three registers" (fun () ->
        check Alcotest.int "colors" 3
          (Chaitin.color_count (web (Fixtures.fig3_thread1 ()))));
    test "no spills when k is sufficient" (fun () ->
        let r =
          Chaitin.allocate ~k:8 ~spill_base:900 (web (Fixtures.fig4_frag ()))
        in
        check Alcotest.bool "no spills" true (Reg.Set.is_empty r.Chaitin.spilled);
        check Alcotest.int "one pass" 1 r.Chaitin.iterations);
    test "forced spilling still colours" (fun () ->
        let r =
          Chaitin.allocate ~k:3 ~spill_base:900 (web (Fixtures.fig4_frag ()))
        in
        check Alcotest.bool "spilled something" true
          (not (Reg.Set.is_empty r.Chaitin.spilled));
        check Alcotest.bool "coloured within k" true (r.Chaitin.colors <= 3));
    test "spill code preserves behaviour" (fun () ->
        let p = web (Fixtures.fig4_frag ()) in
        let r = Chaitin.allocate ~k:3 ~spill_base:900 p in
        let no_spill t = List.filter (fun (a, _) -> a < 900 || a >= 1156) t in
        let before = Npra_sim.Refexec.run p in
        let after = Npra_sim.Refexec.run r.Chaitin.prog in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "store trace" before.Npra_sim.Refexec.store_trace
          (no_spill after.Npra_sim.Refexec.store_trace));
    test "spill code adds context switches" (fun () ->
        let p = web (Fixtures.fig4_frag ()) in
        let r = Chaitin.allocate ~k:3 ~spill_base:900 p in
        check Alcotest.bool "more CTX" true
          (Prog.count_ctx_switches r.Chaitin.prog > Prog.count_ctx_switches p));
    test "coloring respects interference" (fun () ->
        let p = web (Fixtures.fig4_frag ()) in
        let r = Chaitin.allocate ~k:8 ~spill_base:900 p in
        let pts = Points.compute p in
        Reg.Map.iter
          (fun a ca ->
            Reg.Map.iter
              (fun b cb ->
                if (not (Reg.equal a b)) && ca = cb then
                  check Alcotest.bool
                    (Fmt.str "%a and %a share colour but interfere" Reg.pp a
                       Reg.pp b)
                    true
                    (Points.IntSet.is_empty
                       (Points.IntSet.inter (Points.gaps_of pts a)
                          (Points.gaps_of pts b))))
              r.Chaitin.coloring)
          r.Chaitin.coloring);
  ]

(* The Figure-8 loop as the paper states it: every greedy step
   re-evaluates every legal single-step reduction of every thread through
   [Intra], with no memo. Same candidate order (the SR step, then each
   thread's strong PR step, then each thread's demotion) and the same
   strict-minimum pick as [Inter], so the two must agree exactly. *)
let reference_loop ?(weights = []) stop progs =
  let threads = analyse progs in
  let n = Array.length threads in
  let w i = match List.nth_opt weights i with Some v -> max 0 v | None -> 1 in
  let r_of t = t.Inter.pr + t.Inter.sr in
  let max_sr ts = Array.fold_left (fun a t -> max a t.Inter.sr) 0 ts in
  let min_pr t = t.Inter.bounds.Estimate.min_pr in
  let min_r t = t.Inter.bounds.Estimate.min_r in
  let commit ts updates =
    let ts = Array.copy ts in
    List.iter (fun (i, t) -> ts.(i) <- t) updates;
    ts
  in
  let delta i t (red : Intra.reduction) = w i * (red.Intra.cost - Inter.cost_of t) in
  let candidates ts =
    let top = max_sr ts in
    let sr_step =
      if top = 0 then None
      else
        Array.to_list ts
        |> List.mapi (fun i t -> (i, t))
        |> List.filter (fun (_, t) -> t.Inter.sr = top)
        |> List.fold_left
             (fun acc (i, t) ->
               match acc with
               | None -> None
               | Some (d, ups) -> (
                 if r_of t - 1 < min_r t then None
                 else
                   match Intra.reduce_sr t.Inter.ctx ~pr:t.Inter.pr ~r:(r_of t) with
                   | None -> None
                   | Some red ->
                     Some
                       ( d + delta i t red,
                         (i, { t with Inter.ctx = red.Intra.ctx; sr = t.Inter.sr - 1 }) :: ups )))
             (Some (0, []))
    in
    let pr_step i =
      let t = ts.(i) in
      if t.Inter.pr - 1 < min_pr t || r_of t - 1 < min_r t then None
      else
        Intra.reduce_pr t.Inter.ctx ~pr:t.Inter.pr ~r:(r_of t)
        |> Option.map (fun red ->
               (delta i t red, [ (i, { t with Inter.ctx = red.Intra.ctx; pr = t.Inter.pr - 1 }) ]))
    in
    let demote_step i =
      let t = ts.(i) in
      if t.Inter.sr >= top || t.Inter.pr - 1 < min_pr t then None
      else
        Intra.demote_pr t.Inter.ctx ~pr:t.Inter.pr ~r:(r_of t)
        |> Option.map (fun red ->
               ( delta i t red,
                 [ (i, { t with Inter.ctx = red.Intra.ctx; pr = t.Inter.pr - 1; sr = t.Inter.sr + 1 }) ] ))
    in
    List.filter_map Fun.id
      ((sr_step :: List.init n pr_step) @ List.init n demote_step)
  in
  let pick = function
    | [] -> None
    | c :: cs -> Some (List.fold_left (fun b c -> if fst c < fst b then c else b) c cs)
  in
  let rec go ts =
    match stop with
    | `Fit nreg when Inter.demand ts <= nreg -> Some ts
    | `Fit _ -> ( match pick (candidates ts) with Some (_, ups) -> go (commit ts ups) | None -> None)
    | `Zero_cost -> (
      match pick (candidates ts) with
      | Some (d, ups) when d <= 0 -> go (commit ts ups)
      | Some _ | None -> Some ts)
  in
  go threads

(* Each thread's (PR, SR, moves) and its rewritten program, printed. *)
let render ~nreg threads =
  let threads = Array.to_list threads in
  let sgr = List.fold_left (fun a t -> max a t.Inter.sr) 0 threads in
  let layout = Assign.layout ~nreg ~prs:(List.map (fun t -> t.Inter.pr) threads) ~sgr in
  List.mapi
    (fun i t ->
      Fmt.str "PR=%d SR=%d moves=%d@.%s" t.Inter.pr t.Inter.sr (Inter.cost_of t)
        (Npra_asm.Printer.to_string
           (Rewrite.apply t.Inter.ctx ~reg_of_color:(Assign.reg_of_color layout ~thread:i))))
    threads

(* Seeded drr + fir2dim + two small kernels, in a seeded thread order:
   the kernels with the most room between their bounds, so the greedy
   loop commits several steps of every kind. *)
let squeeze_mix seed =
  let open Npra_workloads in
  let small = [| "frag"; "crc32"; "url"; "route"; "l2l3fwd_rx"; "l2l3fwd_tx" |] in
  let pick = Npra_core.Rng.permutation ~seed (Array.length small) in
  let ids = [| "drr"; "fir2dim"; small.(pick.(0)); small.(pick.(1)) |] in
  let order = Npra_core.Rng.permutation ~seed:(seed + 1000) 4 in
  let ids = List.init 4 (fun k -> ids.(order.(k))) in
  ( String.concat "+" ids,
    List.mapi
      (fun slot id -> web (Registry.instantiate (Registry.find_exn id) ~slot ~iters:8).Workload.prog)
      ids )

let memo_tests =
  let start progs = Inter.demand (analyse progs) in
  let agree ~name ~nreg ours reference =
    match ours, reference with
    | Ok t, Some ts ->
      check Alcotest.(list string) (name ^ ": allocation") (render ~nreg ts)
        (render ~nreg t.Inter.threads)
    | Error _, None -> ()
    | Ok _, None -> Alcotest.failf "%s: Inter allocated, the reference did not" name
    | Error _, Some _ -> Alcotest.failf "%s: the reference allocated, Inter did not" name
  in
  List.concat_map
    (fun seed ->
      let name, progs = squeeze_mix seed in
      let fit below weights () =
        let nreg = start progs - below in
        let label = Fmt.str "%s at %d (weights %a)" name nreg Fmt.(Dump.list int) weights in
        agree ~name:label ~nreg
          (Inter.allocate ~weights ~nreg progs)
          (reference_loop ~weights (`Fit nreg) progs)
      in
      (* drr takes the moves once the squeeze goes past the free steps;
         weighting it up (and the small kernels down to free) moves
         them elsewhere on seed 1 *)
      let weights =
        List.map
          (fun id -> if id = "drr" then 9 else if id = "fir2dim" then 1 else 0)
          (String.split_on_char '+' name)
      in
      [
        test (Fmt.str "seed %d: 1 and 2 under demand, memo = reference" seed) (fun () ->
            fit 1 [] ();
            fit 2 [] ());
        test (Fmt.str "seed %d: weighted, memo = reference" seed) (fun () ->
            fit 2 weights ();
            fit 5 weights ());
        test (Fmt.str "seed %d: zero-cost balance, memo = reference" seed) (fun () ->
            agree ~name:(name ^ " zero-cost") ~nreg:128
              (Inter.balance ~nreg:128 `Zero_cost (analyse progs))
              (reference_loop `Zero_cost progs));
      ])
    [ 1; 2 ]

let suite =
  [
    ("regalloc.inter", inter_tests);
    ("regalloc.inter.memo", memo_tests);
    ("regalloc.sra", sra_tests @ sweep_tests);
    ("regalloc.chaitin", chaitin_tests);
  ]
