(* End-to-end compilation pipelines.

   [balanced] is the paper's system: web renaming, per-thread estimation,
   inter-thread balancing, physical assignment (packed private blocks +
   top shared block), move materialisation, and a from-scratch safety
   verification.

   Rather than dying on hard inputs it degrades through a fallback
   chain — balanced allocation, balanced with the move budget waived,
   per-thread Chaitin colouring into a fixed partition — and records
   which stage served the allocation plus a diagnostic trail of every
   stage it had to reject, so experiments and the CLI can report
   provenance instead of crashing. The chain's stages are the
   portfolio slate's own ({!run_balanced}, {!run_entrant}), tried in
   order here and raced by {!Portfolio}.

   [baseline] is the conventional system the paper compares against:
   per-thread Chaitin colouring into a fixed [Nreg/Nthd] partition with
   spill code.

   Both produce fully physical programs ready for the cycle-level
   machine; [differential] checks them against the reference executor. *)

open Npra_ir
open Npra_cfg
open Npra_regalloc
open Npra_sim

(* [Balanced], [Balanced_relaxed] and [Chaitin_fallback] are the three
   stages of the sequential fallback chain. The remaining constructors
   are further portfolio entrants ({!Portfolio.race}), which races the
   chain's stages and these in parallel instead of trying them one after
   another. *)
type stage =
  | Balanced
  | Balanced_relaxed
  | Chaitin_fallback
  | Balanced_budget of int  (* balanced, rejected over this move budget *)
  | Balanced_zero_cost  (* Inter.tighten_zero_cost: free reductions only *)
  | Balanced_shuffled of int  (* seeded thread-order permutation *)
  | Sra_exhaustive  (* paper §8: exhaustive symmetric (PR, SR) sweep *)

let pp_stage ppf = function
  | Balanced -> Fmt.string ppf "balanced"
  | Balanced_relaxed -> Fmt.string ppf "balanced (relaxed move budget)"
  | Chaitin_fallback -> Fmt.string ppf "fixed-partition chaitin"
  | Balanced_budget b -> Fmt.pf ppf "balanced (move budget %d)" b
  | Balanced_zero_cost -> Fmt.string ppf "balanced (zero-cost tighten)"
  | Balanced_shuffled s -> Fmt.pf ppf "balanced (shuffled order, seed %d)" s
  | Sra_exhaustive -> Fmt.string ppf "sra (exhaustive symmetric sweep)"

(* A trail entry: either a stage that rejected the allocation before a
   later stage served it, or a provenance note that the whole result was
   served from the content-addressed cache (carrying the stage that
   originally produced it and the cache key). *)
type diagnostic =
  | Rejected of { stage : stage; reason : string }
  | Cache_hit of { stage : stage; key : string }

let pp_diagnostic ppf = function
  | Rejected { stage; reason } ->
    Fmt.pf ppf "%a rejected: %s" pp_stage stage reason
  | Cache_hit { stage; key } ->
    Fmt.pf ppf "%a served from cache (key %s)" pp_stage stage
      (String.sub key 0 (min 12 (String.length key)))

let rejections trail =
  List.filter (function Rejected _ -> true | Cache_hit _ -> false) trail

type balanced = {
  provenance : stage;  (* which stage of the chain served the result *)
  inter : Inter.t option;  (* present unless Chaitin served it *)
  chaitin : Chaitin.result list option;  (* present when Chaitin did *)
  layout : Assign.t;
  programs : Prog.t list;
  moves : int;
  spilled_ranges : int list;  (* per thread; all zero off the fallback *)
  verify_errors : Verify.error list;
  trail : diagnostic list;  (* stages rejected before the one that served *)
}

(* The fixed-partition Chaitin allocation shared by the [baseline]
   pipeline and the last stage of the [balanced] fallback chain.
   Programs must already be in web form. *)
let chaitin_partition ?(weights = []) ~nreg ~spill_bases progs =
  let nthd = List.length progs in
  let layout =
    (* non-trivial weights skew the partition toward the heavy
       threads — the paper's "give the critical thread more registers"
       applied to the conventional fixed split *)
    if weights <> [] && List.exists (fun w -> w <> List.hd weights) weights
    then
      Assign.weighted_partition ~nreg
        ~weights:
          (List.mapi (fun i _ -> try List.nth weights i with _ -> 1) progs)
    else Assign.fixed_partition ~nreg ~nthd
  in
  let results =
    List.mapi
      (fun i (prog, spill_base) ->
        Chaitin.allocate ~k:layout.Assign.private_size.(i) ~spill_base prog)
      (List.combine progs spill_bases)
  in
  let programs =
    List.mapi
      (fun i r ->
        Rewrite.apply_map r.Chaitin.prog r.Chaitin.coloring
          ~reg_of_color:(Assign.reg_of_color layout ~thread:i))
      results
  in
  (layout, results, programs)

(* Spill areas for threads the caller told us nothing about: thread [i]
   takes the spill area of registry slot [i] (see
   {!Npra_workloads.Workload}'s memory map). *)
let default_spill_bases progs =
  let open Npra_workloads.Workload in
  List.mapi (fun i _ -> (i * instance_size) + spill_offset) progs

let default_move_budget progs =
  let code = List.fold_left (fun a p -> a + Prog.length p) 0 progs in
  max 32 (code / 4)

(* Materialise a completed inter-thread allocation: pack the layout,
   rewrite every thread to physical registers, verify from scratch.
   @raise Rewrite.Incomplete_coloring or Assign.Overflow when an
   allocator invariant broke — {!guarded} turns those into a reason. *)
let finish_inter ~nreg ~provenance inter =
  let prs =
    Array.to_list inter.Inter.threads |> List.map (fun t -> t.Inter.pr)
  in
  let layout = Assign.layout ~nreg ~prs ~sgr:inter.Inter.sgr in
  let programs =
    List.mapi
      (fun i th ->
        Rewrite.apply th.Inter.ctx
          ~reg_of_color:(Assign.reg_of_color layout ~thread:i))
      (Array.to_list inter.Inter.threads)
  in
  {
    provenance;
    inter = Some inter;
    chaitin = None;
    layout;
    programs;
    moves = Inter.total_moves inter;
    spilled_ranges = List.map (fun _ -> 0) programs;
    verify_errors = Verify.check_system layout programs;
    trail = [];
  }

(* Runs one stage's allocation, turning a broken allocator invariant
   into a rejection reason: every stage is total. *)
let guarded run =
  try run () with
  | Rewrite.Incomplete_coloring { reg; gap = Some g } ->
    Error (Fmt.str "%a has no segment at gap %d" Reg.pp reg g)
  | Rewrite.Incomplete_coloring { reg; gap = None } ->
    Error (Fmt.str "%a has no colour" Reg.pp reg)
  | Assign.Overflow msg -> Error msg
  | Intra.Infeasible -> Error "intra-thread reduction infeasible"

let rejected stage = function
  | Ok b -> Ok b
  | Error reason -> Error [ Rejected { stage; reason } ]

(* The balancer stages — [Balanced] at the default [budget],
   [Balanced_budget b], and [Balanced_relaxed] with no budget — differ
   only in the move count they accept a Figure-8 result under. So they
   share one balancer run and one materialisation, and each requested
   stage, in order, gets that result or a rejection. A failed run
   rejects every stage with the same reason. *)
let run_balanced ?(weights = []) ~nreg ~budget ~threads stages =
  let limit = function
    | Balanced -> Some budget
    | Balanced_budget b -> Some b
    | Balanced_relaxed -> None
    | stage ->
      Fmt.invalid_arg "Pipeline.run_balanced: %a is not a balancer stage"
        pp_stage stage
  in
  let limits = List.map limit stages in
  let run =
    guarded (fun () ->
        match Inter.balance ~weights ~nreg `Fit threads with
        | Error (`Infeasible msg) -> Error msg
        | Ok inter -> Ok (finish_inter ~nreg ~provenance:Balanced inter))
  in
  List.map2
    (fun stage limit ->
      ( stage,
        rejected stage
          (Result.bind run (fun b ->
               match limit with
               | Some l when b.moves > l ->
                 Error (Fmt.str "%d moves exceed the budget of %d" b.moves l)
               | _ -> Ok { b with provenance = stage })) ))
    stages limits

(* Runs one slate stage from the analysed [threads] (web renaming and
   {!Inter.init_thread}, once per thread and call); the balancer stages
   go through {!run_balanced}. The records are only read, so the
   entrants of one race share them across domains. [weights] reach the
   chain's stages (the balancer and the Chaitin split) only. Total:
   allocator infeasibilities and materialisation failures come back as
   [Error] trails naming the stage, never exceptions. *)
let run_entrant ?(weights = []) ~nreg ~budget ~spill_bases ~threads stage =
  let finish inter = Ok (finish_inter ~nreg ~provenance:stage inter) in
  let solo run = rejected stage (guarded run) in
  match stage with
  | Balanced | Balanced_relaxed | Balanced_budget _ ->
    List.assoc stage (run_balanced ~weights ~nreg ~budget ~threads [ stage ])
  | Balanced_zero_cost ->
    solo (fun () ->
        match Inter.balance ~nreg `Zero_cost threads with
        | Error (`Infeasible msg) -> Error msg
        | Ok inter ->
          let d = Inter.demand inter.Inter.threads in
          if d > nreg then
            Error
              (Fmt.str "zero-cost tightening stops at demand %d > %d registers"
                 d nreg)
          else finish inter)
  | Balanced_shuffled s ->
    solo (fun () ->
        let n = Array.length threads in
        let perm = Rng.permutation ~seed:s n in
        let permuted = Array.init n (fun j -> threads.(perm.(j))) in
        match Inter.balance ~nreg `Fit permuted with
        | Error (`Infeasible msg) -> Error msg
        | Ok inter ->
          (* The balancer saw the threads in permuted order; put its
             per-thread results back in caller order before assignment. *)
          let unperm = Array.make n inter.Inter.threads.(0) in
          Array.iteri (fun j th -> unperm.(perm.(j)) <- th) inter.Inter.threads;
          finish { inter with Inter.threads = unperm })
  | Sra_exhaustive ->
    solo (fun () ->
        let rep = threads.(0) in
        let same t = t.Inter.bounds = rep.Inter.bounds in
        if not (Array.for_all same threads) then
          Error "mix is not symmetric: thread register-demand bounds differ"
        else
          match Sra.allocate ~nreg ~nthd:(Array.length threads) rep with
          | Error (`Infeasible msg) -> Error msg
          | Ok sra ->
            let target_pr = sra.Sra.pr and target_sr = sra.Sra.sr in
            (* Drive every thread to the symmetric point the sweep chose;
               threads share bounds but not necessarily programs. *)
            let rec drive acc = function
              | [] -> Ok (Array.of_list (List.rev acc))
              | t :: rest -> (
                match Sra.reach t ~pr:target_pr ~sr:target_sr with
                | Some red ->
                  drive
                    ({ t with Inter.ctx = red.Intra.ctx;
                              pr = target_pr;
                              sr = target_sr }
                    :: acc)
                    rest
                | None -> Error t.Inter.name)
            in
            (match drive [] (Array.to_list threads) with
            | Error name ->
              Error
                (Fmt.str
                   "thread %s cannot reach the symmetric point (PR=%d, SR=%d)"
                   name target_pr target_sr)
            | Ok threads -> finish { Inter.threads; nreg; sgr = target_sr }))
  | Chaitin_fallback ->
    solo (fun () ->
        let wprogs = Array.to_list (Array.map (fun t -> t.Inter.prog) threads) in
        match chaitin_partition ~weights ~nreg ~spill_bases wprogs with
        | layout, results, programs ->
          Ok
            {
              provenance = stage;
              inter = None;
              chaitin = Some results;
              layout;
              programs;
              moves = 0;
              spilled_ranges =
                List.map (fun r -> Reg.Set.cardinal r.Chaitin.spilled) results;
              verify_errors = Verify.check_system layout programs;
              trail = [];
            }
        | exception Chaitin.Did_not_converge { k; iterations; pending; _ } ->
          Error
            (Fmt.str
               "spill loop did not converge after %d iterations (k=%d, %d \
                registers still uncolourable)"
               iterations k
               (Reg.Set.cardinal pending)))

(* The fallback chain: the balancer stages in order, sharing one
   Figure-8 run, then the Chaitin floor. The first stage that serves
   wins, and its trail is every rejection before it. *)
let balanced_uncached ?(nreg = 128) ?(weights = []) ?move_budget ?spill_bases
    progs =
  let wprogs = List.map Webs.rename progs in
  let threads = Array.of_list (List.map Inter.init_thread wprogs) in
  let budget =
    Option.value move_budget ~default:(default_move_budget wprogs)
  in
  let spill_bases =
    Option.value spill_bases ~default:(default_spill_bases wprogs)
  in
  let rec serve trail = function
    | (_, Ok b) :: _ -> Ok { b with trail }
    | (_, Error rejects) :: rest -> serve (trail @ rejects) rest
    | [] -> (
      match
        run_entrant ~weights ~nreg ~budget ~spill_bases ~threads Chaitin_fallback
      with
      | Ok b -> Ok { b with trail }
      | Error rejects -> Error (trail @ rejects))
  in
  serve []
    (run_balanced ~weights ~nreg ~budget ~threads [ Balanced; Balanced_relaxed ])

(* ------------------------------------------------------------------ *)
(* Content-addressed allocation cache.

   A kernel mix that repeats a kernel (the traffic bench instantiates
   the same program on many engines) re-runs the whole
   rename/estimate/balance/assign chain on identical input. The cache
   keys the complete [balanced] result on an MD5 digest of the printed
   programs plus every configuration knob that can change the answer
   ([nreg], the move budget, the spill bases), so a hit is sound by
   construction: same key, same inputs, same deterministic pipeline.

   Domain-safety: the table is guarded by a mutex; the allocation
   itself runs outside the lock, so concurrent workers can at worst
   duplicate a computation (both miss, both compute the same value) —
   never block each other for the length of an allocation or observe a
   half-built entry. A hit is recorded in the returned trail as a
   {!Cache_hit} carrying the original provenance, so reports can show
   where a result really came from. *)

let cache_capacity = 512
let cache : (string, (balanced, diagnostic list) result) Hashtbl.t =
  Hashtbl.create 64
let cache_lock = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0

type cache_stats = { hits : int; misses : int; entries : int }

let cache_stats () =
  Mutex.protect cache_lock (fun () ->
      { hits = !cache_hits; misses = !cache_misses;
        entries = Hashtbl.length cache })

let cache_clear () =
  Mutex.protect cache_lock (fun () ->
      Hashtbl.reset cache;
      cache_hits := 0;
      cache_misses := 0)

(* [tag] distinguishes the computation that produced the value: the
   chain caches under ["chain"]; every portfolio entrant caches under
   its stage's {!pp_stage} text. Without the tag, a portfolio entrant
   could hit a value computed by a different stage on the same programs
   and its {!Cache_hit} note would then carry that other stage's
   provenance — the slate default — instead of the entrant's own. *)
let cache_key ?(tag = "chain") ?(weights = []) ~nreg ~move_budget ~spill_bases
    progs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Fmt.str "tag=%s;nreg=%d;budget=%a;spill=%a;w=%a"
       tag nreg
       Fmt.(option ~none:(any "-") int)
       move_budget
       Fmt.(option ~none:(any "-") (list ~sep:comma int))
       spill_bases
       Fmt.(list ~sep:comma int)
       weights);
  List.iter
    (fun p ->
      Buffer.add_char buf '\000';
      Buffer.add_string buf (Prog.to_string p))
    progs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The hit note must carry the provenance of the cached value itself —
   an Ok result's own stage, or for a failure the stage that had the
   last word in its trail — never a fixed default, or a portfolio
   entrant served from cache would report another strategy's identity. *)
let note_cache_hit key = function
  | Ok b ->
    Ok { b with trail = b.trail @ [ Cache_hit { stage = b.provenance; key } ] }
  | Error trail ->
    let stage =
      List.fold_left
        (fun acc d ->
          match d with Rejected { stage; _ } -> Some stage | Cache_hit _ -> acc)
        None trail
      |> Option.value ~default:Chaitin_fallback
    in
    Error (trail @ [ Cache_hit { stage; key } ])

(* The cached-entry discipline of [balanced] and every portfolio
   entrant: [cache_find] counts and notes a hit, and a miss is computed
   outside the lock and handed to [cache_store], which counts it and
   publishes it. *)
let cache_find key =
  Mutex.protect cache_lock (fun () ->
      let hit = Hashtbl.find_opt cache key in
      if Option.is_some hit then incr cache_hits;
      hit)
  |> Option.map (note_cache_hit key)

let cache_store key result =
  Mutex.protect cache_lock (fun () ->
      incr cache_misses;
      if not (Hashtbl.mem cache key) then begin
        if Hashtbl.length cache >= cache_capacity then Hashtbl.reset cache;
        Hashtbl.add cache key result
      end);
  result

let balanced ?(nreg = 128) ?(weights = []) ?move_budget ?spill_bases progs =
  let key = cache_key ~weights ~nreg ~move_budget ~spill_bases progs in
  match cache_find key with
  | Some result -> result
  | None ->
    cache_store key
      (balanced_uncached ~nreg ~weights ?move_budget ?spill_bases progs)

let balanced_exn ?nreg ?move_budget ?spill_bases progs =
  match balanced ?nreg ?move_budget ?spill_bases progs with
  | Ok b -> b
  | Error trail ->
    Fmt.failwith "Pipeline.balanced: every stage failed:@ %a"
      (Fmt.list ~sep:Fmt.sp pp_diagnostic)
      trail

type baseline = {
  base_programs : Prog.t list;
  spilled_ranges : int list;  (* per thread *)
}

let baseline ?(nreg = 128) ~spill_bases progs =
  let progs = List.map Webs.rename progs in
  let _, results, programs = chaitin_partition ~nreg ~spill_bases progs in
  {
    base_programs = programs;
    spilled_ranges =
      List.map (fun r -> Reg.Set.cardinal r.Chaitin.spilled) results;
  }

(* Differential check: each physical program must preserve its virtual
   original's store trace, both in isolation and under multithreaded
   interleaving (shared registers make the latter the interesting case).
   [ignore_addr] filters allocator-internal traffic — the spill-area
   stores of the Chaitin baseline are not program behaviour. *)
let differential ?(ignore_addr = fun _ -> false) ~mem_image originals allocated
    =
  let filter trace = List.filter (fun (a, _) -> not (ignore_addr a)) trace in
  let expected =
    List.map (fun p -> (Refexec.run ~mem_image p).Refexec.store_trace) originals
  in
  let solo =
    List.map
      (fun p -> filter (Refexec.run ~mem_image p).Refexec.store_trace)
      allocated
  in
  let machine = Machine.run ~mem_image allocated in
  let interleaved =
    List.map
      (fun tr -> filter tr.Machine.store_trace)
      (Machine.report machine).Machine.thread_reports
  in
  List.for_all2 ( = ) expected solo && List.for_all2 ( = ) expected interleaved

(* ------------------------------------------------------------------ *)
(* Source-level entry points: the total frontends composed with the
   degradation chain, so a byte stream maps to an allocation, frontend
   diagnostics, or an allocator trail — never an exception. *)

type source_error =
  | Frontend of Npra_diag.Diag.t list  (* lex/parse/sema diagnostics *)
  | Alloc of diagnostic list  (* every allocation stage failed *)

let pp_source_error ?src ppf = function
  | Frontend ds -> (
    match src with
    | Some src -> Npra_diag.Diag.render_all ~src ppf ds
    | None -> Fmt.(list ~sep:(any "@.") Npra_diag.Diag.pp) ppf ds)
  | Alloc trail ->
    Fmt.pf ppf "allocation failed at every stage:@.%a"
      Fmt.(list ~sep:(any "@.") pp_diagnostic)
      trail

(* A frontend's result, cleaned up when [optimize] is set, through the
   chain. *)
let allocate_frontend ?nreg ~optimize = function
  | Error ds -> Error (Frontend ds)
  | Ok [] ->
    Error
      (Frontend
         [
           Npra_diag.Diag.error Npra_diag.Diag.Parse
             (Npra_diag.Diag.point (Npra_diag.Diag.pos ~line:1 ~col:1))
             "source contains no thread sections";
         ])
  | Ok progs ->
    let progs =
      if optimize then List.map Npra_opt.Opt.clean progs else progs
    in
    Result.map_error
      (fun trail -> Alloc trail)
      (balanced ?nreg progs)

let run_asm ?nreg ?(optimize = false) src =
  allocate_frontend ?nreg ~optimize (Npra_asm.Parser.parse src)

let run_npc ?nreg ?(optimize = false) src =
  allocate_frontend ?nreg ~optimize (Npra_npc.Npc.compile src)

(* The throughput experiment's two contenders from one entry point: the
   spilling fixed-partition baseline and the balanced degradation chain,
   built from the same programs and the same spill areas, so a traffic
   run compares allocation policy and nothing else. The two runs are
   independent, so a multi-worker [pool] computes them concurrently;
   results are task-indexed, so the pair is the same at any job count. *)
let contenders ?(pool = Npra_par.Pool.sequential) ?(nreg = 128) ~spill_bases
    progs =
  let results =
    Npra_par.Pool.tasks pool 2 (fun i ->
        if i = 0 then `Base (baseline ~nreg ~spill_bases progs)
        else `Bal (balanced ~nreg ~spill_bases progs))
  in
  match (results.(0), results.(1)) with
  | `Base base, `Bal bal -> (base, bal)
  | _ -> assert false

(* Cycles per main-loop iteration for each thread of a finished run. *)
let cycles_per_iteration report iters =
  List.map2
    (fun tr n ->
      match tr.Machine.completion with
      | Some c -> float_of_int c /. float_of_int n
      | None -> Float.nan)
    report.Machine.thread_reports iters
