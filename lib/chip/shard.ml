(* Sharded dispatch: tens-to-hundreds of micro-engines behind a seeded
   hash spreader.

   A chip run partitions [engines] global engines into [shards]
   shards. The spreader hashes each global engine index through the
   repo's xorshift family, so the partition is a pure function of
   (seed, engines, shards) — re-running the same chip replays the same
   shard membership on any platform. Each shard then runs the existing
   dispatcher over its own engines with a shard-mixed seed: shards
   share no mutable state, so each is one pool task, and the fold of per-shard metrics into chip totals is exact — packet
   conservation holds shard by shard and across the sum. *)

open Npra_traffic
module Json = Npra_core.Json

(* Two xorshift steps over mixed lanes; 30-bit like every repo seed.
   One step leaves the low bits of an arithmetic progression nearly
   constant — useless under [mod shards] — so the spreader composes
   two. *)
let mix ~seed a b =
  Npra_core.Rng.step
    (Npra_core.Rng.step ((seed * 131) + (a * 7919) + (b * 101) + 1))

let spread ~seed ~engines ~shards =
  if engines < 1 then Fmt.invalid_arg "Shard.spread: engines %d < 1" engines;
  if shards < 1 then Fmt.invalid_arg "Shard.spread: shards %d < 1" shards;
  Array.init engines (fun e -> mix ~seed e 0 mod shards)

let members_of shard_of shards =
  let members = Array.make shards [] in
  Array.iteri
    (fun e s -> members.(s) <- e :: members.(s))
    shard_of;
  Array.map List.rev members

let shard_seed ~seed ~shard = mix ~seed shard 17

type shard_run = {
  sr_shard : int;
  sr_members : int list;  (* global engine indices routed to this shard *)
  sr_seed : int;
  sr_metrics : Metrics.run_metrics;
}

type t = {
  c_seed : int;
  c_engines : int;
  c_shards : int;
  c_duration : int;
  c_runs : shard_run list;
}

let empty_metrics ~duration ~seed =
  {
    Metrics.rm_duration = duration;
    rm_seed = seed;
    rm_engines = [];
    rm_trail = [];
  }

let run ?(pool = Npra_par.Pool.sequential) ?(sentinel = `Trap) ?machine_config
    ?refresh ?chaos_spec ?shed ~seed ~engines ~shards ~duration ~specs
    ~mem_image progs =
  let shard_of = spread ~seed ~engines ~shards in
  let members = members_of shard_of shards in
  let nthreads = List.length progs in
  (* one image for every shard: immutable, so the pool's domains share it *)
  let image =
    Npra_sim.Machine.image
      ~config:(Option.value machine_config ~default:Dispatch.default_machine_config)
      ~sentinel progs
  in
  let runs =
    Npra_par.Pool.tasks pool shards (fun s ->
        let sseed = shard_seed ~seed ~shard:s in
        let n = List.length members.(s) in
        let metrics =
          if n = 0 then empty_metrics ~duration ~seed:sseed
          else
            let chaos =
              Option.map
                (fun spec ->
                  Chaos.schedule ~seed:(mix ~seed:sseed 1 31) ~engines:n
                    ~threads:nthreads ~duration spec)
                chaos_spec
            in
            Dispatch.run_image ~engines:n ?refresh ?chaos ?shed ~seed:sseed
              ~duration ~specs ~mem_image image
        in
        { sr_shard = s; sr_members = members.(s); sr_seed = sseed;
          sr_metrics = metrics })
  in
  {
    c_seed = seed;
    c_engines = engines;
    c_shards = shards;
    c_duration = duration;
    c_runs = Array.to_list runs;
  }

(* ---- the fold ---- *)

type totals = {
  t_offered : int;
  t_served : int;
  t_drops : Metrics.drops;
  t_residual : int;
}

let totals t =
  List.fold_left
    (fun acc r ->
      {
        t_offered = acc.t_offered + Metrics.total_offered r.sr_metrics;
        t_served = acc.t_served + Metrics.total_served r.sr_metrics;
        t_drops = Metrics.add_drops acc.t_drops (Metrics.total_drops r.sr_metrics);
        t_residual = acc.t_residual + Metrics.total_residual r.sr_metrics;
      })
    { t_offered = 0; t_served = 0; t_drops = Metrics.no_drops; t_residual = 0 }
    t.c_runs

(* Exact conservation across the fold: every shard conserves packets,
   and the chip-level sums balance to the word. *)
let conservation_ok t =
  let tt = totals t in
  List.for_all (fun r -> Metrics.conservation_ok r.sr_metrics) t.c_runs
  && tt.t_offered
     = tt.t_served + Metrics.drops_total tt.t_drops + tt.t_residual

let surviving_engines t =
  List.fold_left
    (fun acc r -> acc + Metrics.surviving_engines r.sr_metrics)
    0 t.c_runs

(* Per-thread-index aggregate across every shard (thread [i] runs the
   same kernel on every engine of every shard). Shards with no engines
   contribute nothing. *)
type thread_totals = {
  tt_thread : int;
  tt_name : string;
  tt_offered : int;
  tt_served : int;
  tt_dropped : int;
}

let thread_totals t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun ts ->
          let open Metrics in
          let cur =
            Option.value
              (Hashtbl.find_opt tbl ts.ts_thread)
              ~default:
                {
                  tt_thread = ts.ts_thread;
                  tt_name = ts.ts_name;
                  tt_offered = 0;
                  tt_served = 0;
                  tt_dropped = 0;
                }
          in
          Hashtbl.replace tbl ts.ts_thread
            {
              cur with
              tt_offered = cur.tt_offered + ts.ts_offered;
              tt_served = cur.tt_served + ts.ts_served;
              tt_dropped = cur.tt_dropped + ts.ts_dropped;
            })
        (Metrics.thread_summaries r.sr_metrics))
    t.c_runs;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> compare a.tt_thread b.tt_thread)

let served_of_thread t i =
  match List.find_opt (fun x -> x.tt_thread = i) (thread_totals t) with
  | Some x -> x.tt_served
  | None -> 0

(* ---- canonical JSON ---- *)

let json t =
  let tt = totals t in
  let shard_json r =
    let m = r.sr_metrics in
    Json.Obj
      [ ("shard", Int r.sr_shard); ("seed", Int r.sr_seed);
        ("members", List (List.map (fun e -> Json.Int e) r.sr_members));
        ("offered", Int (Metrics.total_offered m));
        ("served", Int (Metrics.total_served m));
        ("dropped", Int (Metrics.total_dropped m));
        ("residual", Int (Metrics.total_residual m));
        ("surviving", Int (Metrics.surviving_engines m));
        ("conservation", Bool (Metrics.conservation_ok m)) ]
  in
  let thread_json x =
    Json.Obj
      [ ("thread", Int x.tt_thread); ("kernel", String x.tt_name);
        ("offered", Int x.tt_offered); ("served", Int x.tt_served);
        ("dropped", Int x.tt_dropped) ]
  in
  Json.Obj
    [ ("seed", Int t.c_seed); ("engines", Int t.c_engines); ("shards", Int t.c_shards);
      ("duration", Int t.c_duration); ("offered", Int tt.t_offered);
      ("served", Int tt.t_served); ("drops", Metrics.drops_json tt.t_drops);
      ("residual", Int tt.t_residual); ("surviving", Int (surviving_engines t));
      ("conservation", Bool (conservation_ok t));
      ("threads", List (List.map thread_json (thread_totals t)));
      ("shards_detail", List (List.map shard_json t.c_runs)) ]

let to_json t = Json.to_string (json t)

let pp ppf t =
  let tt = totals t in
  Fmt.pf ppf
    "chip: %d engines in %d shards, seed %d, duration %d@.  offered %d, \
     served %d, dropped %d, residual %d, surviving %d/%d, conservation %s@."
    t.c_engines t.c_shards t.c_seed t.c_duration tt.t_offered tt.t_served
    (Metrics.drops_total tt.t_drops)
    tt.t_residual (surviving_engines t) t.c_engines
    (if conservation_ok t then "ok" else "VIOLATED");
  List.iter
    (fun r ->
      Fmt.pf ppf "  shard %2d: %2d engines, offered %7d, served %7d%a@."
        r.sr_shard
        (List.length r.sr_members)
        (Metrics.total_offered r.sr_metrics)
        (Metrics.total_served r.sr_metrics)
        Fmt.(
          list ~sep:nop (fun ppf (e, f) ->
              Fmt.pf ppf "@.      engine %d: %s" e f))
        (Metrics.faults r.sr_metrics))
    t.c_runs;
  List.iter
    (fun x ->
      Fmt.pf ppf "  thread %d %-12s offered %7d served %7d dropped %7d@."
        x.tt_thread x.tt_name x.tt_offered x.tt_served x.tt_dropped)
    (thread_totals t)
