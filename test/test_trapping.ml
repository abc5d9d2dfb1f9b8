(* Armed dispatch runs that end in a trap, pinned by digest.

   [dispatch.stops] compares the sentinel off against the sentinel
   armed on safe allocations, where the armed engine never traps. These
   cases trap: an unsafe allocation injected by {!Npra_fault.Mutate},
   or a chaos storm on a safe one. When an engine traps, its queues
   must hold exactly the arrivals strictly before the trap cycle,
   wherever the engine last paused. So every case has a hot port (a
   short arrival period and a short queue) that is busy while arrivals
   come in. The cases also vary Poisson and Bursty arrivals, shedding
   on and off, and the watchdog on (with retries and re-dispatch) and
   off (the trapped engine keeps what it held). Each case pins an MD5
   of [Metrics.to_json]. *)

open Npra_sim
open Npra_workloads
open Npra_core
open Npra_traffic
module Mutate = Npra_fault.Mutate

let test name f = Alcotest.test_case name `Quick f
let md5 s = Digest.to_hex (Digest.string s)

(* The chaos matrix's forwarding mix, balanced at 128 registers, and
   every Mutate kind that finds a violating edit in it. *)
let mix =
  lazy
    (let sys =
       Registry.system ~iters:1
         (List.map Registry.find_exn [ "crc32"; "frag"; "url"; "route" ])
     in
     let bal =
       Pipeline.balanced_exn ~nreg:128 ~spill_bases:sys.spill_bases sys.progs
     in
     let unsafe =
       List.filter_map
         (fun kind ->
           match Mutate.inject bal.Pipeline.layout bal.Pipeline.programs kind with
           | Mutate.Applied inj -> Some (kind, inj.Mutate.programs)
           | Mutate.Not_applicable _ -> None)
         Mutate.all_kinds
     in
     (bal.Pipeline.programs, unsafe, sys.mem_image))

type case = {
  unsafe : int option;  (* index into the applicable Mutate kinds *)
  storms : int;
  watchdog : bool;  (* off: no chaos, no watchdog *)
  shed : Dispatch.shed option;
  engines : int;
  cost : int;
  duration : int;
  specs : Workload.traffic_spec list;
}

(* Every setting is a pure function of [seed]. A safe allocation traps
   only under a storm, and a storm comes with the watchdog. *)
let case_of_seed seed =
  let r = ref ((seed * 2654435761) lor 1) in
  let next bound =
    r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
    (!r lsr 4) mod bound
  in
  let _, unsafe, _ = Lazy.force mix in
  let unsafe =
    if next 3 = 0 then None else Some (next (List.length unsafe))
  in
  let watchdog = unsafe = None || next 2 = 0 in
  let storms =
    if not watchdog then 0 else if unsafe = None then 1 + next 3 else next 2
  in
  let hot = next 4 in
  let specs =
    List.init 4 (fun i ->
        let arrival =
          if i = hot then
            if next 2 = 0 then Workload.Poisson { mean_period = 8 + next 40 }
            else Workload.Uniform { period = 6 + next 30 }
          else
            match next 3 with
            | 0 -> Workload.Poisson { mean_period = 40 + next 400 }
            | 1 ->
              Workload.Bursty
                {
                  on_cycles = 100 + next 1_200;
                  off_cycles = 100 + next 1_200;
                  period = 5 + next 120;
                }
            | _ -> Workload.Uniform { period = 30 + next 400 }
        in
        {
          Workload.arrival;
          queue_capacity = (if i = hot then 1 + next 3 else 2 + next 7);
          per_packet_iters = 1;
        })
  in
  let shed =
    if next 2 = 0 then None
    else Some { Dispatch.quantum = 1 + next 4; burst = 2 + next 8 }
  in
  {
    unsafe;
    storms;
    watchdog;
    shed;
    engines = 1 + next 3;
    cost = next 4;
    duration = 6_000 + next 10_000;
    specs;
  }

let run_case ~seed c =
  let safe, unsafe, mem_image = Lazy.force mix in
  let progs =
    match c.unsafe with None -> safe | Some k -> snd (List.nth unsafe k)
  in
  let chaos =
    if c.storms = 0 then None
    else
      Some
        (Chaos.schedule ~seed ~engines:c.engines ~threads:4
           ~duration:c.duration
           { Chaos.quiet with Chaos.storms = c.storms })
  in
  Dispatch.run ~engines:c.engines ~sentinel:`Trap
    ~machine_config:
      {
        Machine.default_config with
        Machine.max_cycles = max_int;
        ctx_switch_cost = c.cost;
      }
    ?watchdog:(if c.watchdog then Some Dispatch.default_watchdog else None)
    ?shed:c.shed ?chaos ~seed ~duration:c.duration ~specs:c.specs ~mem_image
    progs

let trapped m =
  List.exists
    (fun e ->
      match e.Metrics.em_fault with
      | Some (Metrics.Engine_trap _) -> true
      | _ -> false)
    m.Metrics.rm_engines
  || List.exists
       (function Metrics.Fault_observed _ -> true | _ -> false)
       m.Metrics.rm_trail

(* (seed, digest of [Metrics.to_json]) for generated cases that trap. *)
let pinned =
  [
    (3, "a9f3bdd3c9b101c9bdf10223f49a1955");
    (5, "63c28b3b3b19199c735752e293defe75");
    (6, "9cf25360e6aab79615d276c004a19c93");
    (7, "167e0419162165c6044320f6ae0776a5");
    (8, "44081423d0a84315994b421c50951981");
    (9, "d8649ba1c296b99b9133a5d9b1dabd59");
    (10, "c8467695642e3d8b1ebd99af6c28c979");
    (11, "3925ff9d3d18860118c72d05c5086c9a");
    (12, "aab9cda6ac595a9751b6d9af8e4ac52c");
    (13, "c9fa7e9d926c31ee571a9a580d3339e6");
    (14, "0377c0752acc44b6f4ed09be2d76d800");
    (15, "c5418bc34addbc691b15ba7fab2ecad7");
    (16, "fe9865f261bd479b0ef16a38e07ea27a");
    (17, "0934a5c7b2434d6db56f5eb29ab8da99");
    (18, "978d73f0f1979d2850195b356997ab70");
    (19, "291afaae037e50850db2c47a5f7fb752");
    (20, "6f20802c9e3fcccc50eb960d9fbe3411");
    (21, "483877c9e55e97541604a9e621a3926c");
    (22, "b715cdcfac333eaa4c53e40e2e45509f");
    (23, "ac27870ec27d2e3673a842ecb4900680");
    (24, "2ee3daf62234535ffabb73c149f2aae8");
    (25, "4262b78c0c9c29bf144d4927b153617e");
    (27, "ff33ae0a4419cc2f8883843ce7afe643");
    (29, "6a2d3594ffd5c3365e8ebd72db428853");
    (30, "1d98f806e8e5b2f88c95c8b67ab2f269");
    (31, "bcc0fac3eb331a0337622497bdb7775f");
    (32, "c7c2a1106c624a76008897aa337195a2");
    (33, "6c44471f612a24531860e8666373c85f");
    (34, "001c649d5c58e07f368fee1486f41f5e");
    (35, "f0e2b3baf8c8bd3d8fb4e763064f0e8b");
    (36, "71699bb6babdc676a5c365b9a5567e14");
    (37, "f0d34d5c83bd2dda45f22642190eb384");
    (38, "d8daaa80d3e25630a0e163f441483285");
    (39, "1e616867121184872c2c71900f033348");
    (40, "bdef47e43f100e9df652af4415304d1f");
    (41, "5bef8b816241defd9a776b3c2c210e2d");
    (42, "cc050292ea4b0519773e05efeb37d688");
    (43, "ed4897953893fd8e6faa9d33f4c37e1e");
    (44, "8b36c6150f3476f1652f7c74353d2a27");
    (45, "cce8061b31c8f8a47dabe6d23ef86b29");
    (46, "217cbfdccb8d3c23dc0c00b2df2ec6f7");
    (47, "82d2cc37260d48e9f4da3f545b57b66b");
    (48, "967c68a67106a52e8f07b02edf05ec75");
    (49, "1386b1288cfa774b7cfc374aca7b2e4f");
    (50, "4d1a15bee1ca2dde37a3588743f412a3");
    (52, "dabd0bce283d5c282f670af2ed26eeb7");
    (54, "3f31eb448c7b8ee0ca99180e8c46d6f4");
    (56, "9c4063cf614fbfd1957da892ebe4efcf");
    (58, "0e20ff42462bb1f4238bb2a61d5e8121");
    (59, "b89a4aa63fe885d0b366ccdbe6edaa98");
    (60, "410787fd5657ccaee9bcaef382f0a9cb");
    (61, "1a14c78b62c86581f5edf94928592e7f");
    (62, "f7acbbb3877724870974655913d7fdc8");
    (63, "013d8a96e7a457930cc82d5f65d8e3fb");
  ]

let suite =
  [
    ( "dispatch.trapping",
      [
        test "the generated cases cover every setting" (fun () ->
            let cs = List.map (fun (s, _) -> case_of_seed s) pinned in
            let some f = List.exists f cs in
            let _, unsafe, _ = Lazy.force mix in
            Alcotest.(check bool) "some Mutate kind applies" true (unsafe <> []);
            List.iter
              (fun (what, ok) -> Alcotest.(check bool) what true ok)
              [
                ("an unsafe allocation", some (fun c -> c.unsafe <> None));
                ("a storm", some (fun c -> c.storms > 0));
                ("the watchdog on", some (fun c -> c.watchdog));
                ("the watchdog off", some (fun c -> not c.watchdog));
                ("shedding on", some (fun c -> c.shed <> None));
                ("shedding off", some (fun c -> c.shed = None));
                ( "Poisson arrivals",
                  some (fun c ->
                      List.exists
                        (fun s ->
                          match s.Workload.arrival with
                          | Workload.Poisson _ -> true
                          | _ -> false)
                        c.specs) );
                ( "Bursty arrivals",
                  some (fun c ->
                      List.exists
                        (fun s ->
                          match s.Workload.arrival with
                          | Workload.Bursty _ -> true
                          | _ -> false)
                        c.specs) );
              ]);
        test "armed runs that trap keep their digests" (fun () ->
            List.iter
              (fun (seed, want) ->
                let m = run_case ~seed (case_of_seed seed) in
                Alcotest.(check bool) (Fmt.str "seed %d traps" seed) true
                  (trapped m);
                Alcotest.(check string)
                  (Fmt.str "seed %d digest" seed)
                  want
                  (md5 (Metrics.to_json m)))
              pinned);
      ] );
  ]
