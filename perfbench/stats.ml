(* Sample statistics, host measurements and seed derivation shared by
   every workload. *)

let now = Unix.gettimeofday

(* CPU time of this process (user + system, microsecond resolution):
   what the benchmark's own work costs, free of the time the host's
   scheduler hands to other tenants. Timed phases run on one domain, so
   it is the single thread's time. *)
let cpu = Sys.time

(* Nearest-rank percentile of a non-empty sample. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.

(* Samples strictly above the [p]th percentile. *)
let beyond xs p =
  let v = percentile xs p in
  List.length (List.filter (fun x -> x > v) xs)

(* The tail of a run: the workload's design percentile — chosen so that
   at least ten samples lie beyond it at the workload's normal rate —
   with the number that actually do. The percentile is fixed rather than
   picked from the sample count, so a faster or slower host cannot turn
   a p75 into a p50. *)
let tail ~design xs = (percentile xs design, beyond xs design)

(* Derived seeds: a pure mix of (seed, stream, index) through the
   repo's xorshift, so every input of a run is a function of --seed. *)
let derive seed stream i =
  let open Npra_core.Rng in
  step (step (step (seed + 0x2545F491) lxor (stream * 7919)) + (i * 104729))
  land 0x3FFFFFFF
  |> fun x -> if x = 0 then 1 else x

type gc = { minor_words : float; minor : int; major : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; minor = s.Gc.minor_collections;
    major = s.Gc.major_collections }

let gc_delta a b =
  { minor_words = b.minor_words -. a.minor_words; minor = b.minor - a.minor;
    major = b.major - a.major }

(* Peak resident set of this process in MB (VmHWM), falling back to the
   OCaml heap's high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d" (fun kb -> Some (float_of_int kb /. 1024.))
          | _ -> scan ()
          | exception End_of_file -> None
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* Start every timed phase from the same state: an empty allocation
   cache and a compacted heap. *)
let quiesce () =
  Npra_core.Pipeline.cache_clear ();
  Gc.compact ()

(* ---- host-speed calibration ----

   The host is shared: other tenants on the same cores slow every
   instruction by up to half for tens of seconds at a time, which no
   amount of averaging inside one run removes. So each operation is
   preceded by a fixed reference computation that uses none of the
   repository's code — a map build, a sort and a small register-machine
   interpreter loop, the same mix of allocation, pointer chasing and
   array work as the allocator and the simulator — and each time is
   rescaled to a host on which the reference takes [reference_ms]. A
   change to the program moves the operations and not the reference; a
   change in host speed moves both. *)

module IM = Map.Make (Int)

let reference_work () =
  let x = ref 0x2545F491 in
  let next () =
    x := !x lxor (!x lsl 13) land 0x3FFFFFFF;
    x := !x lxor (!x lsr 17);
    x := !x lxor (!x lsl 5) land 0x3FFFFFFF;
    !x
  in
  let m = ref IM.empty in
  for i = 0 to 6000 do
    m := IM.add (next () land 0xFFFF) i !m
  done;
  let l = List.sort compare (IM.fold (fun k v acc -> (k lxor v) :: acc) !m []) in
  let regs = Array.make 128 0 in
  let code = Array.init 512 (fun _ -> next ()) in
  let pc = ref 0 in
  for _ = 1 to 300_000 do
    let ins = code.(!pc) in
    let d = ins land 127 and a = (ins lsr 7) land 127 and b = (ins lsr 14) land 127 in
    (match (ins lsr 21) land 3 with
    | 0 -> regs.(d) <- regs.(a) + regs.(b)
    | 1 -> regs.(d) <- regs.(a) lxor (regs.(b) lsl 1)
    | 2 -> if regs.(a) land 1 = 0 then pc := (!pc + b) land 511
    | _ -> regs.(d) <- regs.(a) - b);
    pc := (!pc + 1) land 511
  done;
  ignore (Sys.opaque_identity (List.length l + regs.(0)))

(* The reference's CPU time on a quiet Intel Xeon host (2 vCPUs) where
   this benchmark was built: the speed every time is rescaled to. *)
let reference_ms = 3.0

let reference_s () =
  let t0 = cpu () in
  reference_work ();
  cpu () -. t0

(* [times.(i)] rescaled by the median of the reference times around
   it ([refs.(i-2) .. refs.(i+2)]), so drift within a run is followed
   and one jittery reference sample does not move an operation. *)
let calibrate times refs =
  let n = Array.length times in
  Array.mapi
    (fun i t ->
      let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
      let local = median (Array.to_list (Array.sub refs lo (hi - lo + 1))) in
      t *. (reference_ms /. 1e3) /. local)
    times
