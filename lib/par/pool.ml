(* A fixed-size work-stealing domain pool with deterministic,
   task-indexed results.

   Tasks [0, n) are dealt out as contiguous per-worker blocks, and each
   block is a per-worker deque: the owner pops from the bottom ([lo]),
   an idle worker steals from the top ([hi - 1]). Because this pool never
   spawns tasks mid-run, a deque is always a contiguous index range
   [lo, hi), so a mutex per deque — held for a couple of int updates —
   keeps both ends consistent; contention is one brief lock per task
   transfer, not a central run-list lock on every scheduler operation
   (the libgomp bottleneck the laser runtime notes call out). A worker
   exits after its own deque and a full victim scan come up empty,
   which is stable precisely because nothing is ever pushed.

   Determinism argument: scheduling decides only *who* runs a task,
   never *what* it computes — slot [i] of the result array is written
   exactly once, by whichever worker executed task [i], and every
   worker domain is joined before the array is read, so the caller
   observes a fully written array regardless of interleaving.
   Exceptions are captured per task and re-raised in the caller, lowest
   task index first. A pure task function therefore produces the same
   array at any [jobs] count; a failing run fails identically too.

   Domains are spawned per {!tasks} call rather than parked between
   calls: the tasks this repo fans out (whole traffic runs and shards,
   allocations, fuzz inputs batched by the caller) cost milliseconds to
   minutes, so
   a few hundred microseconds of spawn cost disappears, and there is no
   pool lifecycle to leak or deadlock. *)

type t = { n_jobs : int; steals : int Atomic.t }

let create ?(jobs = 1) () =
  if jobs < 1 then Fmt.invalid_arg "Pool.create: jobs must be >= 1 (got %d)" jobs;
  { n_jobs = jobs; steals = Atomic.make 0 }

let sequential = { n_jobs = 1; steals = Atomic.make 0 }

let jobs t = t.n_jobs
let steal_count t = Atomic.get t.steals

(* The contiguous block deal: worker [k] of [w] owns
   [k*n/w, (k+1)*n/w) — every task dealt, blocks within one task of
   equal size. *)
let block_lo ~n ~w k = k * n / w
let block_hi ~n ~w k = (k + 1) * n / w

type deque = { lock : Mutex.t; mutable lo : int; mutable hi : int }

let pop_own d =
  Mutex.lock d.lock;
  let r =
    if d.lo < d.hi then begin
      let i = d.lo in
      d.lo <- i + 1;
      Some i
    end
    else None
  in
  Mutex.unlock d.lock;
  r

let pop_steal d =
  Mutex.lock d.lock;
  let r =
    if d.lo < d.hi then begin
      let i = d.hi - 1 in
      d.hi <- i;
      Some i
    end
    else None
  in
  Mutex.unlock d.lock;
  r

let tasks t n f =
  if n < 0 then Fmt.invalid_arg "Pool.tasks: negative task count %d" n;
  let results = Array.make n None in
  let run i =
    results.(i) <- Some (match f i with v -> Ok v | exception e -> Error e)
  in
  let w = min t.n_jobs n in
  if w <= 1 then
    for i = 0 to n - 1 do
      run i
    done
  else begin
    let deques =
      Array.init w (fun k ->
          { lock = Mutex.create (); lo = block_lo ~n ~w k; hi = block_hi ~n ~w k })
    in
    let worker k () =
      let continue = ref true in
      while !continue do
        match pop_own deques.(k) with
        | Some i -> run i
        | None ->
          (* own deque dry: scan victims starting at the right-hand
             neighbour; a full empty scan means no task remains
             anywhere, so the worker can exit *)
          let found = ref None in
          let v = ref 1 in
          while !found = None && !v < w do
            (match pop_steal deques.((k + !v) mod w) with
            | Some i -> found := Some i
            | None -> ());
            incr v
          done;
          (match !found with
          | Some i ->
            Atomic.incr t.steals;
            run i
          | None -> continue := false)
      done
    in
    (* the caller's domain is worker number zero *)
    let spawned = Array.init (w - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    worker 0 ();
    Array.iter Domain.join spawned
  end;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false (* every index < n is claimed exactly once *))
    results

let map_list t f xs =
  let xs = Array.of_list xs in
  Array.to_list (tasks t (Array.length xs) (fun i -> f xs.(i)))
