(** A small fixed-size work-stealing pool over OCaml 5 domains.

    The pool exists to parallelise the repo's embarrassingly parallel
    hot loops — chip shards, fuzz inputs, fault-matrix kernels, the
    allocation contenders, the portfolio race's per-thread analysis and
    its entrants, whole traffic runs —
    without ever letting scheduling nondeterminism leak into results.

    Callers give the pool whole runs, never a slice of one: each
    {!tasks} call spawns its worker domains and joins them before it
    returns, so a call per simulated slice would pay that cost
    hundreds of times in one run. The dispatcher and the packet chain
    therefore advance their engines in the calling domain, and their
    callers fan out whole [Dispatch.run]s or shards. The contract
    that makes that possible: {!tasks} returns a {e task-indexed} array,
    so result [i] is always the value of task [i] no matter which worker
    ran it or in which order tasks finished. Any pure task function
    therefore yields byte-identical results at [jobs = 1] and
    [jobs = N].

    Work distribution starts from a contiguous block deal (worker [k]
    of [w] owns tasks [k*n/w, (k+1)*n/w)), and each block is a
    per-worker deque: the owner pops from the bottom, an idle worker
    steals the victim's {e top} task, so irregular task durations (whole
    chips vary wildly per shard) do not serialize on the unluckiest
    block. Stealing decides only {e who} runs a task — the task index
    still owns its result slot — which is why the byte-identical
    contract survives. [bench simspeed] times a shard matrix at jobs 1
    and jobs 2 and, on a host with two or more cores, requires the
    second to be no slower. *)

type t

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] workers (default 1). [jobs = 1] never spawns a
    domain: tasks run in the calling domain, in index order.
    @raise Invalid_argument if [jobs < 1]. *)

val sequential : t
(** The shared single-worker pool — the default everywhere a [?pool]
    argument is omitted, so existing call sites keep their exact
    sequential behaviour. *)

val jobs : t -> int

val steal_count : t -> int
(** Cumulative number of stolen task executions across every {!tasks}
    call on this pool — an observability counter, not part of any
    result contract (it genuinely varies with OS scheduling). Always 0
    for a single-worker pool. *)

val tasks : t -> int -> (int -> 'a) -> 'a array
(** [tasks pool n f] evaluates [f 0 .. f (n-1)] on the pool's workers
    and returns [[| f 0; ...; f (n-1) |]]. If any task raises, the
    exception of the {e lowest-indexed} failing task is re-raised in
    the caller after all workers have finished — deterministic even
    when several tasks fail. [f] must not depend on evaluation order
    across tasks. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f xs] is [List.map f xs] with the applications run
    as pool tasks; element order is preserved. *)
