(** The chip-scale scenario matrix behind [bench chip] and [npra chip].

    Cells (all on the tiered scratch/SRAM/SDRAM hierarchy
    {!chip_machine_config}):

    - ["shard"] — a sharded, saturated four-kernel run executed twice
      from identical seeds, fixed-partition vs balanced allocation;
      passes iff both chip folds conserve packets exactly, the full run
      offers at least {!shard_cell.sc_min_offered} packets, and the
      balanced allocation serves at least as many critical-thread
      packets as the fixed one.
    - ["shard-chaos"] — a smaller sharded run with per-shard fault
      schedules and shedding; passes iff conservation survives the
      fold.
    - ["chain-<family>"] — one rx → classify → tx chain per registry
      chain family; passes iff conservation holds, the end-to-end p99
      meets the SLO and no boundary queue ever exceeded its capacity.

    Cells run sequentially (parallelism lives inside each cell), so the
    matrix is a pure function of (seed, quick) at any worker count. *)

open Npra_sim

val chip_machine_config : Machine.config
(** {!Machine.default_config} with the chip's tiers (scratch\[0,256) @ 6,
    SRAM up to word 2048 @ 20, SDRAM @ 45) and an unbounded horizon. *)

type shard_cell = {
  sc_name : string;
  sc_mix : string list;
  sc_critical : int;  (** index into [sc_mix] of the critical thread *)
  sc_fixed : Shard.t;
  sc_balanced : Shard.t;
  sc_min_offered : int;
  sc_ok : bool;
}

type chaos_cell = { cc_name : string; cc_run : Shard.t; cc_ok : bool }
type chain_cell = { nc_name : string; nc_chain : Chain.t; nc_ok : bool }

type cell =
  | Shard_cell of shard_cell
  | Chaos_cell of chaos_cell
  | Chain_cell of chain_cell

val cell_ok : cell -> bool

type matrix = { m_seed : int; m_quick : bool; m_cells : cell list }

val scenario_names : quick:bool -> string list

val run_scenario :
  ?pool:Npra_par.Pool.t -> ?seed:int -> ?quick:bool -> string -> cell option
(** One cell by name; [None] for an unknown name. [pool] runs the
    shards of the shard cells; a chain cell runs in the calling
    domain. *)

val run : ?pool:Npra_par.Pool.t -> ?seed:int -> ?quick:bool -> unit -> matrix
(** The whole matrix (seed defaults to 42). *)

val cell_json : cell -> Npra_core.Json.t
val pp_cell : cell Fmt.t
val to_json : matrix -> Npra_core.Json.t
(** The BENCH_chip.json payload, without its wall_clock member. *)

val pp : matrix Fmt.t
