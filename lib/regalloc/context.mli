(** Allocation context: the state the intra-thread allocator works on.

    A context partitions every live range (web) into {e segments}
    ("nodes"), each a set of gaps plus the context-switch crossings it
    owns, together with a colour per node. The representation is purely
    functional, so snapshotting a context for what-if exploration (the
    paper's saved invocation contexts) is free.

    Cost model: a move instruction materialises on every gap edge where a
    value changes segment into a segment of a different colour; adjacent
    same-colour segments cost nothing — the paper's "eliminate unnecessary
    moves" falls out of the cost function and of {!coalesce}. *)

open Npra_ir
open Npra_cfg
module IntSet = Points.IntSet

type node = private {
  id : int;
  vreg : Reg.t;
  gaps : IntSet.t;
  csbs : IntSet.t;  (** crossings owned: CSBs [c] with gap [c] in [gaps] *)
  color : int;  (** [0] = uncoloured; [1..PR] private, [PR+1..R] shared *)
}

type t

val create : Prog.t -> t
(** One node per live register, uncoloured. The program should be in web
    form ({!Npra_cfg.Webs.rename}). *)

val prog : t -> Prog.t
val points : t -> Points.t
val regions : t -> Nsr.t

val node : t -> int -> node
val nodes : t -> node list
val num_nodes : t -> int

val seg : t -> Reg.t -> int -> int option
(** [seg t v gap] is the id of the segment of [v] live at [gap]. *)

val is_boundary : node -> bool
(** A node owning at least one crossing must take a private colour. *)

val occupants : t -> int -> node list
(** Segments live at a gap. Two occupants of one gap interfere. *)

val neighbors : t -> node -> node list
(** All distinct segments sharing a gap with the node (GIG edges), plus
    move-hazard edges: a move materialised on a fallthrough edge
    [(p, p+1)] executes after instruction [p], so the segment receiving
    [p]'s definition interferes with every segment whose value that
    edge's moves still read. *)

val hazard_neighbors : t -> node -> node list
(** Just the move-hazard neighbours (see {!neighbors}). *)

val hazard_violations : t -> (node * node) list
(** All (definition segment, outgoing segment) pairs currently sharing a
    colour — clobber cases a colouring pass must repair. *)

val boundary_neighbors : t -> node -> node list
(** Segments crossing a CSB the node also crosses (BIG edges). *)

val neighbor_colors : t -> node -> IntSet.t

val set_color : t -> int -> int -> t

val carve : t -> int -> IntSet.t -> t * node
(** [carve t id sub] splits [sub] (strict non-empty subset of the node's
    gaps) out of node [id] into a fresh node keeping the original colour.
    Returns the new context and the new node. *)

val fragment : t -> int -> t * int list
(** Explodes a node into one singleton segment per gap; returns all
    resulting node ids (the original id keeps one gap). *)

val crossing_moves : t -> ((int * int) * Reg.t * node * node) list
(** All [(edge, vreg, src, dst)] where a value changes into a segment of a
    different colour — exactly the moves the rewriter will materialise. *)

val move_count : t -> int
(** The allocation cost: number of move instructions implied. *)

val coalesce : t -> t
(** Merges adjacent same-vreg same-colour segments. *)

val max_color : t -> int
val max_boundary_color : t -> int

val renumber : t -> (int -> int) -> t
(** Applies a colour permutation/compaction. *)

type check_error =
  | Uncolored of int
  | Color_out_of_range of int * int
  | Boundary_color_too_high of int * int
  | Clash_at_gap of int * int * int
  | Move_hazard_at_edge of int * int * int

val pp_check_error : check_error Fmt.t

val check : t -> pr:int -> r:int -> check_error list
(** Validates the colouring: every node coloured in [1..r], boundary nodes
    in [1..pr], no two co-live segments sharing a colour. *)

val pp : t Fmt.t
