(** The paper's three interference graphs (§3.2) as an explicit view
    over {!Context}: the global graph (GIG), the boundary graph (BIG),
    and the per-NSR internal graphs (IIGs). *)

open Npra_ir

type node = {
  vreg : Reg.t;
  boundary : bool;
  region : int option;  (** internal nodes: their non-switch region *)
}

type t

val build : Prog.t -> t
(** The program should be in web form ({!Npra_cfg.Webs.rename}). *)

val nodes : t -> node list
val internal_nodes : t -> node list
(** The IIG of region [r] is the internal nodes whose [region] is
    [Some r]. *)

val gig_edges : t -> (Reg.t * Reg.t) list
val big_edges : t -> (Reg.t * Reg.t) list

val gig_degree : t -> Reg.t -> int
(** Degree in the GIG, answered from the adjacency bit-matrix. *)

val interferes : t -> Reg.t -> Reg.t -> bool
(** O(1) bit-matrix membership query on the GIG; [false] for registers
    that do not occur in the program. *)

val boundary_interferes : t -> Reg.t -> Reg.t -> bool
(** O(1) bit-matrix membership query on the BIG. *)

val stats : t -> int * int * int * int
(** (nodes, boundary nodes, GIG edges, BIG edges). *)
