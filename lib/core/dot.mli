(** Graphviz export: the control-flow graph clustered by non-switch
    region (the paper's Figure 4 view) and the global interference graph
    with boundary nodes and boundary interference highlighted (the
    Figure 5 view). *)

open Npra_ir

val cfg : Prog.t Fmt.t
val interference : Prog.t Fmt.t
(** The program should be in web form for a faithful Figure-5 view. *)
