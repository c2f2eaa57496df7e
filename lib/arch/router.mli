(** The hyperspace router and hypercube topology.

    Communication between nodes is handled by a hyperspace router; nodes are
    arranged in a hypercube.  This module provides the topology algebra —
    neighbours, dimension-ordered routes, Gray-code embeddings of process
    grids — used by the multi-node simulator. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type node_id = int
val pp_node_id :
  Format.formatter ->
  node_id -> unit
val show_node_id : node_id -> string
val equal_node_id : node_id -> node_id -> bool
val compare_node_id : node_id -> node_id -> int
val nodes_of_dim : int -> int
val dim_for_nodes : int -> int
val valid_node : dim:int -> int -> bool
val neighbours : dim:int -> int -> int list
val distance : int -> int -> int
val route : dim:int -> src:int -> dst:int -> int list

(** Shortest route using only links [link_ok] accepts, or [None] if the
    healthy sub-cube disconnects the pair. *)
val route_avoiding :
  dim:int -> src:int -> dst:int -> link_ok:(int -> int -> bool) -> int list option

(** Whether a route (excluding [src]) uses only links [link_ok] accepts. *)
val path_ok : link_ok:(int -> int -> bool) -> src:int -> int list -> bool

(** The dimension-ordered route when healthy, else the shortest adaptive
    detour; [Some (path, detoured)] or [None] when disconnected. *)
val route_fault_aware :
  dim:int -> src:int -> dst:int -> link_ok:(int -> int -> bool) ->
  (int list * bool) option
val gray : int -> int
val gray_inverse : int -> int
val chain_to_node : dim:int -> int -> int
val node_to_chain : dim:int -> int -> int
(** Serialised cost of a phase of [(src, dst, cycles)] transfers:
    distinct pairs proceed in parallel, transfers sharing a source queue
    on its links.  Returns [(phase_cycles, contention_cycles)]; pure —
    the caller books the contention on {!c_contention} if it traces. *)
val phase_cost : (node_id * node_id * int) list -> int * int

val transfer_cycles :
  Params.t -> src:int -> dst:int -> words:int -> int

(** [transfer_cycles] by explicit hop count — for fault-aware detours
    longer than the Hamming distance. *)
val transfer_cycles_hops : Params.t -> hops:int -> words:int -> int

(** The [router.contention_cycles] counter: an {e aggregate} — the
    queueing surplus of messages serialising on a shared source node,
    summed over all source nodes of each phase.  It never enters machine
    time (a phase costs its slowest source's serialised total), so it
    can exceed the simulated cycles of the run.  Bumped by the
    multi-node exchange. *)
val c_contention : Nsc_metrics.Metrics.counter
