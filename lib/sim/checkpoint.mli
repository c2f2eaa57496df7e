(** Checkpoint/restore of a node's persistent state (planes and caches).

    Iterative solvers capture one at each converged sweep and roll back
    when the parity scrub or the interrupt stream reports corruption. *)

type t

(** Deep-copy the node's planes and caches. *)
val capture : Node.t -> t

(** Restore a checkpoint into the node (the caller books the rollback on
    its run's fault ledger); rejects a checkpoint of a differently-shaped
    node. *)
val restore : Node.t -> t -> unit

(** Every (plane, address) whose parity is currently bad; empty when
    healthy. *)
val scrub : Node.t -> (int * int) list
