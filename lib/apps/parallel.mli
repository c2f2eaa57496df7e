(** Multi-node Jacobi: slab decomposition over the hypercube.

    The paper quotes the machine-level figures — 64 nodes, 40 GFLOPS — and
    leaves multi-node programming to "techniques similar to those used in
    Poker".  This module supplies the experiment: the global cube is cut
    into z-slabs, one per node, embedded on the hypercube with a Gray code
    so slab neighbours are single-hop neighbours; each iteration every node
    runs its local sweep and refresh, then exchanges one face (n² words)
    with each neighbour through the hyperspace router. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type point = {
  nodes : int;
  gflops : float;
  efficiency : float;
  comm_fraction : float;
  overlap_ratio : float;
  contention_per_iter : float;
      (** aggregate queueing surplus per iteration ([router.contention_cycles]
          over the iterations), summed over all source nodes: it never
          enters machine time and can exceed [cycles_per_iter] *)
  cycles_per_iter : float;
}
val local_grid : n:int -> nz_local:int -> Grid.t
val slab_mask : Grid.t -> first:bool -> last:bool -> float array
val layer_base : Grid.t -> k:int -> int
(** Interior share of a sweep's cycles — the portion that can legally
    overlap an in-flight halo exchange ((nz - 2) / nz of the slab's
    layers read no halo). *)
val interior_credit : nz_local:int -> int -> int
(** One machine step of a prepared program: every node, in node order,
    executes it into its own scratch, [scratches.(id)] for node [id], and
    the machine advances by the slowest node.  Every node executes under
    [run].  Returns [Error "node I: ..."] for the first node, in node
    order, whose run failed.  Raises [Invalid_argument] unless there is one
    scratch per node. *)
val exec_step :
  run:Nsc_sim.Run.t ->
  Nsc_sim.Multinode.t ->
  Nsc_sim.Sequencer.prepared ->
  Nsc_sim.Sequencer.scratch array ->
  (unit, string) result
(** Every runner below runs its nodes in node order on the calling
    domain.  [overlap] posts each iteration's halo exchange
    asynchronously and completes it behind the next sweep's interior
    layers — machine time per step becomes [max (compute, comm)] — with
    residuals and delivered payloads bit-identical to the synchronous
    schedule.  Each runner decodes its program once, compiles each of its kernels once
    for all nodes, and shares one run — its fault model — across all
    nodes, and the machine costs its messages under the same model
    ([run]'s default: clean); a node whose run fails fails the runner
    with that node's error.  A model with a [mem-corrupt] clause is
    refused with [Error]: no node sweep draws it (only
    {!Jacobi.solve_ft} does), so the run would look clean. *)
val run_machine :
  ?overlap:bool ->
  ?run:Nsc_sim.Run.t ->
  Nsc_arch.Params.t ->
  n:int ->
  iters:int ->
  dim:int ->
  (point * Nsc_sim.Multinode.t * Jacobi.build * Grid.t,
   string)
  result
(** Fixed-iteration weak-scaling run; returns the scaling point. *)
val run :
  ?overlap:bool ->
  ?run:Nsc_sim.Run.t ->
  Nsc_arch.Params.t ->
  n:int -> iters:int -> dim:int -> (point, string) result
(** Like {!run} but returns the assembled global field, for verifying
    the decomposition against a single-machine iteration (and the
    overlapped schedule against the synchronous one). *)
val run_field :
  ?overlap:bool ->
  ?run:Nsc_sim.Run.t ->
  Nsc_arch.Params.t ->
  n:int -> iters:int -> dim:int -> (float array, string) result
(** Weak-scaling sweep over hypercube dimensions, efficiency relative to
    one node. *)
val scaling :
  ?overlap:bool ->
  ?run:Nsc_sim.Run.t ->
  Nsc_arch.Params.t ->
  n:int -> iters:int -> dims:int list -> (point list, string) result
(** Hypercube recursive-doubling all-reduce (maximum) of one scalar per
    node, reduced in place: on return every slot holds the global
    maximum, which is returned.  Charges the machine the router time of
    the stage chain. *)
val allreduce_max : Nsc_sim.Multinode.t -> float array -> float
type solve_outcome = {
  iterations : int;
  final_residual : float;
  point : point;
}
(** Iterate to global convergence: local sweeps, halo exchange, and an
    all-reduced residual check per iteration. *)
val solve :
  ?run:Nsc_sim.Run.t ->
  Nsc_arch.Params.t ->
  n:int ->
  tol:float -> max_iters:int -> dim:int -> (solve_outcome, string) result
