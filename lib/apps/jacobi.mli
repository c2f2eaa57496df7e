(** The paper's programming example as an NSC visual program: the point
    Jacobi update for the 3-D Poisson equation with a residual convergence
    check (Equation 1, Figures 2 and 11).

    The program has three instructions:

    + {b setup} — g = h²·f, run once;
    + {b sweep} — unew = mask · (Σ neighbours − g)/6 over the whole grid,
      with the running maximum of |unew − u| accumulated through a
      register-file feedback loop on a min/max unit (the residual check);
    + {b refresh} — copy unew back over the planes holding u.

    Copies of u are spread over several memory planes so each plane serves
    at most two stencil streams — the paper's "maintain multiple copies of
    arrays" answer to the planar memory organisation; the refresh
    instruction is its "relocate them between phases".  A [`Packed] layout
    places more streams per plane to expose the contention cost, and a
    [`Ping_pong] strategy trades the refresh instruction for a second,
    mirrored sweep. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type layout = {
  sx : int;
  sy : int;
  sz : int;
  center : int;
  g : int;
  mask : int;
  unew : int;
  f : int;
}
val distributed : layout
val packed : layout
val u_planes : layout -> int list
val u_var : int -> string
type build = {
  program : Nsc_diagram.Program.t;
  residual_unit : Nsc_arch.Resource.fu_id;
  layout : layout;
}
(** Build the complete visual program for Equation 1: setup (g = h²f),
    the sweep with its running-max residual, and — under [`Refresh] —
    the copy-back instruction; [`Ping_pong] mirrors the sweep instead.
    Streams are auto-balanced. *)
val build :
  Nsc_arch.Knowledge.t ->
  ?layout:layout ->
  ?strategy:[< `Ping_pong | `Refresh > `Refresh ] ->
  Grid.t -> tol:float -> max_iters:int -> build

(** {2 Pieces red-black draws with}

    Red-black's half sweeps open with the same stencil head, and its
    program runs the same setup and refresh instructions. *)

(** Wire the stencil head onto two placed triplets [t0] and [t1]: u's
    six neighbours from [layout]'s planes, summed, minus g, out of [t1]'s
    last unit. *)
val stencil_head :
  Nsc_diagram.Pipeline.t ->
  Grid.t -> layout -> t0:Nsc_diagram.Icon.id -> t1:Nsc_diagram.Icon.id -> Nsc_diagram.Pipeline.t

(** The setup instruction: g = h²·f over the padded field. *)
val build_setup :
  Nsc_arch.Params.t -> Grid.t -> layout -> index:int -> Nsc_diagram.Pipeline.t

(** The refresh instruction: unew copied over every plane holding u. *)
val build_refresh :
  Nsc_arch.Params.t -> Grid.t -> layout -> index:int -> Nsc_diagram.Pipeline.t

val load : Nsc_sim.Node.t -> build -> Poisson.problem -> unit
val solution : Nsc_sim.Node.t -> build -> Grid.t -> float array
type outcome = {
  u : float array;
  sweeps : int;
  final_change : float;
  stats : Nsc_sim.Sequencer.stats;
}
(** Compile and execute the program for a problem on a fresh node.
    [engine] selects the simulator path (the fused kernel by default;
    [`Reference] runs the general memoized evaluator, the oracle — the
    two are bit-identical). *)
val solve :
  Nsc_arch.Knowledge.t ->
  ?layout:layout ->
  ?strategy:[< `Ping_pong | `Refresh > `Refresh ] ->
  ?engine:[ `Kernel | `Reference ] ->
  ?run:Nsc_sim.Run.t ->
  ?plan_cache:Nsc_sim.Plan.cache ->
  ?kernel_cache:Nsc_sim.Kernel.cache ->
  Poisson.problem ->
  tol:float -> max_iters:int -> (outcome, string) result
(** [run] is the solve's run state: a long-lived caller (the serve
    daemon, a bench loop) passes one over a persistent compile cache to
    reuse the checked, decoded program and its compiled kernels across
    solves: the cache's program table keeps every program that
    passed the checker, keyed by every input of {!build} (machine, grid,
    layout, strategy, [tol] by its bits, [max_iters]), so a repeated
    solve skips build, checker, encoder and decoder.  A program that
    fails the checker is never kept, and is diagnosed afresh on every
    call.  Without [run] (or [kernel_cache]) nothing is kept.  The run's
    fault model injects into every instruction, and its budget (a
    deadline/cancellation token checked at every sweep boundary) unwinds
    with [Nsc_guard.Guard.Budget.Deadline_exceeded].  [plan_cache] and
    [kernel_cache] are nscbench compatibility, as on
    {!Nsc_sim.Sequencer.run} — delete when nscbench moves to [Run.t]. *)

(** The two phases of a prepared [`Refresh] program, for a caller that
    drives the sweep loop itself ({!solve_ft}, {!Parallel}): the setup
    instruction alone, and one sweep with its refresh.  Each shares the
    program's instructions and their kernels. *)
val setup_phase : Nsc_sim.Sequencer.prepared -> Nsc_sim.Sequencer.prepared
val sweep_phase : Nsc_sim.Sequencer.prepared -> Nsc_sim.Sequencer.prepared

type ft_outcome = {
  outcome : outcome;
  rollbacks : int;        (** checkpoint restores performed *)
  faults_detected : int;  (** parity errors and trapped exceptions seen *)
}

(** Checkpointed [`Refresh] solve: each sweep runs against a checkpoint of
    the node, and a sweep whose parity scrub or interrupt stream reports
    corruption is rolled back and redone (up to [max_attempts] times per
    sweep).  With no faults firing this executes the exact instruction
    sequence of {!solve}, from one program decoded and compiled per
    call.  [run] carries the budget and the {!Nsc_fault.Fault} model
    (default: clean, unsupervised); under a model the per-sweep memory-corruption draw
    fires here, and detections, rollbacks and recoveries are booked on
    that model's own ledger — so faulted solves with their own models
    may run on several domains at once. *)
val solve_ft :
  Nsc_arch.Knowledge.t ->
  ?layout:layout ->
  ?max_attempts:int ->
  ?run:Nsc_sim.Run.t ->
  Poisson.problem ->
  tol:float -> max_iters:int -> (ft_outcome, string) result
