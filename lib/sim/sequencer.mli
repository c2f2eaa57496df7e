(** The central sequencer: high-level control flow over the pipelines.

    "A central sequencer provides high-level control flow ... An elaborate
    interrupt scheme is used to signal pipeline completions, evaluate
    conditional expressions, and trap exceptions."  The sequencer executes
    the compiled control programme, dispatching one microinstruction per
    [Exec], charging a reconfiguration cost between instructions, and
    branching on condition interrupts computed from captured unit scalars. *)

(** Whole-run accounting accumulated across dispatched instructions. *)
type stats = {
  instructions_executed : int;
  total_cycles : int;  (** execution plus per-dispatch reconfiguration *)
  total_flops : int;
  total_writes : int;  (** words written to planes and caches *)
  events : Nsc_arch.Interrupt.event list;
      (** capped at {!max_recorded_events}; earliest first *)
}

(** Result of a completed run. *)
type outcome = {
  stats : stats;
  halted : bool;  (** an explicit [Halt] was reached *)
  last_values : (Nsc_arch.Resource.fu_id * float) list;
      (** captured scalars at the end of the run *)
}

(** Raised internally to unwind the control interpreter at a [Halt] or an
    execution error; never escapes {!exec}. *)
exception Halted

(** Cap on the interrupt events retained in {!stats}. *)
val max_recorded_events : int

(** A program made ready to run: its instruction table, decoded once, and
    its control programme.  Immutable, so one value may be executed on
    any number of nodes, repeatedly and from several domains at once;
    the semantics it holds are physically shared across those runs. *)
type prepared

(** Decode each instruction word once (default) or take the retained
    semantics ([~from_microcode:false], useful to isolate decoder
    faults).  The first word that fails to decode is reported as
    [Error "instruction N: ..."]. *)
val prepare :
  ?from_microcode:bool -> Nsc_microcode.Codegen.compiled -> (prepared, string) result

(** Execute a prepared program on a node: interpret the control
    programme (Exec/Repeat/While/Halt), charge reconfiguration between
    instructions, and evaluate while-conditions from captured scalars.
    [on_instruction] is the hook the visual debugger attaches to.

    [run] is the run state ({!Run.t}; default: a fresh cache, clean,
    unsupervised, as for {!run}).  Each [Exec] runs through a compiled execution plan
    lowered to a fused vector kernel (the default [`Kernel] engine);
    repeated [Exec]s of the same instruction reuse the kernel from the
    run's compile cache (pass a run over a persistent cache to also
    reuse it across runs).  [~engine:`Reference] runs every instruction
    on the general memoized evaluator, the oracle; the two engines are
    bit-identical.  The run's fault model, if any, injects into every
    instruction.

    The run's budget arms cooperative supervision: each dispatch's
    cycles (plus reconfiguration) are charged to it and it is checked at
    every instruction boundary, so a run whose budget expires unwinds
    with [Nsc_guard.Guard.Budget.Deadline_exceeded] instead of running
    on.  Both engines also poll a wall deadline or a cancellation inside
    an instruction, every 1024 elements.  Instrumentation lands in the
    ambient metric context; scope it with
    {!Nsc_metrics.Metrics.with_ctx}. *)
val exec :
  Node.t ->
  ?record_trace:bool ->
  ?engine:[ `Kernel | `Reference ] ->
  ?run:Run.t ->
  ?on_instruction:(Nsc_diagram.Semantic.t -> Engine.result -> unit) ->
  prepared -> (outcome, string) result

(** Execute a compiled program: {!prepare} followed by {!exec}.  A caller
    that runs one program many times (on many nodes, or once per
    iteration) prepares it once and calls {!exec} instead.

    [plan_cache] and [kernel_cache] are nscbench compatibility — delete
    when nscbench moves to [Run.t]; nothing else passes them.  Without
    [run], [plan_cache] is ignored and [kernel_cache] makes the run: over
    that cache, under the model in {!Nsc_fault.Fault}'s compat slot. *)
val run :
  Node.t ->
  ?from_microcode:bool ->
  ?record_trace:bool ->
  ?engine:[ `Kernel | `Reference ] ->
  ?run:Run.t ->
  ?plan_cache:Plan.cache ->
  ?kernel_cache:Kernel.cache ->
  ?on_instruction:(Nsc_diagram.Semantic.t -> Engine.result -> unit) ->
  Nsc_microcode.Codegen.compiled -> (outcome, string) result
