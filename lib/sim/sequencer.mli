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
      (** captured scalars at the end of the run, one per unit that
          captured any, in unit order ([compare] on the ids) *)
}

(** Raised internally to unwind the control interpreter at a [Halt] or an
    execution error; never escapes {!exec_into}. *)
exception Halted

(** Cap on the interrupt events retained in {!stats}. *)
val max_recorded_events : int

(** A program made ready to run: its instruction table, decoded once,
    and its control programme.  One value may be executed on any number
    of nodes, repeatedly and from several domains at once; the semantics
    it holds, and the kernel each instruction compiles on its first
    dispatch, are shared across those runs.  Defined beside the compile
    cache, whose program table holds it. *)
type prepared = Kernel.prepared

(** Decode each instruction word once (default) or take the retained
    semantics ([~from_microcode:false], useful to isolate decoder
    faults).  The first word that fails to decode is reported as
    [Error "instruction N: ..."]. *)
val prepare :
  ?from_microcode:bool -> Nsc_microcode.Codegen.compiled -> (prepared, string) result

(** Check, encode and decode a visual program ({!Nsc_microcode.Codegen.compile},
    then {!prepare}): the one road from a builder's program to a prepared
    one.  A program the checker rejects is [Error] with
    {!Nsc_checker.Diagnostic.error_summary} of its diagnostics; a word
    that fails to decode, as for {!prepare}. *)
val of_program :
  Nsc_arch.Knowledge.t -> Nsc_diagram.Program.t -> (prepared, string) result

(** Caller-owned run state for {!exec_into}: the captured scalars, dense
    by global unit index ({!Nsc_arch.Resource.fu_global_index}), and the
    counters of one execution.  {!exec_into} resets it at its start, so
    one scratch serves any number of executions of programs laid out for
    the same machine; a caller running one program every iteration keeps
    one per node and allocates none per run. *)
type scratch = private {
  captured : float array;  (** [captured.(g)]: unit [g]'s last captured scalar *)
  seen : Bytes.t;  (** non-zero at [g] once unit [g] has captured one *)
  mutable executed : int;  (** instructions executed *)
  mutable cycles : int;  (** execution plus per-dispatch reconfiguration *)
  mutable flops : int;
  mutable writes : int;  (** words written to planes and caches *)
  mutable events : Nsc_arch.Interrupt.event list;
      (** capped at {!max_recorded_events}; newest first *)
  mutable n_events : int;
  mutable halted : bool;  (** an explicit [Halt] was reached *)
  mutable error : string option;  (** why the last execution failed *)
}

(** A fresh scratch sized for the machine [prepared] was laid out for. *)
val scratch : prepared -> scratch

(** Unit [g]'s scalar captured by the last execution into the scratch,
    or [default] when it captured none. *)
val captured : scratch -> int -> default:float -> float

(** Execute a prepared program on a node into a caller-owned scratch:
    interpret the control programme (Exec/Repeat/While/Halt), charge
    reconfiguration between instructions, and evaluate while-conditions
    from captured scalars.  [on_instruction] is the hook the visual
    debugger attaches to.  Returns [Error] (also left in the scratch's
    [error]) when the control programme references a missing
    instruction; raises [Invalid_argument] on a scratch sized for a
    machine with another number of units.

    [run] is the run state ({!Run.t}; default: clean, unsupervised).
    Each [Exec] runs through the instruction's compiled kernel (the
    default [`Kernel] engine, {!Kernel.compile}), held by the
    instruction ({!Kernel.of_instr}): its first dispatch compiles it,
    and every later [Exec] of it — in this run or any later run of the
    same prepared program — replays it.  [~engine:`Reference] runs every instruction
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
val exec_into :
  Node.t ->
  ?record_trace:bool ->
  ?engine:[ `Kernel | `Reference ] ->
  ?run:Run.t ->
  ?on_instruction:(Nsc_diagram.Semantic.t -> Engine.result -> unit) ->
  prepared -> scratch -> (unit, string) result

(** {!exec_into} a fresh scratch and read it back as an {!outcome}. *)
val exec :
  Node.t ->
  ?record_trace:bool ->
  ?engine:[ `Kernel | `Reference ] ->
  ?run:Run.t ->
  ?on_instruction:(Nsc_diagram.Semantic.t -> Engine.result -> unit) ->
  prepared -> (outcome, string) result

(** Execute a compiled program: {!prepare} followed by {!exec}, so each
    instruction's kernel is compiled once per call.  A caller that runs
    one program many times (on many nodes, or once per iteration)
    prepares it once and calls {!exec} instead.

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

(** The run {!run} executes under, given its [run] and [kernel_cache]
    arguments: [run] when given; otherwise, with a [kernel_cache], a run
    over that cache under the model in {!Nsc_fault.Fault}'s compat slot;
    otherwise none (a fresh cache, clean).  nscbench compatibility —
    delete when nscbench moves to [Run.t]. *)
val compat_run : ?run:Run.t -> ?kernel_cache:Kernel.cache -> unit -> Run.t option
