(** Execution of one pipeline instruction on a node.

    The engine combines a per-element functional dataflow evaluation (exact
    numerics, including register-file feedback queues and shift/delay
    streams) with a pipeline-accurate analytic timing model (fill to the
    critical-path depth, then one element per cycle degraded by memory-plane
    port contention — see {!Nsc_checker.Timing.estimated_cycles}).

    When [honor_timing] is set (the default), misaligned operand streams are
    paired exactly as the synchronous hardware would pair them — element
    [e] of the late stream meets element [e + skew] of the early one — so a
    diagram with a missing delay queue computes visibly wrong results, which
    is what the paper's proposed visual debugger is for.

    Two evaluators implement this: {!run_general}, the memoized reference
    that serves as the oracle, and {!run_kernel}, the fused fast path for
    aligned, acyclic pipelines, which falls back to the reference for
    everything else.  Both model an injected functional-unit fault the
    same way: the victim's output latch reads NaN at its write sinks, in
    [last_values] and in the trace, while consumers in the same
    instruction have already latched the clean value.

    Every entry point takes an optional [?run] ({!Run.t}): the fault
    model it carries is consulted twice per instruction (the FU draw and
    the stream overhead) and its budget is polled; without one the
    instruction runs clean and unsupervised.  Instrumentation lands in
    the calling domain's ambient metric context; scope it with
    {!Nsc_metrics.Metrics.with_ctx}. *)

(** Recorded values of every engaged unit at every element, kept for the
    visual debugger's annotated diagrams (only when [record_trace] was
    passed — recording costs a hashtable write per unit-element). *)
type trace = {
  unit_values : (Nsc_arch.Resource.fu_id * int, float) Hashtbl.t;
      (** value each functional unit produced for each element index *)
  vlen : int;  (** the instruction's vector length *)
}

(** The value unit [fu] produced at [element], if the trace covers it. *)
val trace_value :
  trace -> fu:Nsc_arch.Resource.fu_id -> element:int -> float option

(** Outcome of one executed pipeline instruction. *)
type result = {
  cycles : int;  (** analytic cycle estimate: fill + streaming + stalls *)
  flops : int;   (** floating-point operations across engaged units *)
  elements : int;  (** vector elements processed (the vector length) *)
  writes : int;  (** words written to memory planes and caches *)
  events : Nsc_arch.Interrupt.event list;
      (** interrupts raised, earliest first, capped at
          {!max_recorded_events} *)
  last_values : (Nsc_arch.Resource.fu_id * float) list;
      (** final output of every engaged unit — the scalars condition
          interrupts capture *)
  trace : trace option;  (** per-element values when requested *)
}

(** Cap on the interrupt events retained in a {!result}. *)
val max_recorded_events : int

(** The general memoized evaluator: the reference every other path is
    checked against.  [analysis] supplies a precomputed timing analysis
    (from a compiled plan) so none is recomputed here.  The run's budget
    is polled every 1024 elements while the write streams drain and while
    the remaining units are evaluated, so a wall
    deadline or a cancellation unwinds with
    [Nsc_guard.Guard.Budget.Deadline_exceeded] mid-instruction; memory
    the instruction already wrote stays written. *)
val run_general :
  Node.t ->
  ?record_trace:bool ->
  ?honor_timing:bool ->
  ?analysis:Nsc_checker.Timing.t ->
  ?run:Run.t -> Nsc_diagram.Semantic.t -> result

(** Execute a fused {!Kernel.t}, the single fast path: buffers drawn from
    the domain-local {!Kernel.acquire} pool, read streams gathered with
    Bigarray-direct bulk transfers, a blocked element loop through
    compile-time-specialised {!Kernel.step} closures (no opcode dispatch
    in the hot path) with the non-finite trap pre-scan fused into the
    compute pass, and one bulk transfer per write sink.  Kernels without
    a fused body fall back to the general evaluator.  Memory, values,
    cycles and the interrupt events (as a set) are bit-identical to
    {!run_general}, clean and under seeded faults (property-tested).
    The run's budget is polled at every kernel block boundary, so a wall
    deadline or a cancellation unwinds with
    [Nsc_guard.Guard.Budget.Deadline_exceeded] mid-instruction (pooled
    buffers are released on the way out). *)
val run_kernel :
  Node.t ->
  ?record_trace:bool ->
  ?run:Run.t ->
  Kernel.t ->
  result

(** Execute one pipeline instruction: compile a plan, lower it to a fused
    kernel, run it.  Callers replaying an instruction should use a
    {!Kernel.cache} and {!run_kernel}. *)
val run :
  Node.t ->
  ?record_trace:bool ->
  ?honor_timing:bool ->
  ?run:Run.t -> Nsc_diagram.Semantic.t -> result

