(** Pipeline timing analysis.

    Vector operands must arrive at a functional unit in step; the NSC aligns
    them by routing the early stream "into a circular queue in a register
    file".  This module computes, for a semantic pipeline, when each
    operand arrives at each engaged unit, which binary units see misaligned
    operands (and by how much), the fill depth of the whole pipeline, and
    the delay corrections that would balance it — used both to report
    {!Diagnostic.Timing} errors and by the compiler to auto-balance
    generated diagrams. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type arrival = int option
type unit_timing = {
  fu : Nsc_arch.Resource.fu_id;
  arrival_a : arrival;
  arrival_b : arrival;
  ready : int;
  misaligned : int option;
}
type t = {
  units : unit_timing list;
  depth : int;
  cyclic : Nsc_arch.Resource.fu_id list;
}
val find_unit :
  Nsc_diagram.Semantic.t ->
  Nsc_arch.Resource.fu_id -> Nsc_diagram.Semantic.unit_program option
val sd_mode :
  Nsc_diagram.Semantic.t ->
  Nsc_arch.Resource.sd_id -> Nsc_arch.Shift_delay.mode option
(** The always-on [timing.analyses] counter: one per {!analyse} call —
    its [Metrics.total] asserts that plan compilation analyses each
    instruction exactly once. *)
val c_analyses : Nsc_metrics.Metrics.counter

(** Operand-arrival analysis of a semantic pipeline: when each stream
    reaches each engaged unit, which binary units see misaligned
    operands, the fill depth, and any combinational cycles. *)
val analyse : Nsc_arch.Params.t -> Nsc_diagram.Semantic.t -> t
(** Delay corrections that would balance every misaligned unit: the port
    whose operand arrives early and the extra queue depth needed. *)
val balancing_corrections :
  t -> (Nsc_arch.Resource.fu_id * Nsc_arch.Resource.port * int) list
(** Execution-cycle estimate: fill to depth, then one element per cycle
    scaled by the worst memory-plane port contention. *)
val estimated_cycles :
  Nsc_arch.Params.t -> Nsc_diagram.Semantic.t -> t -> vlen:int -> int
