(** Compiled execution plans.

    A {!Nsc_diagram.Semantic.t} is one machine instruction replayed over
    long vector streams, so everything static about it — operand bindings,
    switch routes, chain predecessors, topological order, DMA transfers,
    the timing analysis — is resolved once at compile time into an
    immutable, int-indexed plan.  A plan is a compile stage, not an
    executor: {!Kernel.compile} lowers its dense body to fused loops, and
    plans without one run on the general evaluator with the cached
    analysis. *)

open Nsc_arch
open Nsc_diagram
open Nsc_checker

(** Where a functional-unit operand comes from, resolved to plan indices. *)
type operand =
  | Zero                      (** unbound / unrouted: streams zeros *)
  | Const of float
  | Unit of int               (** same-element output of plan unit [k] *)
  | Self of int               (** own output [n] elements back, [n >= 1] *)
  | Stream of int             (** element [e] of prefetched read stream *)
  | Stream_at of int * int    (** read stream at [e + offset] (shift/delay) *)

type unit_plan = {
  fu : Resource.fu_id;
  op : Opcode.t;
  binary : bool;
  a : operand;
  b : operand;
}

type read_stream = { src : Resource.source; transfer : Dma.transfer; count : int }

type write_source =
  | W_unit of int
  | W_live of { transfer : Dma.transfer; count : int; offset : int }
      (** element-by-element live re-read of a DMA stream at write time *)
  | W_zero

type write_stream = { wsrc : write_source; transfer : Dma.transfer; count : int }

(** Dense executable body: units in topological order. *)
type fast = {
  units : unit_plan array;
  reads : read_stream array;
  writes : write_stream array;
  order_of_sem : int array;
      (** plan position of each unit of [sem.units], in original order *)
}

type t = {
  sem : Semantic.t;
  vlen : int;
  analysis : Timing.t;  (** computed exactly once, at compile time *)
  cycles : int;         (** {!Timing.estimated_cycles} at [vlen], cached *)
  flops : int;
  honor_timing : bool;
  fast : fast option;   (** [None]: fall back to the general evaluator *)
}

(** Lower a semantic pipeline to an execution plan.  Runs
    {!Nsc_checker.Timing.analyse} exactly once. *)
val compile : Params.t -> ?honor_timing:bool -> Semantic.t -> t

(** {2 Counters}

    Always-on [plan.compiles]: a process-wide total that counts whether
    or not a metric context is enabled (and counts into the ambient
    context when it is). *)

val c_compiles : Nsc_metrics.Metrics.counter

val compile_count : unit -> int
(** [Metrics.total c_compiles]. *)

(** {2 nscbench compatibility — delete when nscbench moves to [Run.t]}

    A stand-in for a stand-alone plan cache, kept only for nscbench's
    per-layer spans: it holds nothing, and {!cached} is {!compile}.
    Nothing in the library, the CLI, the bench or the tests calls these;
    kernels are held by their prepared instructions
    ({!Kernel.of_instr}). *)

type cache

val make_cache : ?bound:int -> unit -> cache
val cached : cache -> Params.t -> ?honor_timing:bool -> Semantic.t -> t

val cache_hit_count : unit -> int
(** Kernel replays ([kernel.cache_hits], counted by {!Kernel.of_instr}). *)
