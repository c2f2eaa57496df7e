(** Performance accounting: cycles to time, sustained versus peak rates.

    The paper's headline figures — 640 MFLOPS peak per node, 40 GFLOPS for
    a 64-node machine — are derived in {!Nsc_arch.Params}; this module turns
    simulated cycle/flop counts into comparable sustained numbers. *)

(** Seconds of machine time represented by [cycles] at the machine's
    clock rate. *)
val seconds : Nsc_arch.Params.t -> cycles:int -> float

(** Sustained MFLOPS over a run of [cycles] cycles performing [flops]
    floating-point operations. *)
val mflops : Nsc_arch.Params.t -> cycles:int -> flops:int -> float

(** Fraction of the node's peak rate the run sustained, in [0, 1]. *)
val utilization : Nsc_arch.Params.t -> cycles:int -> flops:int -> float

(** A run reduced to comparable sustained-rate figures. *)
type summary = {
  cycles : int;
  flops : int;
  seconds : float;      (** machine time at the configured clock *)
  mflops : float;       (** sustained rate *)
  utilization : float;  (** sustained / peak, in [0, 1] *)
}

(** Package raw cycle/flop counts into a {!summary}. *)
val summarize : Nsc_arch.Params.t -> cycles:int -> flops:int -> summary

(** {!summarize} applied to a sequencer run's totals. *)
val of_sequencer : Nsc_arch.Params.t -> Sequencer.stats -> summary

(** One-line rendering: cycles, flops, time, MFLOPS and percent of peak. *)
val summary_to_string : summary -> string

(** Host-side plan accounting (re-exported from {!Plan}): how often the
    simulator lowered a pipeline to a plan, and how often a cached plan
    was reused instead. *)

val plan_compiles : unit -> int
val plan_cache_hits : unit -> int
val reset_plan_counters : unit -> unit

(** Host-side kernel accounting (re-exported from {!Kernel}): how often
    a plan was lowered to a fused vector kernel, and how often a cached
    kernel was reused instead. *)

val kernel_compiles : unit -> int
val kernel_cache_hits : unit -> int

(** Kernel buffer-pool accounting (re-exported from {!Kernel}): acquires
    served from a domain-local free list versus fresh allocations. *)

val kernel_pool_hits : unit -> int
val kernel_pool_misses : unit -> int
val reset_kernel_counters : unit -> unit

val cache_evictions : unit -> int
(** LRU evictions across both bounded compilation caches
    ({!Plan.eviction_count} + {!Kernel.eviction_count}); reset by
    {!reset_plan_counters} and {!reset_kernel_counters} respectively. *)

(** {2 The trace instrument}

    Simulated-machine observability, re-exported from {!Nsc_trace.Trace}
    so simulation callers have one reporting entry point.  The schema is
    documented in [docs/OBSERVABILITY.md]. *)

(** Every registered trace counter as [(name, value, units)], sorted by
    name (zero-valued counters included). *)
val trace_counters : unit -> (string * int * string) list

(** The plain-text digest printed by [nscvp stats]. *)
val trace_summary : unit -> string

(** The instrument as a Chrome trace-event JSON document (Perfetto /
    [chrome://tracing] loadable). *)
val trace_to_chrome : unit -> string

(** {2 The fault ledger}

    Fault-injection accounting (re-exported from {!Nsc_fault.Fault}),
    live whether or not tracing is enabled.  See [docs/FAULTS.md]. *)

(** Every fault ledger cell as [(name, value)], sorted by name. *)
val fault_ledger : unit -> (string * int) list

(** Injected faults not yet claimed by recovery or reported
    unrecoverable; 0 at the end of a balanced run. *)
val fault_outstanding : unit -> int

(** Book any outstanding faults as unrecovered; returns the number. *)
val fault_reconcile : unit -> int

(** {2 The profile layer}

    The hotspot view over a metric context: where a run's cycles went,
    unit by unit, against the paper's per-node peak.  Populated by the
    engine's cycle attribution while tracing is enabled; surfaced by the
    [nscvp profile] subcommand.  Schema in [docs/OBSERVABILITY.md]. *)

(** One row of the hotspot table: a (instruction, functional unit) pair
    with its apportioned cycles and sustained rate. *)
type hotspot = {
  hs_instr : string;  (** instruction label, ["i<N>"] *)
  hs_unit : string;   (** functional unit and opcode, ["als0.u1:fadd"] *)
  hs_share_cycles : int;
      (** the instruction's cycles apportioned to this unit; rows sum to
          the run's [sim.cycles] *)
  hs_busy_cycles : int;  (** full engaged duration of the unit *)
  hs_flops : int;
  hs_mflops : float;   (** sustained over the unit's busy cycles *)
  hs_peak_pct : float; (** sustained as %% of per-node peak *)
  hs_cycle_pct : float;  (** share of all attributed cycles *)
}

(** The hotspot table of a context, ranked by apportioned cycles. *)
val hotspots : Nsc_arch.Params.t -> Nsc_metrics.Metrics.ctx -> hotspot list

(** Every non-empty latency histogram of a context with its summary. *)
val latency_histograms :
  Nsc_metrics.Metrics.ctx ->
  (Nsc_metrics.Metrics.histogram * Nsc_metrics.Metrics.hist_summary) list

(** The human-readable profile report: latency percentiles, the hotspot
    table (truncated to [top] rows, default 10), per-instruction totals
    and — for multi-node runs — the per-node utilization breakdown. *)
val profile_report :
  ?top:int -> Nsc_arch.Params.t -> Nsc_metrics.Metrics.ctx -> string

(** The machine-readable profile document.  Top-level members: [label],
    [clock_cycles], [peak_mflops_per_node], [latency], [hotspots],
    [instructions], [nodes], [counters]. *)
val profile_json :
  Nsc_arch.Params.t -> Nsc_metrics.Metrics.ctx -> Nsc_metrics.Json.t

(** Brendan Gregg folded-stacks output, one ["instr;unit cycles"] line
    per attribution row — flamegraph.pl input. *)
val profile_folded : Nsc_metrics.Metrics.ctx -> string
