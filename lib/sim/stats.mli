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

val cache_evictions : unit -> int
(** LRU evictions across every bounded compile cache in the process:
    the total of the always-on [cache.evictions] counter. *)

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
    [instructions], [nodes], [counters], [events_recorded],
    [events_dropped]. *)
val profile_json :
  Nsc_arch.Params.t -> Nsc_metrics.Metrics.ctx -> Nsc_metrics.Json.t

(** Brendan Gregg folded-stacks output, one ["instr;unit cycles"] line
    per attribution row — flamegraph.pl input. *)
val profile_folded : Nsc_metrics.Metrics.ctx -> string
