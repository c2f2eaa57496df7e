(** Scoped metric contexts: counters, latency histograms, span sinks and
    cycle attribution for one run, isolated from every other run.

    This is the simulator's one counter registry.  Descriptors
    (counter/histogram names, units, descriptions) live in a
    process-global catalogue; the {e values} live in a {!ctx}.  The
    ambient context is domain-local: instrumentation sites gate on
    {!tracing} and {!bump} against {!current}, and the CLI/daemon wraps
    each run in {!with_ctx}.  The process starts in {!default}.

    Counters come in two classes.  A {e gated} counter ({!counter})
    counts only into an enabled context.  An {e always-on} counter
    ({!always_counter}) also keeps a process-wide {!total} that counts
    whether or not any context is enabled; the host-side compile, cache,
    pool and timing-analysis accounting is of this class.

    See [docs/OBSERVABILITY.md] for the context API guide, the histogram
    bucketing scheme and its percentile error bound, and the profile
    report schema. *)

(** {1 Contexts} *)

type ctx
(** Metric state for one run: counter values, histogram buckets, the
    span ring, the simulated clock, and attribution tables. *)

val create : ?label:string -> ?capacity:int -> unit -> ctx
(** A fresh, disabled context.  [capacity] bounds the span ring
    (default 65,536 events; newest win).  Raises [Invalid_argument] if
    [capacity < 1]. *)

val default : ctx
(** The process-wide default context — the one ambient until the first
    {!with_ctx}. *)

val label : ctx -> string

val current : unit -> ctx
(** The ambient context of the calling domain. *)

val with_ctx : ctx -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f] with [ctx] ambient, restoring the previous
    context afterwards (also on exceptions).  The simulator spawns no
    domains, so a scoped run, multi-node ones included, books into
    [ctx]. *)

(** {1 The switch and the simulated clock} *)

val enabled : ctx -> bool
val enable : ctx -> unit
val disable : ctx -> unit

val any_enabled : unit -> bool
(** Whether {e any} context is currently enabled, process-wide — a single
    atomic read.  When this is [false], every instrumentation site can
    skip the per-domain context lookup entirely, because
    [add]/[observe]/[span] would no-op anyway. *)

val tracing : unit -> bool
(** Whether the calling domain's ambient context is enabled — the gate
    of every instrumentation site that records spans, histogram samples
    or attribution.  With no context enabled anywhere it is one atomic
    read and a branch. *)

val reset : ctx -> unit
(** Zero every counter, histogram and attribution table, clear the span
    ring, and rewind the clock — the catalogue is untouched. *)

val now : ctx -> int
val advance : ctx -> int -> unit

(** {1 Counters}

    Registration is global, idempotent by name (the first registration
    fixes units, description and class), and returns a dense-id
    descriptor; values are per-context.  [add] is a no-op when the
    context is disabled or [n <= 0] (counters are monotonic). *)

type counter

val counter : name:string -> units:string -> desc:string -> counter
(** A gated counter: it counts only into enabled contexts. *)

val always_counter : name:string -> units:string -> desc:string -> counter
(** An always-on counter: {!bump} also adds to its process-wide {!total},
    whether or not any context is enabled. *)

val bump : counter -> int -> unit
(** The instrumentation-site increment: [bump c n] adds [n] to the
    ambient context when that context is enabled and, for an always-on
    counter, to its process-wide total.  A gated counter with no context
    enabled costs one atomic read and a branch and allocates nothing.
    Safe from any domain. *)

val total : counter -> int
(** The process-wide total of an always-on counter since the process
    started (never reset; 0 for a gated counter). *)

val is_always : counter -> bool

val add : ctx -> counter -> int -> unit
(** Add to one explicit context only (no process-wide total). *)

val value : ctx -> counter -> int
val counter_name : counter -> string
val counter_units : counter -> string
val counter_desc : counter -> string
val registered_counters : unit -> counter list
(** Every registered counter, sorted by name. *)

val find_counter : string -> counter option

val total_bumps : ctx -> int
(** Total number of successful [add] calls in [ctx] — one term of the
    bench's disabled-overhead projection. *)

(** {1 Histograms}

    Log-bucketed: values 0..31 get exact buckets; above that each
    power-of-two octave splits into 8 sub-buckets, so a reported
    percentile underestimates the true value by less than 12.5 % (and
    is exact below 32).  Observation is lock-free. *)

type histogram

val histogram : name:string -> units:string -> desc:string -> histogram
val observe : ctx -> histogram -> int -> unit
(** Record one sample.  No-op when disabled or the sample is negative. *)

val histogram_name : histogram -> string
val histogram_units : histogram -> string
val histogram_desc : histogram -> string
val registered_histograms : unit -> histogram list
val find_histogram : string -> histogram option

type hist_summary = {
  hcount : int;
  hsum : int;
  hmin : int;  (** 0 when empty *)
  hmax : int;  (** 0 when empty *)
  p50 : int;
  p95 : int;
  p99 : int;
}

val hist_summary : ctx -> histogram -> hist_summary
val percentile : ctx -> histogram -> float -> int
(** Nearest-rank percentile (lower bound of the holding bucket); 0 when
    the histogram is empty. *)

val bucket_of_value : int -> int
val bucket_lower_bound : int -> int
(** The bucket geometry, exposed for property tests:
    [bucket_lower_bound (bucket_of_value v) <= v] and the bound is
    within 12.5 % of [v]. *)

(** {1 Cycle and FLOP attribution}

    The raw material of the hotspot table: each executed instruction
    attributes its cycles to the functional units it engaged.
    [share_cycles] apportions the instruction's cycles across its units
    (shares sum exactly to the instruction's cycle count); [busy_cycles]
    is the full engaged duration per unit — the denominator for the
    unit's sustained MFLOPS. *)

val attribute :
  ctx ->
  instr:string ->
  unit_label:string ->
  share_cycles:int ->
  busy_cycles:int ->
  flops:int ->
  unit

val attribute_node : ctx -> node:int -> cycles:int -> flops:int -> unit
(** Per-node totals for multi-node runs (utilization breakdown). *)

type attr_row = {
  a_instr : string;
  a_unit : string;
  share_cycles : int;
  busy_cycles : int;
  flops : int;
}

val attribution : ctx -> attr_row list
(** All attribution rows, ranked by [share_cycles] descending. *)

val node_attribution : ctx -> (int * int * int) list
(** [(node, cycles, flops)] per node, sorted by node. *)

val total_observations : ctx -> int
(** Histogram observations plus attribution calls — the other term of
    the bench's disabled-overhead projection. *)

(** {1 The span ring}

    A bounded ring of trace events (newest win), exported to Chrome's
    trace-event format by {!to_chrome}. *)

type arg = Int of int | Float of float | Str of string

type event = {
  ev_name : string;
  cat : string;
  phase : char;  (** 'X' complete span, 'i' instant, 'C' counter sample *)
  ts : int;      (** simulated cycles *)
  dur : int;     (** simulated cycles; 0 for instants *)
  tid : int;     (** 0 = node engine/sequencer, 1 = multi-node machine *)
  args : (string * arg) list;
}

val span :
  ctx ->
  ?tid:int ->
  ?args:(string * arg) list ->
  cat:string ->
  name:string ->
  ts:int ->
  dur:int ->
  unit ->
  unit

val instant :
  ctx ->
  ?tid:int ->
  ?args:(string * arg) list ->
  cat:string ->
  name:string ->
  ts:int ->
  unit ->
  unit

val events : ctx -> event list
(** Resident events, oldest first. *)

val dropped : ctx -> int

(** {1 Snapshots and diffs} *)

type snapshot = {
  snap_label : string;
  snap_clock : int;
  snap_counters : (string * int) list;        (** non-zero, sorted by name *)
  snap_hists : (string * hist_summary) list;  (** non-empty, sorted by name *)
  snap_attr : attr_row list;
  snap_nodes : (int * int * int) list;        (** (node, cycles, flops) *)
  snap_events : int;
  snap_dropped : int;
}

val snapshot : ctx -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff a b] is [b - a] counter-wise (zero entries elided, negatives
    kept).  Histogram percentiles/min/max are not subtractive: a diffed
    histogram carries [b]'s distribution with [a]'s count and sum
    subtracted. *)

val hist_summary_to_json : hist_summary -> Json.t

(** {1 Export} *)

val to_chrome : ctx -> string
(** The context's events, counters and clock as a Chrome trace-event
    JSON document ([chrome://tracing] / Perfetto). *)

val summary : ctx -> string
(** Human-readable run summary: clock, aggregated spans, non-empty
    histograms with percentiles, and non-zero counters. *)
