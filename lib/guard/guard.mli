(** Supervision for long-running simulation work: per-job deadlines and
    cooperative cancellation, a retry/escalation ladder, a crash-safe
    write-ahead journal, and an overload breaker.

    The paper's environment assumed a benign lab machine; a service
    front-end ([nscvp serve]) does not.  This layer recovers {e
    host-level} failures — a wedged job, a daemon crash mid-wave, an
    oversized burst — the way [Nsc_fault] recovers {e simulated
    hardware} faults.  Semantics, thresholds and the [guard.*] counter
    catalogue live in [docs/RESILIENCE.md]. *)

(** {1 Budgets: deadlines and cancellation}

    A budget is a token threaded through [Sequencer.run],
    the kernel engine and [Jacobi.solve*].  The sequencer charges each
    dispatched instruction's cycles to it and checks it at every
    instruction boundary (which includes every sweep boundary); the
    fused-kernel engine additionally polls the wall deadline and the
    cancellation flag at each kernel block boundary.  A run that
    exhausts the budget unwinds with {!Budget.Deadline_exceeded} at the
    next boundary — cooperative, so a pool domain is never killed
    mid-instruction.  The unarmed path (no budget) costs one branch per
    site; the bench's RESILIENCE section holds that projection under
    the same 2 % bar as the trace/fault gates. *)
module Budget : sig
  type t

  exception
    Deadline_exceeded of {
      spent_cycles : int;  (** simulated cycles charged when it fired *)
      reason : string;  (** ["deadline-cycles"], ["deadline-ms"] or ["cancelled"] *)
    }

  val create : ?deadline_cycles:int -> ?deadline_ms:float -> unit -> t
  (** A fresh budget.  [deadline_cycles] is a simulated-cycle ceiling
      (0 fires before the first instruction); [deadline_ms] a host
      wall-clock ceiling relative to creation.  Omitting both yields a
      budget that only ever fires through {!cancel}. *)

  val cancel : t -> unit
  (** Request cooperative cancellation: the next check or poll raises.
      Safe from any domain. *)

  val cancelled : t -> bool
  val spent : t -> int
  (** Simulated cycles charged so far. *)

  val polls : t -> int
  (** Boundary checks crossed so far — the armed-site count the bench
      projection multiplies by the gate cost. *)

  val charge : t -> int -> unit
  (** Charge simulated cycles (the sequencer, after each dispatch). *)

  val check : t -> unit
  (** Raise {!Deadline_exceeded} if the cycle budget is spent, the wall
      deadline has passed, or the budget was cancelled. *)

  val poll : t -> unit
  (** Wall-deadline and cancellation only (kernel block boundaries,
      where the in-flight instruction's cycles are not yet known). *)

  val check_opt : t option -> unit
  (** {!check} when armed; one branch when [None]. *)

  val charge_opt : t option -> int -> unit
  val poll_opt : t option -> unit
end

(** {1 The retry ladder}

    Escalation policy for failed or deadline-killed jobs: up to
    [max_retries] identical re-runs with exponential backoff and
    seed-deterministic jitter, then (when [degraded] is set) one
    degraded-mode attempt — reduced iteration budget or the reference
    engine — and finally a typed permanent failure.  The ladder itself
    is host-policy glue; [Nsc_serve] wires it around job dispatch. *)
module Retry : sig
  type policy = {
    max_retries : int;  (** identical re-runs before escalating (default 0) *)
    base_backoff_ms : float;  (** first backoff; doubles per retry (default 0) *)
    jitter : float;  (** uniform jitter fraction added to each backoff *)
    degraded : bool;  (** escalate to one degraded-mode attempt *)
  }

  val default : policy
  (** No retries, no backoff, no degraded escalation. *)

  val backoff_ms : policy -> prng:Nsc_fault.Prng.t -> attempt:int -> float
  (** Backoff before retry [attempt] (1-based):
      [base * 2^(attempt-1) * (1 + jitter * u)] with [u] drawn from
      [prng] — deterministic for a fixed seed. *)
end

(** {1 The write-ahead journal}

    Crash safety for accepted work: every admitted submission is
    appended (and flushed) {e before} it is acknowledged, completions
    are marked, and {!load} recovers the accepted-but-unfinished
    suffix after a crash.  Records are NDJSON —
    [{"ev":"accept","id":…,"line":…}] / [{"ev":"done","id":…}] — and a
    torn final record (the crash landed mid-write) is ignored. *)
module Journal : sig
  type t

  val open_ : path:string -> t
  (** Open (creating or appending) the journal at [path]. *)

  val path : t -> string
  val append_accept : t -> id:string -> line:string -> unit
  (** Record an accepted submission ([line] is the raw request line),
      flushed to the OS before returning. *)

  val append_done : t -> id:string -> unit
  (** Mark [id] complete (its response was emitted), flushed. *)

  val close : t -> unit

  val load : path:string -> (string * string) list
  (** The accepted-but-unfinished jobs of the journal at [path], as
      [(id, request-line)] in admission order; [[]] when the file does
      not exist.  Unparseable or torn records are skipped. *)
end

(** {1 The overload breaker}

    A circuit with hysteresis over queue depth and tail latency: it
    opens when depth reaches [open_at] (or p99 job latency reaches
    [p99_usec], when set) and closes only once depth falls back to
    [close_at] — so shedding does not flap at the threshold.  While
    open, the daemon sheds low-priority submissions with a [shed]
    rejection instead of queueing them. *)
module Breaker : sig
  type t

  val create : ?open_at:int -> ?close_at:int -> ?p99_usec:int -> unit -> t
  (** [open_at = 0] (the default) disables the breaker entirely;
      [close_at] defaults to [open_at / 2]; [p99_usec = 0] (default)
      disables the latency trigger.  Raises [Invalid_argument] when
      [close_at >= open_at] with the breaker enabled. *)

  val observe : t -> depth:int -> p99_usec:int -> unit
  (** Feed the current queue depth and p99 job latency; transitions
      the circuit (with hysteresis) as thresholds are crossed. *)

  val is_open : t -> bool
  val opens : t -> int
  (** Closed-to-open transitions so far. *)

  val closes : t -> int
end

(** {1 Observability}

    The [guard.*] counters and histograms (catalogued in
    [docs/RESILIENCE.md]); [Nsc_serve] mirrors ladder, shed and journal
    activity onto them in its session context. *)

val c_deadline_kills : Nsc_metrics.Metrics.counter
val c_retries : Nsc_metrics.Metrics.counter
val c_degraded_runs : Nsc_metrics.Metrics.counter
val c_permanent_failures : Nsc_metrics.Metrics.counter
val c_shed_jobs : Nsc_metrics.Metrics.counter
val c_breaker_opens : Nsc_metrics.Metrics.counter
val c_breaker_closes : Nsc_metrics.Metrics.counter
val c_journal_appends : Nsc_metrics.Metrics.counter
val c_journal_replays : Nsc_metrics.Metrics.counter
val h_backoff_usec : Nsc_metrics.Metrics.histogram
