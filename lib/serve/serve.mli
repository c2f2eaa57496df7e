(** The simulation-as-a-service daemon behind [nscvp serve].

    Jobs arrive as NDJSON request lines ({!Protocol}), pass a bounded
    FIFO admission queue, and start as soon as a domain is free.  Each
    job runs under its own
    [Nsc_metrics] context and its own run state ([Nsc_sim.Run.t]: fault
    model and budget) — nothing bleeds between concurrent jobs — and
    every job in the session shares one bounded compile cache of checked
    programs, so a repeated Jacobi workload skips building, checking,
    decoding and kernel compilation while the resident set stays capped
    (LRU eviction of whole programs, kernels included,
    [cache.evictions]).  A [source] job compiles its kernels per job.

    The protocol document is [docs/SERVICE.md].  Overview of the
    scheduling contract:

    - a [submit] is admitted silently onto a run queue; with
      [domains = N > 1], [N - 1] background worker domains (spawned once
      two jobs are in flight) take each job as soon as they are free;
    - [drain], [shutdown], end of input, SIGINT and a queue-full
      rejection are {e barriers}: the calling domain runs queued jobs
      itself until none is left, then waits until every admitted job
      has been released — with [domains = 1] nothing runs before a
      barrier;
    - a finished job is {e released} once every job admitted before it
      has been: its journal [done] record is written, then its
      response.  With a transport attached ({!serve_channels},
      {!listen}) the response goes out at once; without one it is held
      and returned by the next barrier, so {!handle_line} and {!drain}
      answer exactly as if every job ran at the barrier;
    - a [submit] that finds [queue_bound] jobs admitted but not yet
      released is {e rejected} with [queue-full], and the rejection is
      a barrier, so the next submit is admitted — clients that
      interleave [drain] requests (or keep bursts within the queue
      bound) never see rejections;
    - jobs carrying a fault spec run beside clean jobs, each drawing
      from its own seeded model;
    - responses are released in submission order. *)

type config = {
  domains : int;
      (** domains that run jobs, the one reading requests included
          (default 1: jobs run only at barriers, on the reader) *)
  queue_bound : int;
      (** jobs admitted but not yet released before a submit is
          rejected (default 64) *)
  cache_bound : int;
      (** resident programs in the compile cache, each with its kernels;
          0 = unbounded (default) *)
  engine : Protocol.engine;  (** default engine for jobs that name none *)
  subset : bool;      (** use the restricted machine model *)
  retries : int;
      (** identical re-runs of a failed/deadline-killed job (default 0:
          ladder off, failures answer [run-failed]/[deadline] directly) *)
  backoff_ms : float;
      (** first retry backoff, doubling per retry with
          seed-deterministic jitter (default 0: no sleep) *)
  degraded : bool;
      (** escalate an exhausted ladder to one degraded-mode attempt —
          quartered Jacobi sweep budget, or the reference evaluator for
          source jobs — before failing permanently (default false) *)
  journal : string option;
      (** write-ahead journal path; every admission is journalled (and
          flushed) before it is acknowledged, so {!recover} can replay
          accepted-but-unfinished jobs after a crash (default [None]) *)
  shed_open : int;
      (** queue depth at which the overload breaker opens (default 0:
          breaker off) *)
  shed_close : int;
      (** depth at which it closes again; [0] means [shed_open / 2] *)
  shed_p99_usec : int;
      (** p99 job latency that also opens the breaker (default 0: off) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
(** A fresh server: empty queue, fresh shared caches, a fresh enabled
    metric context for the [serve.*] counters.  Raises
    [Invalid_argument] on a non-positive queue bound or domain count. *)

val stopped : t -> bool
(** A [shutdown] request has been processed. *)

val queued : t -> int
(** Jobs admitted but not yet released. *)

val metrics : t -> Nsc_metrics.Metrics.ctx
(** The server's own context: [serve.*] counters and the
    [hist.serve_job_usec] latency histogram. *)

val handle_line : t -> string -> string list
(** Process one request line; returns the response lines to emit, in
    order (empty for a silently-admitted submit, and always empty while
    {!serve_channels} has a transport attached: it writes them there).
    Never raises on bad input — malformed lines produce an error
    response. *)

val drain : t -> string list
(** A barrier: run every queued job and wait until all are released;
    the responses held since the previous barrier, in submission
    order. *)

val recover : t -> string list
(** Replay every accepted-but-unfinished request line of the configured
    journal through the ordinary admission path (in admission order) and
    return any immediate responses.  Call on a fresh server before
    serving traffic; [[]] when no journal is configured.  Replayed jobs
    execute at the next dispatch exactly as an uninterrupted run would
    have. *)

val summary_response : t -> string
(** The session-summary line sent in reply to [shutdown]. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Read request lines until EOF or [shutdown], writing (and flushing)
    responses as they are produced: a job's response as soon as it is
    released, from whichever domain released it.  EOF is a barrier;
    SIGINT (with [Sys.catch_break true]) is a barrier followed by the
    summary.  A write that fails (the peer hung up) drops the
    connection's output; its jobs still run and are journalled. *)

val socket_status : string -> [ `Absent | `Live | `Stale ]
(** Classify the object at a prospective socket path by
    test-connecting: [`Live] means a daemon answered (or the path is
    not a socket at all — never clobber a file the daemon does not
    own); [`Stale] is a socket nothing listens on (a crash leftover,
    safe to unlink); [`Absent] means no such file. *)

val listen : t -> path:string -> unit
(** Serve connections on a Unix-domain socket at [path], one client at
    a time, until a client sends [shutdown].  Queue, caches and
    counters are shared across connections.  A stale socket file at
    [path] (per {!socket_status}) is replaced; a live one — or a
    non-socket file — raises [Failure] instead of clobbering it.  The
    socket file is unlinked on the way out, error paths included.
    SIGPIPE is ignored for the process, so a client that hangs up
    before reading its responses costs only its own connection. *)
