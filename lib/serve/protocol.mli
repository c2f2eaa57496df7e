(** The serve daemon's wire protocol: line-delimited JSON requests and
    responses (NDJSON).

    One request per line; the full schema, error codes and worked
    transcripts live in [docs/SERVICE.md].  Parsing is strict: an
    unparseable line is a [bad-json] error, a parseable line with a
    missing or out-of-range field is a [bad-request] error, and neither
    ever raises. *)

(** Simulator path a job runs on (the CLI's [--engine] values). *)
type engine = [ `Kernel | `Reference ]

val engine_of_string : string -> engine option
(** ["kernel"] or ["reference"]. *)

val engine_to_string : engine -> string

(** What a job executes. *)
type workload =
  | Jacobi of { n : int; tol : float; max_iters : int }
      (** The built-in 3-D Jacobi/Poisson solve on an [n]-point grid
          edge (the paper's programming example, manufactured problem).
          [3 <= n <= 17]; [tol] defaults to 1e-6, [max_iters] to 1000. *)
  | Source of { text : string }
      (** Inline pipeline-language source, compiled through [Nsc_lang]
          and executed once.  At most 65536 bytes. *)

(** Admission priority of a submission.  While the overload breaker is
    open, [Low] submissions are shed instead of queued. *)
type priority = High | Normal | Low

val priority_of_string : string -> priority option
(** ["high"], ["normal"] or ["low"]. *)

val priority_to_string : priority -> string

(** One validated job submission. *)
type job = {
  id : string;                (** client-supplied, echoed on the response *)
  workload : workload;
  engine : engine option;     (** [None]: the server's default engine *)
  faults : string option;     (** fault spec ([docs/FAULTS.md] grammar) *)
  fault_seed : int;           (** seed of the deterministic schedule *)
  deadline_ms : float option;
      (** wall-clock ceiling per attempt, from dispatch ([> 0]) *)
  deadline_cycles : int option;
      (** simulated-cycle ceiling per attempt ([>= 0]; 0 fires before
          the first instruction) *)
  priority : priority;        (** defaults to [Normal] *)
}

type request =
  | Submit of job
  | Drain     (** execute every queued job now, stream the results *)
  | Ping
  | Shutdown  (** drain, answer with the session summary, stop *)

(** A request that could not be accepted, or a job that failed: [code]
    is one of [bad-json], [bad-request], [queue-full], [shed],
    [deadline], [permanent-failure] or [run-failed]; [rid] is the job
    id when one was recovered from the line. *)
type reject = { rid : string option; code : string; detail : string }

val parse_request : string -> (request, reject) result

(** {2 Response builders} — each returns one NDJSON line (no newline). *)

val error_response : reject -> string
(** [{"id":…,"status":"error","code":…,"detail":…}] (id omitted when
    unknown). *)

val rejected_response : id:string -> queued:int -> string
(** [{"id":…,"status":"rejected","code":"queue-full","queued":…}]. *)

val shed_response : id:string -> queued:int -> string
(** [{"id":…,"status":"rejected","code":"shed","queued":…}] — a
    low-priority submission refused while the overload breaker is
    open. *)

val pong_response : queued:int -> string
