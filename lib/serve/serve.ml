(* The serve daemon: a bounded admission queue in front of the simulator,
   starting each admitted job as soon as a domain is free and releasing
   the responses in submission order.  Wire protocol in protocol.ml /
   docs/SERVICE.md.

   Isolation contract: every job executes under its own Nsc_metrics
   context, so counters, histograms and attribution never bleed between
   concurrent jobs (the interleaved-equals-serial property is pinned in
   test/suite_serve.ml), and every job runs with its own run state
   ([Nsc_sim.Run.t]: its fault model and budget), so faulted and clean
   jobs run side by side.  Sharing contract: all jobs of a session go
   through one compile cache of checked programs, each holding its
   kernels, bounded with LRU eviction so a long-lived daemon's resident
   set stays capped no matter how many distinct programs clients
   submit. *)

open Nsc_arch
module Json = Nsc_metrics.Json
module Metrics = Nsc_metrics.Metrics
module Fault = Nsc_fault.Fault
module Guard = Nsc_guard.Guard

type config = {
  domains : int;
  queue_bound : int;
  cache_bound : int;
  engine : Protocol.engine;
  subset : bool;
  retries : int;
  backoff_ms : float;
  degraded : bool;
  journal : string option;
  shed_open : int;
  shed_close : int;
  shed_p99_usec : int;
}

let default_config =
  {
    domains = 1;
    queue_bound = 64;
    cache_bound = 0;
    engine = `Kernel;
    subset = false;
    retries = 0;
    backoff_ms = 0.0;
    degraded = false;
    journal = None;
    shed_open = 0;
    shed_close = 0;
    shed_p99_usec = 0;
  }

(* The server's own observability, catalogued in docs/OBSERVABILITY.md. *)
let c_submitted =
  Metrics.counter ~name:"serve.jobs_submitted" ~units:"jobs"
    ~desc:"jobs admitted to the serve daemon's queue"

let c_completed =
  Metrics.counter ~name:"serve.jobs_completed" ~units:"jobs"
    ~desc:"serve jobs finished with status ok"

let c_failed =
  Metrics.counter ~name:"serve.jobs_failed" ~units:"jobs"
    ~desc:"serve jobs finished with a run error"

let c_rejected =
  Metrics.counter ~name:"serve.jobs_rejected" ~units:"jobs"
    ~desc:"serve submissions refused by admission control (queue full)"

let c_proto_errors =
  Metrics.counter ~name:"serve.protocol_errors" ~units:"lines"
    ~desc:"malformed or invalid serve request lines"

let c_waves =
  Metrics.counter ~name:"serve.waves" ~units:"waves"
    ~desc:"serve barriers (drain, shutdown, end of input, queue full) that released jobs"

let h_latency =
  Metrics.histogram ~name:"hist.serve_job_usec" ~units:"usec"
    ~desc:"host-side serve job latency, admission to result"

type pending = { job : Protocol.job; line : string; admitted : float }

(* An admitted job; [response] is set once it has run. *)
type slot = { p : pending; mutable response : string option }

(* Where released responses go: held for the next barrier (library use),
   written to an attached transport, or dropped once that transport's
   peer has gone. *)
type sink = Hold | Stream of out_channel | Lost

type t = {
  cfg : config;
  kb : Knowledge.t;
  cache : Nsc_sim.Kernel.cache;
  sctx : Metrics.ctx;
  journal : Guard.Journal.t option;
  breaker : Guard.Breaker.t;
  mutable b_opens : int;   (* breaker transitions already mirrored *)
  mutable b_closes : int;
  mutable stopping : bool;
  (* dispatch state, under [mu]; the journal is written under it too *)
  mu : Mutex.t;
  work : Condition.t;  (* a job became runnable, or the workers retire *)
  idle : Condition.t;  (* a job was released *)
  runq : slot Queue.t;  (* admitted, not yet started *)
  inflight : slot Queue.t;  (* admitted, not yet released: submission order *)
  mutable unreleased : int;
  mutable released : int;  (* released since the previous barrier *)
  mutable retiring : bool;
  mutable workers : unit Domain.t list;  (* spawned and joined by the reader *)
  (* output state, under [out_mu]: one writer at a time *)
  out_mu : Mutex.t;
  mutable sink : sink;
  mutable held : string list;  (* reversed *)
}

let create ?(config = default_config) () =
  if config.queue_bound < 1 then invalid_arg "Serve.create: queue_bound must be >= 1";
  if config.domains < 1 then invalid_arg "Serve.create: domains must be >= 1";
  if config.cache_bound < 0 then invalid_arg "Serve.create: cache_bound must be >= 0";
  if config.retries < 0 then invalid_arg "Serve.create: retries must be >= 0";
  let sctx = Metrics.create ~label:"serve" () in
  Metrics.enable sctx;
  let bound = if config.cache_bound > 0 then Some config.cache_bound else None in
  {
    cfg = config;
    kb = (if config.subset then Knowledge.subset else Knowledge.default);
    cache = Nsc_sim.Kernel.make_cache ?bound ();
    sctx;
    journal = Option.map (fun path -> Guard.Journal.open_ ~path) config.journal;
    breaker =
      Guard.Breaker.create ~open_at:config.shed_open
        ?close_at:(if config.shed_close > 0 then Some config.shed_close else None)
        ~p99_usec:config.shed_p99_usec ();
    b_opens = 0;
    b_closes = 0;
    stopping = false;
    mu = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    runq = Queue.create ();
    inflight = Queue.create ();
    unreleased = 0;
    released = 0;
    retiring = false;
    workers = [];
    out_mu = Mutex.create ();
    sink = Hold;
    held = [];
  }

let stopped t = t.stopping
let queued t = Mutex.protect t.mu (fun () -> t.unreleased)
let metrics t = t.sctx

let num i = Json.Num (float_of_int i)

(* --- job execution ------------------------------------------------------ *)

(* The timing analyses follow codegen and kernel compiles: the wire
   does not carry them (see docs/SERVICE.md). *)
let off_wire = [ Metrics.counter_name Nsc_checker.Timing.c_analyses ]

let counters_json jctx =
  let snap = Metrics.snapshot jctx in
  Json.Obj
    (List.filter_map
       (fun (n, v) -> if List.mem n off_wire then None else Some (n, num v))
       snap.Metrics.snap_counters)

let exec_workload t ~engine ~degraded ~run (job : Protocol.job) :
    ((string * Json.t) list, string) result =
  match job.Protocol.workload with
  | Protocol.Jacobi { n; tol; max_iters } -> (
      let prob = Nsc_apps.Poisson.manufactured n in
      (* degraded escalation for an iterative solve: a quartered sweep
         budget, so a job that kept blowing its deadline can still
         return a partial (higher-residual) answer *)
      let max_iters = if degraded then max 1 (max_iters / 4) else max_iters in
      match
        Nsc_apps.Jacobi.solve t.kb ~engine ~run prob ~tol ~max_iters
      with
      | Error e -> Error e
      | Ok o ->
          let st = o.Nsc_apps.Jacobi.stats in
          Ok
            [ ("kind", Json.Str "jacobi");
              ("n", num n);
              ("sweeps", num o.Nsc_apps.Jacobi.sweeps);
              ("residual", Json.Num o.Nsc_apps.Jacobi.final_change);
              ("instructions", num st.Nsc_sim.Sequencer.instructions_executed);
              ("cycles", num st.Nsc_sim.Sequencer.total_cycles);
              ("flops", num st.Nsc_sim.Sequencer.total_flops);
            ])
  | Protocol.Source { text } -> (
      (* degraded escalation for source jobs: the reference evaluator —
         bit-identical results on the independent, slower oracle path *)
      let engine = if degraded then `Reference else engine in
      match Nsc_lang.Compile.compile t.kb ~name:job.Protocol.id text with
      | Error e ->
          let where =
            match e.Nsc_lang.Compile.at_statement with
            | Some s -> Printf.sprintf " (statement %d)" s
            | None -> ""
          in
          Error (Printf.sprintf "compile: %s%s" e.Nsc_lang.Compile.message where)
      | Ok c -> (
          match Nsc_sim.Sequencer.of_program t.kb c.Nsc_lang.Compile.program with
          | Error e -> Error e
          | Ok prog -> (
              let node = Nsc_sim.Node.create (Knowledge.params t.kb) in
              match Nsc_sim.Sequencer.exec node ~engine ~run prog with
              | Error e -> Error e
              | Ok o ->
                  let st = o.Nsc_sim.Sequencer.stats in
                  Ok
                    [ ("kind", Json.Str "source");
                      ("halted", Json.Bool o.Nsc_sim.Sequencer.halted);
                      ("instructions",
                       num st.Nsc_sim.Sequencer.instructions_executed);
                      ("cycles", num st.Nsc_sim.Sequencer.total_cycles);
                      ("flops", num st.Nsc_sim.Sequencer.total_flops);
                    ])))

(* One attempt of one job: ok fields, a run failure, or a deadline kill.
   Never raises: a budget that fires unwinds to here, any other escaped
   exception becomes a failure. *)
type attempt_result =
  | A_ok of (string * Json.t) list
  | A_failed of string
  | A_deadline of { spent : int; reason : string }

(* One job, under its own metric context, through the retry ladder: up
   to [retries] identical re-runs with seed-deterministic backoff, then
   (with [degraded] set) one degraded-mode attempt, then a typed
   permanent failure.  The default config runs exactly one attempt and
   keeps the seed daemon's behaviour: failures answer [run-failed],
   deadline kills answer [deadline].  Each attempt runs with its own
   [Run.t]: the shared compile cache, a fresh budget and, for a faulted
   job, a fresh model from the job's seed — so any job may run on any
   worker domain beside any other. *)
let run_job t (p : pending) : string =
  let job = p.job in
  let engine = Option.value ~default:t.cfg.engine job.Protocol.engine in
  let jctx = Metrics.create ~label:job.Protocol.id () in
  Metrics.enable jctx;
  let fault_fields = ref [] in
  (* each attempt gets a fresh budget: the deadline bounds one run, not
     the ladder (the ladder's own pacing is the backoff) *)
  let budget_of () =
    match (job.Protocol.deadline_cycles, job.Protocol.deadline_ms) with
    | None, None -> None
    | dc, dm -> Some (Guard.Budget.create ?deadline_cycles:dc ?deadline_ms:dm ())
  in
  let fault_of spec =
    match Fault.parse spec with
    | Ok s -> Fault.make ~seed:job.Protocol.fault_seed s
    | Error e -> failwith e
  in
  let run_attempt ~degraded () : attempt_result =
    let fault = Option.map fault_of job.Protocol.faults in
    let run = { Nsc_sim.Run.cache = t.cache; fault; budget = budget_of () } in
    let r =
      try
        match
          Metrics.with_ctx jctx (fun () -> exec_workload t ~engine ~degraded ~run job)
        with
        | Ok fields -> A_ok fields
        | Error e -> A_failed e
      with
      | Guard.Budget.Deadline_exceeded { spent_cycles; reason } ->
          A_deadline { spent = spent_cycles; reason }
      | e -> A_failed (Printexc.to_string e)
    in
    (match (job.Protocol.faults, fault) with
    | Some spec, Some f ->
        ignore (Fault.settle f);
        let ledger = List.filter (fun (_, v) -> v <> 0) (Fault.ledger f) in
        let unrecovered =
          Option.value ~default:0 (List.assoc_opt "fault.unrecovered" ledger)
        in
        fault_fields :=
          [ ("faults",
             Json.Obj
               (("spec", Json.Str spec)
               :: ("seed", num job.Protocol.fault_seed)
               :: ("unrecovered", num unrecovered)
               :: List.map (fun (k, v) -> (k, num v)) ledger));
          ]
    | _ -> ());
    r
  in
  let policy =
    {
      Guard.Retry.max_retries = t.cfg.retries;
      base_backoff_ms = t.cfg.backoff_ms;
      jitter = 0.1;
      degraded = t.cfg.degraded;
    }
  in
  let total_attempts = 1 + t.cfg.retries + if t.cfg.degraded then 1 else 0 in
  let prng =
    lazy
      (Nsc_fault.Prng.create
         ~seed:(job.Protocol.fault_seed lxor Hashtbl.hash job.Protocol.id))
  in
  let rec ladder attempt =
    let degraded = t.cfg.degraded && attempt = total_attempts in
    if degraded then Metrics.add t.sctx Guard.c_degraded_runs 1;
    let r = run_attempt ~degraded () in
    (match r with
    | A_deadline _ -> Metrics.add t.sctx Guard.c_deadline_kills 1
    | _ -> ());
    match r with
    | A_ok fields -> (A_ok fields, attempt, degraded)
    | (A_failed _ | A_deadline _) when attempt < total_attempts ->
        Metrics.add t.sctx Guard.c_retries 1;
        let ms = Guard.Retry.backoff_ms policy ~prng:(Lazy.force prng) ~attempt in
        if ms > 0.0 then begin
          Metrics.observe t.sctx Guard.h_backoff_usec (int_of_float (ms *. 1e3));
          Unix.sleepf (ms /. 1e3)
        end;
        ladder (attempt + 1)
    | final -> (final, attempt, degraded)
  in
  let outcome, attempts, degraded = ladder 1 in
  Metrics.disable jctx;
  let latency_usec = (Unix.gettimeofday () -. p.admitted) *. 1e6 in
  Metrics.observe t.sctx h_latency (int_of_float latency_usec);
  (* ladder provenance, only once the ladder actually did something —
     the single-attempt response stays byte-compatible with the seed *)
  let ladder_fields =
    (if attempts > 1 then [ ("attempts", num attempts) ] else [])
    @ if degraded then [ ("degraded", Json.Bool true) ] else []
  in
  match outcome with
  | A_deadline { spent; reason } ->
      Metrics.add t.sctx c_failed 1;
      Json.to_string
        (Json.Obj
           ([ ("id", Json.Str job.Protocol.id);
              ("status", Json.Str "error");
              ("code", Json.Str "deadline");
              ("detail",
               Json.Str
                 (Printf.sprintf "%s after %d simulated cycles" reason spent));
              ("reason", Json.Str reason);
              ("spent_cycles", num spent);
            ]
           @ ladder_fields
           @ [ ("latency_usec", Json.Num latency_usec) ]))
  | A_failed e ->
      Metrics.add t.sctx c_failed 1;
      let code =
        if total_attempts > 1 then begin
          Metrics.add t.sctx Guard.c_permanent_failures 1;
          "permanent-failure"
        end
        else "run-failed"
      in
      Json.to_string
        (Json.Obj
           ([ ("id", Json.Str job.Protocol.id);
              ("status", Json.Str "error");
              ("code", Json.Str code);
              ("detail", Json.Str e);
            ]
           @ ladder_fields
           @ [ ("latency_usec", Json.Num latency_usec) ]))
  | A_ok fields ->
      Metrics.add t.sctx c_completed 1;
      Json.to_string
        (Json.Obj
           ((("id", Json.Str job.Protocol.id) :: ("status", Json.Str "ok") :: fields)
           @ !fault_fields @ ladder_fields
           @ [ ("latency_usec", Json.Num latency_usec);
               ("counters", counters_json jctx);
             ]))

(* --- continuous dispatch ------------------------------------------------ *)

(* Call with [out_mu] held. *)
let write_locked t lines =
  match t.sink with
  | Hold -> t.held <- List.rev_append lines t.held
  | Lost -> ()
  | Stream oc -> (
      try
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        flush oc
      with Sys_error _ -> t.sink <- Lost)

(* Responses that are not job results (errors, pong, acks, the summary):
   written straight to an attached transport, else returned. *)
let out t lines =
  Mutex.protect t.out_mu (fun () ->
      match t.sink with
      | Hold -> lines
      | Stream _ | Lost ->
          write_locked t lines;
          [])

(* Release the finished head of the in-flight queue and every finished
   job behind it: journal [done], then the response.  Every finisher
   calls this after setting its response, so no finished job is left
   behind, and [out_mu] keeps the releases in submission order. *)
let release t =
  let k =
    Mutex.protect t.out_mu (fun () ->
        let ready =
          Mutex.protect t.mu (fun () ->
              let rec pop acc =
                match Queue.peek_opt t.inflight with
                | Some { response = Some r; p } ->
                    ignore (Queue.pop t.inflight);
                    (match t.journal with
                    | None -> ()
                    | Some j ->
                        Guard.Journal.append_done j ~id:p.job.Protocol.id;
                        Metrics.add t.sctx Guard.c_journal_appends 1);
                    pop (r :: acc)
                | _ -> List.rev acc
              in
              pop [])
        in
        if ready <> [] then write_locked t ready;
        List.length ready)
  in
  if k > 0 then
    Mutex.protect t.mu (fun () ->
        t.unreleased <- t.unreleased - k;
        t.released <- t.released + k;
        Condition.broadcast t.idle)

(* Run one job and release what it unblocks.  The slot is finished even
   if the job escapes its own handlers (an asynchronous [Sys.Break]), so
   a barrier never waits on it forever. *)
let run_slot t s =
  let finish r =
    Mutex.protect t.mu (fun () -> s.response <- Some r);
    release t
  in
  match run_job t s.p with
  | r -> finish r
  | exception e ->
      Metrics.add t.sctx c_failed 1;
      finish
        (Json.to_string
           (Json.Obj
              [ ("id", Json.Str s.p.job.Protocol.id);
                ("status", Json.Str "error");
                ("code", Json.Str "run-failed");
                ("detail", Json.Str (Printexc.to_string e));
              ]));
      raise e

(* A background worker: take the next runnable job as soon as it is free
   (dynamic assignment), until the server retires its workers. *)
let rec worker t =
  let next =
    Mutex.protect t.mu (fun () ->
        while Queue.is_empty t.runq && not t.retiring do
          Condition.wait t.work t.mu
        done;
        Queue.take_opt t.runq)
  in
  match next with
  | None -> ()
  | Some s ->
      (try run_slot t s with _ -> ());
      worker t

let retire t =
  if t.workers <> [] then begin
    Mutex.protect t.mu (fun () ->
        t.retiring <- true;
        Condition.broadcast t.work);
    List.iter (fun d -> try Domain.join d with _ -> ()) t.workers;
    t.workers <- [];
    t.retiring <- false
  end

(* Admission: the job joins the run queue and the in-flight queue.  The
   write-ahead record goes down (and is flushed) first, before the job
   can run.  [domains - 1] background workers are spawned once two jobs
   are in flight: a lone job (a client's first) runs at its barrier
   without paying for the spawn. *)
let admit t p =
  let slot = { p; response = None } in
  let spawn =
    Mutex.protect t.mu (fun () ->
        (match t.journal with
        | None -> ()
        | Some j ->
            Guard.Journal.append_accept j ~id:p.job.Protocol.id ~line:p.line;
            Metrics.add t.sctx Guard.c_journal_appends 1);
        Queue.add slot t.runq;
        Queue.add slot t.inflight;
        t.unreleased <- t.unreleased + 1;
        Condition.signal t.work;
        t.cfg.domains > 1 && t.workers = [] && t.unreleased >= 2)
  in
  if spawn then
    t.workers <- List.init (t.cfg.domains - 1) (fun _ -> Domain.spawn (fun () -> worker t))

(* A barrier: the calling domain runs queued jobs itself until the run
   queue is empty, then waits until every in-flight job is released.
   Returns the held responses (library use; [] with a transport attached)
   and the number of jobs released since the previous barrier.  Without
   a transport the workers retire here, so an idle library server holds
   no domains. *)
let barrier t =
  let rec help () =
    match Mutex.protect t.mu (fun () -> Queue.take_opt t.runq) with
    | Some s ->
        run_slot t s;
        help ()
    | None -> ()
  in
  help ();
  let n =
    Mutex.protect t.mu (fun () ->
        while t.unreleased > 0 do
          Condition.wait t.idle t.mu
        done;
        let n = t.released in
        t.released <- 0;
        n)
  in
  if n > 0 then Metrics.add t.sctx c_waves 1;
  let held, hold =
    Mutex.protect t.out_mu (fun () ->
        let h = List.rev t.held in
        t.held <- [];
        (h, match t.sink with Hold -> true | Stream _ | Lost -> false))
  in
  if hold then retire t;
  (held, n)

let drain t = fst (barrier t)

let summary_response t =
  let v c = Metrics.value t.sctx c in
  let h = Metrics.hist_summary t.sctx h_latency in
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "shutdown");
         ("status", Json.Str "ok");
         ("summary",
          Json.Obj
            [ ("submitted", num (v c_submitted));
              ("completed", num (v c_completed));
              ("failed", num (v c_failed));
              ("rejected", num (v c_rejected));
              ("protocol_errors", num (v c_proto_errors));
              ("waves", num (v c_waves));
              ("p50_usec", num h.Metrics.p50);
              ("p99_usec", num h.Metrics.p99);
              ("cache_evictions", num (Nsc_sim.Kernel.evictions t.cache));
            ]);
       ])

let handle_line t line =
  if String.trim line = "" then []
  else
    match Protocol.parse_request line with
    | Error rej ->
        Metrics.add t.sctx c_proto_errors 1;
        out t [ Protocol.error_response rej ]
    | Ok Protocol.Ping -> out t [ Protocol.pong_response ~queued:(queued t) ]
    | Ok Protocol.Drain ->
        let rs, n = barrier t in
        rs
        @ out t
            [ Json.to_string
                (Json.Obj [ ("op", Json.Str "drained"); ("jobs", num n) ]);
            ]
    | Ok Protocol.Shutdown ->
        let rs = drain t in
        t.stopping <- true;
        rs @ out t [ summary_response t ]
    | Ok (Protocol.Submit job) ->
        (* overload protection first: feed the breaker, then shed
           low-priority work while it is open *)
        let p99 = (Metrics.hist_summary t.sctx h_latency).Metrics.p99 in
        let depth = queued t in
        Guard.Breaker.observe t.breaker ~depth ~p99_usec:p99;
        let opens = Guard.Breaker.opens t.breaker in
        let closes = Guard.Breaker.closes t.breaker in
        Metrics.add t.sctx Guard.c_breaker_opens (opens - t.b_opens);
        Metrics.add t.sctx Guard.c_breaker_closes (closes - t.b_closes);
        t.b_opens <- opens;
        t.b_closes <- closes;
        if Guard.Breaker.is_open t.breaker && job.Protocol.priority = Protocol.Low
        then begin
          Metrics.add t.sctx c_rejected 1;
          Metrics.add t.sctx Guard.c_shed_jobs 1;
          out t [ Protocol.shed_response ~id:job.Protocol.id ~queued:depth ]
        end
        else if depth >= t.cfg.queue_bound then begin
          (* explicit backpressure: refuse the overflow submit, then let
             the queue catch up so the next one is admitted *)
          Metrics.add t.sctx c_rejected 1;
          let rej =
            out t [ Protocol.rejected_response ~id:job.Protocol.id ~queued:depth ]
          in
          rej @ drain t
        end
        else begin
          Metrics.add t.sctx c_submitted 1;
          admit t { job; line; admitted = Unix.gettimeofday () };
          []
        end

(* Crash recovery: replay every accepted-but-unfinished request line of
   the configured journal, in admission order, through the ordinary
   admission path — so a replayed job is re-journalled, re-queued and
   executed exactly as an uninterrupted run would have.  Call it on a
   fresh server, before serving traffic. *)
let recover t =
  match t.cfg.journal with
  | None -> []
  | Some path ->
      Guard.Journal.load ~path
      |> List.concat_map (fun (_id, line) ->
             Metrics.add t.sctx Guard.c_journal_replays 1;
             handle_line t line)

(* --- transports --------------------------------------------------------- *)

(* Attach a transport: responses held so far (a recovery's, say) go out
   first, then every release and response is written as it happens. *)
let attach t oc =
  Mutex.protect t.out_mu (fun () ->
      let held = List.rev t.held in
      t.held <- [];
      t.sink <- Stream oc;
      write_locked t held)

(* Detach it: finish what is in flight, retire the workers, hold again. *)
let detach t =
  ignore (barrier t);
  retire t;
  Mutex.protect t.out_mu (fun () -> t.sink <- Hold)

let serve_channels t ic oc =
  attach t oc;
  let rec loop () =
    if not t.stopping then
      match input_line ic with
      | line ->
          ignore (handle_line t line);
          loop ()
      | exception (End_of_file | Sys_error _) -> ignore (barrier t)
  in
  Fun.protect
    ~finally:(fun () -> detach t)
    (fun () ->
      try loop ()
      with Sys.Break ->
        (* graceful drain on SIGINT: finish admitted work, report, stop *)
        ignore (barrier t);
        t.stopping <- true;
        ignore (out t [ summary_response t ]))

(* Classify the filesystem object at a prospective socket path by
   test-connecting to it: a connection that opens is a live daemon; a
   refused or dangling one is a stale socket left by a crash.  Anything
   that is not a socket at all reports [`Live] — the daemon must refuse
   to clobber a file it does not own. *)
let socket_status path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Absent
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close s with Unix.Unix_error (_, _, _) -> ())
        (fun () ->
          match Unix.connect s (Unix.ADDR_UNIX path) with
          | () -> `Live
          | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
            ->
              `Stale
          | exception Unix.Unix_error (_, _, _) -> `Live))
  | _ -> `Live

let listen t ~path =
  (match socket_status path with
  | `Absent -> ()
  | `Stale -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | `Live ->
      failwith
        (Printf.sprintf
           "socket %s is in use (a live daemon answered) — pick another path \
            or stop the other daemon"
           path));
  (* a client that hangs up before reading its responses must cost only
     its own connection: a write to it fails instead of killing us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
      try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      while not t.stopping do
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (try serve_channels t ic oc with _ -> ());
        (* closes [fd] and drops whatever a gone peer left unflushed *)
        close_out_noerr oc
      done)
