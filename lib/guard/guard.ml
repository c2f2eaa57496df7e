(* Supervision for long-running simulation work: deadlines/cancellation
   (Budget), the retry/escalation ladder (Retry), the crash-safe
   write-ahead journal (Journal) and the overload breaker (Breaker).
   Semantics and the guard.* catalogue: docs/RESILIENCE.md. *)

module Metrics = Nsc_metrics.Metrics
module Json = Nsc_metrics.Json

(* --- budgets ------------------------------------------------------------ *)

module Budget = struct
  type t = {
    deadline_cycles : int;  (* -1: unarmed *)
    deadline_at : float;  (* absolute gettimeofday; nan: unarmed *)
    cancel_flag : bool Atomic.t;
    spent_cycles : int Atomic.t;
    poll_count : int Atomic.t;
  }

  exception
    Deadline_exceeded of { spent_cycles : int; reason : string }

  let create ?(deadline_cycles = -1) ?deadline_ms () =
    if deadline_cycles < -1 then
      invalid_arg "Budget.create: deadline_cycles must be >= 0";
    (match deadline_ms with
    | Some ms when not (ms > 0.0) ->
        invalid_arg "Budget.create: deadline_ms must be > 0"
    | _ -> ());
    {
      deadline_cycles;
      deadline_at =
        (match deadline_ms with
        | None -> Float.nan
        | Some ms -> Unix.gettimeofday () +. (ms /. 1e3));
      cancel_flag = Atomic.make false;
      spent_cycles = Atomic.make 0;
      poll_count = Atomic.make 0;
    }

  let cancel b = Atomic.set b.cancel_flag true
  let cancelled b = Atomic.get b.cancel_flag
  let spent b = Atomic.get b.spent_cycles
  let polls b = Atomic.get b.poll_count
  let charge b c = ignore (Atomic.fetch_and_add b.spent_cycles c)

  let fire b reason =
    raise (Deadline_exceeded { spent_cycles = spent b; reason })

  (* Wall-deadline and cancellation: the checks that are meaningful even
     mid-instruction, where the in-flight cycle cost is unknown.  The
     gettimeofday call happens only when a wall deadline is armed. *)
  let poll b =
    Atomic.incr b.poll_count;
    if Atomic.get b.cancel_flag then fire b "cancelled";
    if (not (Float.is_nan b.deadline_at))
       && Unix.gettimeofday () >= b.deadline_at
    then fire b "deadline-ms"

  (* The full boundary check: cycles spent so far against the cycle
     ceiling, then the wall/cancel poll.  Fires when [spent >= ceiling],
     so a 0-cycle budget fires before the first instruction. *)
  let check b =
    if b.deadline_cycles >= 0 && Atomic.get b.spent_cycles >= b.deadline_cycles
    then begin
      Atomic.incr b.poll_count;
      fire b "deadline-cycles"
    end
    else poll b

  let check_opt = function None -> () | Some b -> check b
  let charge_opt o c = match o with None -> () | Some b -> charge b c
  let poll_opt = function None -> () | Some b -> poll b
end

(* --- the retry ladder --------------------------------------------------- *)

module Retry = struct
  type policy = {
    max_retries : int;
    base_backoff_ms : float;
    jitter : float;
    degraded : bool;
  }

  let default =
    { max_retries = 0; base_backoff_ms = 0.0; jitter = 0.0; degraded = false }

  let backoff_ms p ~prng ~attempt =
    if p.base_backoff_ms <= 0.0 || attempt < 1 then 0.0
    else
      let scale = Float.of_int (1 lsl (min 20 (attempt - 1))) in
      let u = Nsc_fault.Prng.float prng in
      p.base_backoff_ms *. scale *. (1.0 +. (p.jitter *. u))
end

(* --- the write-ahead journal -------------------------------------------- *)

module Journal = struct
  type t = { jpath : string; oc : out_channel }

  let open_ ~path =
    {
      jpath = path;
      oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path;
    }

  let path t = t.jpath

  let append t obj =
    output_string t.oc (Json.to_string obj);
    output_char t.oc '\n';
    flush t.oc

  let append_accept t ~id ~line =
    append t
      (Json.Obj
         [ ("ev", Json.Str "accept"); ("id", Json.Str id); ("line", Json.Str line) ])

  let append_done t ~id =
    append t (Json.Obj [ ("ev", Json.Str "done"); ("id", Json.Str id) ])

  let close t = close_out t.oc

  (* Recovery scan: replay the record stream, keeping the first accept
     line of every id whose done record never arrived.  A torn tail (the
     crash landed mid-write) parses as an error and is skipped, as is
     any foreign line. *)
  let load ~path =
    if not (Sys.file_exists path) then []
    else begin
      let ic = open_in path in
      let order = ref [] in
      (* id -> line; an id is re-added on a later accept only if done *)
      let pending : (string, string) Hashtbl.t = Hashtbl.create 64 in
      (try
         while true do
           let raw = input_line ic in
           match Json.parse raw with
           | Error _ -> ()
           | Ok obj -> (
               let str k = Option.bind (Json.member k obj) Json.to_str in
               match (str "ev", str "id") with
               | Some "accept", Some id ->
                   if not (Hashtbl.mem pending id) then begin
                     Hashtbl.replace pending id
                       (Option.value ~default:"" (str "line"));
                     order := id :: !order
                   end
               | Some "done", Some id -> Hashtbl.remove pending id
               | _ -> ())
         done
       with End_of_file -> close_in ic);
      List.rev !order
      |> List.filter_map (fun id ->
             match Hashtbl.find_opt pending id with
             | Some line when line <> "" -> Some (id, line)
             | _ -> None)
    end
end

(* --- the overload breaker ----------------------------------------------- *)

module Breaker = struct
  type t = {
    open_at : int;  (* 0: disabled *)
    close_at : int;
    p99_usec : int;  (* 0: no latency trigger *)
    mutable state_open : bool;
    mutable n_opens : int;
    mutable n_closes : int;
  }

  let create ?(open_at = 0) ?close_at ?(p99_usec = 0) () =
    if open_at < 0 then invalid_arg "Breaker.create: open_at must be >= 0";
    let close_at = Option.value ~default:(open_at / 2) close_at in
    if open_at > 0 && close_at >= open_at then
      invalid_arg "Breaker.create: close_at must be below open_at";
    { open_at; close_at; p99_usec; state_open = false; n_opens = 0; n_closes = 0 }

  let observe t ~depth ~p99_usec =
    if t.open_at > 0 then
      if t.state_open then begin
        (* hysteresis: close only once the queue has genuinely drained *)
        if depth <= t.close_at && (t.p99_usec = 0 || p99_usec < t.p99_usec)
        then begin
          t.state_open <- false;
          t.n_closes <- t.n_closes + 1
        end
      end
      else if depth >= t.open_at || (t.p99_usec > 0 && p99_usec >= t.p99_usec)
      then begin
        t.state_open <- true;
        t.n_opens <- t.n_opens + 1
      end

  let is_open t = t.state_open
  let opens t = t.n_opens
  let closes t = t.n_closes
end

(* --- observability ------------------------------------------------------- *)

let c_deadline_kills =
  Metrics.counter ~name:"guard.deadline_kills" ~units:"attempts"
    ~desc:"job attempts killed by a deadline or cancellation"

let c_retries =
  Metrics.counter ~name:"guard.retries" ~units:"attempts"
    ~desc:"retry-ladder re-runs of failed or deadline-killed jobs"

let c_degraded_runs =
  Metrics.counter ~name:"guard.degraded_runs" ~units:"attempts"
    ~desc:"degraded-mode escalation attempts (reduced budget or reference engine)"

let c_permanent_failures =
  Metrics.counter ~name:"guard.permanent_failures" ~units:"jobs"
    ~desc:"jobs failed permanently after the retry ladder was exhausted"

let c_shed_jobs =
  Metrics.counter ~name:"guard.shed_jobs" ~units:"jobs"
    ~desc:"low-priority submissions shed while the overload breaker was open"

let c_breaker_opens =
  Metrics.counter ~name:"guard.breaker_opens" ~units:"events"
    ~desc:"overload-breaker transitions from closed to open"

let c_breaker_closes =
  Metrics.counter ~name:"guard.breaker_closes" ~units:"events"
    ~desc:"overload-breaker transitions from open back to closed"

let c_journal_appends =
  Metrics.counter ~name:"guard.journal_appends" ~units:"records"
    ~desc:"write-ahead journal records appended (accepts and completions)"

let c_journal_replays =
  Metrics.counter ~name:"guard.journal_replays" ~units:"jobs"
    ~desc:"accepted-but-unfinished jobs replayed from the journal on recovery"

let h_backoff_usec =
  Metrics.histogram ~name:"hist.guard_backoff_usec" ~units:"usec"
    ~desc:"retry-ladder backoff slept between job attempts"
