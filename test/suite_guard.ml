(* The supervision layer (Nsc_guard) and its serve integration: budget
   deadlines and cancellation (including the edge cases — zero-cycle
   budgets, a ceiling landing exactly on a sweep boundary, cancellation
   under an active fault model), the retry ladder, the write-ahead journal, the overload
   breaker, the stale-socket classifier, and a QCheck fuzzer over the
   daemon's wire protocol. *)

open Util
module Guard = Nsc_guard.Guard
module Budget = Nsc_guard.Guard.Budget
module Serve = Nsc_serve.Serve
module Protocol = Nsc_serve.Protocol
module Json = Nsc_metrics.Json
module Metrics = Nsc_metrics.Metrics
module Jacobi = Nsc_apps.Jacobi
module Poisson = Nsc_apps.Poisson
module Fault = Nsc_fault.Fault

let parse line =
  match Json.parse line with
  | Ok o -> o
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e

let str obj name = Option.bind (Json.member name obj) Json.to_str
let inum obj name =
  Option.map int_of_float (Option.bind (Json.member name obj) Json.to_num)

let server config = Serve.create ~config ()

let submit_jacobi ?(id = "j1") ?(n = 5) ?(tol = 1e-4) ?(max_iters = 200)
    ?deadline_cycles ?deadline_ms ?priority () =
  Printf.sprintf
    {|{"op":"submit","id":%S,"workload":{"kind":"jacobi","n":%d,"tol":%g,"max_iters":%d}%s%s%s}|}
    id n tol max_iters
    (match deadline_cycles with
    | Some c -> Printf.sprintf {|,"deadline_cycles":%d|} c
    | None -> "")
    (match deadline_ms with
    | Some ms -> Printf.sprintf {|,"deadline_ms":%g|} ms
    | None -> "")
    (match priority with
    | Some p -> Printf.sprintf {|,"priority":%S|} p
    | None -> "")

let one_response t line =
  ignore (Serve.handle_line t line);
  match Serve.drain t with
  | [ r ] -> parse r
  | rs -> Alcotest.failf "expected one response, got %d" (List.length rs)

(* --- Budget ------------------------------------------------------------- *)

let budget_tests =
  [
    case "unarmed budget never fires" (fun () ->
        let b = Budget.create () in
        Budget.charge b 1_000_000;
        Budget.check b;
        Budget.poll b;
        check_int "spent accumulates" 1_000_000 (Budget.spent b);
        check_int "polls counted" 2 (Budget.polls b));
    case "cycle ceiling fires at the boundary, spent >= ceiling" (fun () ->
        let b = Budget.create ~deadline_cycles:100 () in
        Budget.charge b 40;
        Budget.check b;
        Budget.charge b 60;
        match Budget.check b with
        | () -> Alcotest.fail "expected Deadline_exceeded"
        | exception Budget.Deadline_exceeded { spent_cycles; reason } ->
            check_int "spent" 100 spent_cycles;
            check_string "reason" "deadline-cycles" reason);
    case "zero-cycle budget fires before any work" (fun () ->
        let b = Budget.create ~deadline_cycles:0 () in
        match Budget.check b with
        | () -> Alcotest.fail "expected Deadline_exceeded"
        | exception Budget.Deadline_exceeded { spent_cycles; _ } ->
            check_int "nothing was spent" 0 spent_cycles);
    case "cancellation trips poll and check from another flag set" (fun () ->
        let b = Budget.create ~deadline_cycles:1_000_000 () in
        Budget.poll b;
        Budget.cancel b;
        check_bool "cancelled" true (Budget.cancelled b);
        (match Budget.poll b with
        | () -> Alcotest.fail "expected cancellation"
        | exception Budget.Deadline_exceeded { reason; _ } ->
            check_string "reason" "cancelled" reason);
        match Budget.check b with
        | () -> Alcotest.fail "expected cancellation"
        | exception Budget.Deadline_exceeded { reason; _ } ->
            check_string "reason" "cancelled" reason);
    case "wall deadline fires on poll once the clock passes it" (fun () ->
        let b = Budget.create ~deadline_ms:1.0 () in
        Unix.sleepf 0.005;
        match Budget.poll b with
        | () -> Alcotest.fail "expected Deadline_exceeded"
        | exception Budget.Deadline_exceeded { reason; _ } ->
            check_string "reason" "deadline-ms" reason);
    case "create validates its arguments" (fun () ->
        check_bool "negative ms" true
          (match Budget.create ~deadline_ms:(-1.0) () with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* --- deadline edge cases through the solvers ----------------------------- *)

let solve_budget ?budget ?(n = 5) ?(tol = 1e-4) ?(max_iters = 100) () =
  Jacobi.solve kb ~run:(Nsc_sim.Run.make ?budget ()) (Poisson.manufactured n) ~tol ~max_iters

let deadline_tests =
  [
    case "zero-cycle budget kills a solve before the first instruction"
      (fun () ->
        let budget = Budget.create ~deadline_cycles:0 () in
        match solve_budget ~budget () with
        | exception Budget.Deadline_exceeded { spent_cycles; _ } ->
            check_int "no cycles spent" 0 spent_cycles
        | Ok _ | Error _ -> Alcotest.fail "expected Deadline_exceeded");
    case "full-cycle budget lets the same solve finish untouched" (fun () ->
        let clean =
          match solve_budget () with Ok o -> o | Error e -> failwith e
        in
        let total = clean.Jacobi.stats.Nsc_sim.Sequencer.total_cycles in
        let budget = Budget.create ~deadline_cycles:total () in
        match solve_budget ~budget () with
        | Ok o ->
            check_int "same sweeps" clean.Jacobi.sweeps o.Jacobi.sweeps;
            check_int "budget charged the whole run" total (Budget.spent budget)
        | Error e -> failwith e
        | exception Budget.Deadline_exceeded _ ->
            Alcotest.fail "an exact budget must not fire after the last charge");
    case "a ceiling on a sweep boundary fires exactly there" (fun () ->
        (* pick the cumulative cycle count at an interior instruction
           boundary; the budget must fire with spent == ceiling, i.e. at
           that exact boundary, not mid-instruction *)
        let clean =
          match solve_budget () with Ok o -> o | Error e -> failwith e
        in
        let total = clean.Jacobi.stats.Nsc_sim.Sequencer.total_cycles in
        let probe = Budget.create ~deadline_cycles:(total / 2) () in
        match solve_budget ~budget:probe () with
        | exception Budget.Deadline_exceeded { spent_cycles; _ } ->
            check_bool "fired at or past the ceiling" true
              (spent_cycles >= total / 2);
            (* re-run with the fired boundary as the exact ceiling: the
               kill must land on the same boundary with spent == ceiling *)
            let exact = Budget.create ~deadline_cycles:spent_cycles () in
            (match solve_budget ~budget:exact () with
            | exception Budget.Deadline_exceeded e2 ->
                check_int "boundary-exact kill" spent_cycles e2.spent_cycles
            | Ok _ | Error _ -> Alcotest.fail "expected Deadline_exceeded")
        | Ok _ | Error _ -> Alcotest.fail "expected Deadline_exceeded");
    case "cancellation lands under an active fault model" (fun () ->
        let spec = Result.get_ok (Fault.parse "transient-link:p=0.05") in
        let budget = Budget.create () in
        Budget.cancel budget;
        let run = Nsc_sim.Run.make ~fault:(Fault.make ~seed:7 spec) ~budget () in
        let fired =
          match Jacobi.solve_ft kb ~run (Poisson.manufactured 5) ~tol:1e-4 ~max_iters:50 with
          | exception Budget.Deadline_exceeded { reason; _ } ->
              reason = "cancelled"
          | Ok _ | Error _ -> false
        in
        check_bool "cancelled mid-fault-model" true fired);
    case "the reference evaluator polls the budget inside an instruction"
      (fun () ->
        let prog, _ = vecadd_program ~n:3000 () in
        let sem, _ = semantic_of_program prog 1 in
        let node = Nsc_sim.Node.create params in
        let cancelled = Budget.create () in
        Budget.cancel cancelled;
        (match
           Nsc_sim.Engine.run_general node ~run:(Nsc_sim.Run.make ~budget:cancelled ()) sem
         with
        | exception Budget.Deadline_exceeded { reason; _ } ->
            check_string "reason" "cancelled" reason
        | _ -> Alcotest.fail "expected cancellation");
        (* one poll per 1024-element block of the write stream, then one
           per block of the unit's forced evaluation *)
        let armed = Budget.create () in
        ignore (Nsc_sim.Engine.run_general node ~run:(Nsc_sim.Run.make ~budget:armed ()) sem);
        check_int "polls" 6 (Budget.polls armed));
  ]

(* --- Retry, Journal, Breaker units --------------------------------------- *)

let unit_tests =
  [
    case "backoff ladder doubles and is seed-deterministic" (fun () ->
        let p =
          { Guard.Retry.max_retries = 3; base_backoff_ms = 10.0; jitter = 0.0;
            degraded = false }
        in
        let prng = Nsc_fault.Prng.create ~seed:1 in
        check_float "attempt 1" 10.0 (Guard.Retry.backoff_ms p ~prng ~attempt:1);
        check_float "attempt 2" 20.0 (Guard.Retry.backoff_ms p ~prng ~attempt:2);
        check_float "attempt 3" 40.0 (Guard.Retry.backoff_ms p ~prng ~attempt:3);
        let jp = { p with Guard.Retry.jitter = 0.5 } in
        let a = Guard.Retry.backoff_ms jp ~prng:(Nsc_fault.Prng.create ~seed:9) ~attempt:2 in
        let b = Guard.Retry.backoff_ms jp ~prng:(Nsc_fault.Prng.create ~seed:9) ~attempt:2 in
        check_float "same seed, same jitter" a b;
        check_bool "jitter stays in [base, base*1.5]" true (a >= 20.0 && a <= 30.0));
    case "disabled policy backs off zero" (fun () ->
        let prng = Nsc_fault.Prng.create ~seed:1 in
        check_float "no base" 0.0
          (Guard.Retry.backoff_ms Guard.Retry.default ~prng ~attempt:5));
    case "journal roundtrip keeps exactly the unfinished suffix" (fun () ->
        let path = Filename.temp_file "guard" ".journal" in
        let j = Guard.Journal.open_ ~path in
        Guard.Journal.append_accept j ~id:"a" ~line:{|{"op":"submit","id":"a"}|};
        Guard.Journal.append_accept j ~id:"b" ~line:{|{"op":"submit","id":"b"}|};
        Guard.Journal.append_done j ~id:"a";
        Guard.Journal.append_accept j ~id:"c" ~line:{|{"op":"submit","id":"c"}|};
        Guard.Journal.close j;
        (match Guard.Journal.load ~path with
        | [ ("b", lb); ("c", lc) ] ->
            check_bool "lines preserved" true
              (lb = {|{"op":"submit","id":"b"}|} && lc = {|{"op":"submit","id":"c"}|})
        | l -> Alcotest.failf "unexpected pending set (%d entries)" (List.length l));
        Sys.remove path);
    case "journal tolerates a torn tail and foreign lines" (fun () ->
        let path = Filename.temp_file "guard" ".journal" in
        let oc = open_out path in
        output_string oc
          ("{\"ev\":\"accept\",\"id\":\"x\",\"line\":\"{}\"}\n"
         ^ "not json at all\n"
         ^ "{\"ev\":\"accept\",\"id\":\"y\",\"line\":\"{}\"}\n"
         ^ "{\"ev\":\"accept\",\"id\":\"y\",\"line\":\"{\\\"dup\\\":1}\"}\n"
         ^ "{\"ev\":\"done\",\"id\":\"x\"}\n"
         ^ "{\"ev\":\"accept\",\"id\":\"torn\",\"li");  (* crash mid-write *)
        close_out oc;
        (match Guard.Journal.load ~path with
        | [ ("y", line) ] -> check_string "first accept wins" "{}" line
        | l -> Alcotest.failf "unexpected pending set (%d entries)" (List.length l));
        Sys.remove path);
    case "journal load of a missing file is empty" (fun () ->
        check_int "no file, no jobs" 0
          (List.length (Guard.Journal.load ~path:"/nonexistent/guard.journal")));
    case "breaker opens at the threshold and closes with hysteresis" (fun () ->
        let b = Guard.Breaker.create ~open_at:4 () in
        Guard.Breaker.observe b ~depth:3 ~p99_usec:0;
        check_bool "below threshold: closed" false (Guard.Breaker.is_open b);
        Guard.Breaker.observe b ~depth:4 ~p99_usec:0;
        check_bool "at threshold: open" true (Guard.Breaker.is_open b);
        Guard.Breaker.observe b ~depth:3 ~p99_usec:0;
        check_bool "hysteresis: still open above close_at" true
          (Guard.Breaker.is_open b);
        Guard.Breaker.observe b ~depth:2 ~p99_usec:0;
        check_bool "drained to open_at/2: closed" false (Guard.Breaker.is_open b);
        check_int "one open" 1 (Guard.Breaker.opens b);
        check_int "one close" 1 (Guard.Breaker.closes b));
    case "disabled breaker never opens; bad thresholds are rejected" (fun () ->
        let b = Guard.Breaker.create () in
        Guard.Breaker.observe b ~depth:1_000_000 ~p99_usec:1_000_000;
        check_bool "disabled stays closed" false (Guard.Breaker.is_open b);
        check_bool "close_at >= open_at rejected" true
          (match Guard.Breaker.create ~open_at:4 ~close_at:4 () with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* --- serve integration --------------------------------------------------- *)

let serve_tests =
  [
    case "deadline job answers a structured error; the pool stays live"
      (fun () ->
        let t = server Serve.default_config in
        let r =
          one_response t
            (submit_jacobi ~id:"dl" ~tol:1e-30 ~max_iters:100000
               ~deadline_cycles:2000 ())
        in
        check_string "status" "error" (Option.get (str r "status"));
        check_string "code" "deadline" (Option.get (str r "code"));
        check_string "reason" "deadline-cycles" (Option.get (str r "reason"));
        check_bool "spent past the ceiling" true
          (Option.get (inum r "spent_cycles") >= 2000);
        let ok = one_response t (submit_jacobi ~id:"after" ()) in
        check_string "next job runs clean" "ok" (Option.get (str ok "status"));
        (* and the kill left nothing behind that perturbs the next answer *)
        let direct =
          Result.get_ok (Jacobi.solve kb (Poisson.manufactured 5) ~tol:1e-4 ~max_iters:200)
        in
        check_int "next job's sweeps = direct solve" direct.Jacobi.sweeps
          (Option.get (inum ok "sweeps"));
        check_bool "next job's residual = direct solve" true
          (Json.member "residual" ok = Some (Json.Num direct.Jacobi.final_change)));
    case "wall deadline kills a job via deadline_ms" (fun () ->
        let t = server Serve.default_config in
        let r =
          one_response t
            (submit_jacobi ~id:"wall" ~n:17 ~tol:1e-30 ~max_iters:100000
               ~deadline_ms:1.0 ())
        in
        check_string "code" "deadline" (Option.get (str r "code"));
        check_string "reason" "deadline-ms" (Option.get (str r "reason")));
    case "retry ladder: attempts counted, deadline verdict, guard counters"
      (fun () ->
        let t =
          server { Serve.default_config with retries = 2; backoff_ms = 0.01 }
        in
        let r =
          one_response t (submit_jacobi ~id:"lad" ~deadline_cycles:0 ())
        in
        check_string "code" "deadline" (Option.get (str r "code"));
        check_int "attempts" 3 (Option.get (inum r "attempts"));
        let v c = Metrics.value (Serve.metrics t) c in
        check_int "retries" 2 (v Guard.c_retries);
        check_int "kills" 3 (v Guard.c_deadline_kills);
        check_int "no permanent-failure on a deadline verdict" 0
          (v Guard.c_permanent_failures));
    case "degraded rung rescues a job its full budget cannot fit" (fun () ->
        (* cycle costs are simulated, so the threshold between the full
           solve and its quartered degraded attempt is deterministic *)
        let cycles max_iters =
          match
            Jacobi.solve kb (Poisson.manufactured 5) ~tol:1e-30 ~max_iters
          with
          | Ok o -> o.Jacobi.stats.Nsc_sim.Sequencer.total_cycles
          | Error e -> failwith e
        in
        let full = cycles 40 and quarter = cycles 10 in
        let t = server { Serve.default_config with degraded = true } in
        let r =
          one_response t
            (submit_jacobi ~id:"deg" ~tol:1e-30 ~max_iters:40
               ~deadline_cycles:((full + quarter) / 2) ())
        in
        check_string "status" "ok" (Option.get (str r "status"));
        check_int "attempts" 2 (Option.get (inum r "attempts"));
        check_bool "degraded flag" true
          (Json.member "degraded" r = Some (Json.Bool true));
        check_int "degraded run counted" 1
          (Metrics.value (Serve.metrics t) Guard.c_degraded_runs));
    case "exhausted ladder fails permanently with a typed code" (fun () ->
        let t = server { Serve.default_config with retries = 1 } in
        let r =
          one_response t
            {|{"op":"submit","id":"pf","workload":{"kind":"source","text":"this is not a program"}}|}
        in
        check_string "code" "permanent-failure" (Option.get (str r "code"));
        check_int "attempts" 2 (Option.get (inum r "attempts"));
        check_int "permanent failure counted" 1
          (Metrics.value (Serve.metrics t) Guard.c_permanent_failures));
    case "breaker sheds low priority only, and recloses after the drain"
      (fun () ->
        let t = server { Serve.default_config with shed_open = 2 } in
        check_int "first admits" 0
          (List.length (Serve.handle_line t (submit_jacobi ~id:"s1" ())));
        check_int "second admits" 0
          (List.length (Serve.handle_line t (submit_jacobi ~id:"s2" ())));
        (match
           Serve.handle_line t (submit_jacobi ~id:"s3" ~priority:"low" ())
         with
        | [ r ] ->
            let o = parse r in
            check_string "rejected" "rejected" (Option.get (str o "status"));
            check_string "shed" "shed" (Option.get (str o "code"))
        | rs -> Alcotest.failf "expected one shed response, got %d" (List.length rs));
        check_int "normal priority rides through the open breaker" 0
          (List.length (Serve.handle_line t (submit_jacobi ~id:"s4" ())));
        check_int "three jobs execute" 3 (List.length (Serve.drain t));
        check_int "low priority admits once the queue drained" 0
          (List.length (Serve.handle_line t (submit_jacobi ~id:"s5" ~priority:"low" ())));
        let v c = Metrics.value (Serve.metrics t) c in
        check_int "one shed" 1 (v Guard.c_shed_jobs);
        check_int "one open" 1 (v Guard.c_breaker_opens);
        check_int "one close" 1 (v Guard.c_breaker_closes));
    case "journalled crash recovers every acked job, replay == clean run"
      (fun () ->
        let path = Filename.temp_file "guard-serve" ".journal" in
        Sys.remove path;
        let cfg = { Serve.default_config with journal = Some path } in
        let lines =
          [ submit_jacobi ~id:"r1" ~n:5 (); submit_jacobi ~id:"r2" ~n:7 () ]
        in
        let a = server cfg in
        List.iter (fun l -> ignore (Serve.handle_line a l)) lines;
        (* the daemon "crashes" here: [a] is abandoned before its wave *)
        let b = server cfg in
        check_int "recover re-admits silently" 0
          (List.length (Serve.recover b));
        let replayed = List.map parse (Serve.drain b) in
        check_int "both jobs replayed" 2 (List.length replayed);
        List.iter2
          (fun r id ->
            check_string "id preserved" id (Option.get (str r "id"));
            check_string "ran clean" "ok" (Option.get (str r "status")))
          replayed [ "r1"; "r2" ];
        check_int "journal balanced after the recovery wave" 0
          (List.length (Guard.Journal.load ~path));
        check_int "replays counted" 2
          (Metrics.value (Serve.metrics b) Guard.c_journal_replays);
        (* replay == clean run: an uninterrupted daemon fed the same lines
           answers the same responses, host-only fields aside (wall-clock
           latency and compile-cache and buffer-pool warmth) *)
        let twin = server Serve.default_config in
        List.iter (fun l -> ignore (Serve.handle_line twin l)) lines;
        let straight = List.map parse (Serve.drain twin) in
        let strip = List.map Suite_serve.strip_host_noise in
        check_bool "replay bit-identical to the uninterrupted run" true
          (strip replayed = strip straight);
        Sys.remove path);
    case "socket status: absent, stale and live are told apart" (fun () ->
        let dir = Filename.temp_file "guard-sock" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        let path = Filename.concat dir "s.sock" in
        check_bool "absent" true (Serve.socket_status path = `Absent);
        (* a socket nothing listens on: bound once, then the owner died *)
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_UNIX path);
        Unix.close s;
        check_bool "stale" true (Serve.socket_status path = `Stale);
        Unix.unlink path;
        (* a live daemon: bound and listening *)
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_UNIX path);
        Unix.listen s 1;
        check_bool "live" true (Serve.socket_status path = `Live);
        Unix.close s;
        Unix.unlink path;
        (* a regular file must never be clobbered *)
        let f = Filename.concat dir "plain" in
        let oc = open_out f in
        close_out oc;
        check_bool "non-socket refuses as live" true
          (Serve.socket_status f = `Live);
        Sys.remove f;
        Unix.rmdir dir);
  ]

(* --- protocol fuzzing ---------------------------------------------------- *)

(* One long-lived server shared by the fuzz properties: the daemon's
   contract is that no input line, however hostile, kills the session. *)
let fuzz_server = lazy (server { Serve.default_config with queue_bound = 4 })

let responds_sanely line =
  let t = Lazy.force fuzz_server in
  match Serve.handle_line t line with
  | rs ->
      List.for_all (fun r -> match Json.parse r with Ok _ -> true | Error _ -> false) rs
  | exception _ -> false

let valid_submit =
  {|{"op":"submit","id":"fz","workload":{"kind":"jacobi","n":5,"tol":0.1,"max_iters":2}}|}

let fuzz_tests =
  [
    qcheck ~count:300 "random bytes never kill the daemon"
      QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 200))
      responds_sanely;
    qcheck ~count:200 "truncated request lines never kill the daemon"
      QCheck2.Gen.(0 -- String.length valid_submit)
      (fun k -> responds_sanely (String.sub valid_submit 0 k));
    qcheck ~count:60 "deeply nested JSON is an error, not a stack overflow"
      QCheck2.Gen.(pair (1 -- 2000) bool)
      (fun (depth, arrays) ->
        let opener = if arrays then "[" else {|{"a":|} in
        let closer = if arrays then "]" else "}" in
        let line =
          String.concat ""
            (List.concat
               [ List.init depth (fun _ -> opener); [ "1" ];
                 List.init depth (fun _ -> closer) ])
        in
        (match Json.parse line with
        | Ok _ -> depth <= Json.max_depth
        | Error _ -> true
        | exception Stack_overflow -> false)
        && responds_sanely line);
    case "bad-json and bad-request echo a usable id" (fun () ->
        let t = server Serve.default_config in
        (match Serve.handle_line t "{" with
        | [ r ] ->
            check_string "bad-json" "bad-json" (Option.get (str (parse r) "code"))
        | _ -> Alcotest.fail "expected one error");
        match
          Serve.handle_line t
            {|{"op":"submit","id":"echo-me","workload":{"kind":"jacobi","n":99}}|}
        with
        | [ r ] ->
            let o = parse r in
            check_string "bad-request" "bad-request" (Option.get (str o "code"));
            check_string "id echoed" "echo-me" (Option.get (str o "id"))
        | _ -> Alcotest.fail "expected one error");
    case "oversized source text is refused at admission" (fun () ->
        let t = server Serve.default_config in
        let blob = String.make 70_000 'a' in
        match
          Serve.handle_line t
            (Printf.sprintf
               {|{"op":"submit","id":"big","workload":{"kind":"source","text":%S}}|}
               blob)
        with
        | [ r ] ->
            check_string "bad-request" "bad-request"
              (Option.get (str (parse r) "code"))
        | _ -> Alcotest.fail "expected one error");
  ]

let suite =
  [
    ("guard:budget", budget_tests);
    ("guard:deadlines", deadline_tests);
    ("guard:units", unit_tests);
    ("guard:serve", serve_tests);
    ("guard:fuzz", fuzz_tests);
  ]
