(* The serve daemon: wire-protocol parsing and error responses, admission
   control (queue-full rejection, reject-then-drain), wave dispatch and
   response ordering, fault-carrying jobs, the shutdown handshake, bounded
   LRU cache eviction, and — property-tested — zero metric bleed between
   jobs dispatched concurrently versus serially, faulted jobs included. *)

open Util
module Serve = Nsc_serve.Serve
module Protocol = Nsc_serve.Protocol
module Json = Nsc_metrics.Json
module Jacobi = Nsc_apps.Jacobi
module Poisson = Nsc_apps.Poisson

let server ?(domains = 1) ?(queue_bound = 64) ?(cache_bound = 0) () =
  Serve.create
    ~config:{ Serve.default_config with domains; queue_bound; cache_bound }
    ()

let parse line =
  match Json.parse line with
  | Ok o -> o
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e

let str obj name = Option.bind (Json.member name obj) Json.to_str
let num obj name = Option.bind (Json.member name obj) Json.to_num
let inum obj name = Option.map int_of_float (num obj name)

let status line = Option.value ~default:"?" (str (parse line) "status")

let submit ?(id = "j1") ?(n = 5) ?(tol = 1e-4) ?(max_iters = 200) ?faults
    ?fault_seed () =
  let extra =
    (match faults with
    | Some f -> Printf.sprintf ",\"faults\":%S" f
    | None -> "")
    ^
    match fault_seed with
    | Some s -> Printf.sprintf ",\"fault_seed\":%d" s
    | None -> ""
  in
  Printf.sprintf
    "{\"op\":\"submit\",\"id\":%S%s,\"workload\":{\"kind\":\"jacobi\",\"n\":%d,\
     \"tol\":%g,\"max_iters\":%d}}"
    id extra n tol max_iters

let reference n =
  match Jacobi.solve kb (Poisson.manufactured n) ~tol:1e-4 ~max_iters:200 with
  | Error e -> Alcotest.failf "reference solve: %s" e
  | Ok o -> (o.Jacobi.sweeps, o.Jacobi.final_change)

(* --- protocol parsing and error responses --------------------------- *)

let expect_error ?code line =
  let t = server () in
  match Serve.handle_line t line with
  | [ resp ] ->
      let o = parse resp in
      check_string "status" "error" (Option.value ~default:"?" (str o "status"));
      (match code with
      | Some c -> check_string "code" c (Option.value ~default:"?" (str o "code"))
      | None -> ());
      o
  | rs -> Alcotest.failf "expected one error response, got %d" (List.length rs)

let protocol_tests =
  [
    case "ping answers pong with the queue depth" (fun () ->
        let t = server () in
        (match Serve.handle_line t {|{"op":"ping"}|} with
        | [ r ] ->
            let o = parse r in
            check_string "op" "pong" (Option.value ~default:"?" (str o "op"));
            check_int "queued" 0 (Option.get (inum o "queued"))
        | _ -> Alcotest.fail "expected exactly one pong");
        ignore (Serve.handle_line t (submit ()));
        match Serve.handle_line t {|{"op":"ping"}|} with
        | [ r ] -> check_int "queued" 1 (Option.get (inum (parse r) "queued"))
        | _ -> Alcotest.fail "expected exactly one pong");
    case "blank lines are ignored" (fun () ->
        let t = server () in
        check_int "no response" 0 (List.length (Serve.handle_line t "   ")));
    case "malformed JSON gets bad-json, not a crash" (fun () ->
        ignore (expect_error ~code:"bad-json" "{\"op\": \"submit\", ");
        ignore (expect_error ~code:"bad-json" "not json at all"));
    case "a server survives a malformed line and keeps serving" (fun () ->
        let t = server () in
        (match Serve.handle_line t "}{ garbage" with
        | [ r ] -> check_string "status" "error" (status r)
        | _ -> Alcotest.fail "expected one error response");
        ignore (Serve.handle_line t (submit ~id:"after" ()));
        match Serve.drain t with
        | [ r ] ->
            check_string "still ok" "ok" (status r);
            check_string "id" "after" (Option.get (str (parse r) "id"))
        | _ -> Alcotest.fail "expected one result");
    case "non-object and missing-op requests are rejected" (fun () ->
        ignore (expect_error ~code:"bad-request" "[1,2,3]");
        ignore (expect_error ~code:"bad-request" {|{"id":"x"}|});
        ignore (expect_error ~code:"bad-request" {|{"op":"frobnicate"}|}));
    case "submit validation: id, kind, bounds, engine, faults" (fun () ->
        let bad body = ignore (expect_error ~code:"bad-request" body) in
        bad {|{"op":"submit","workload":{"kind":"jacobi","n":5}}|};
        bad {|{"op":"submit","id":"","workload":{"kind":"jacobi","n":5}}|};
        bad {|{"op":"submit","id":"x","workload":{"kind":"warp","n":5}}|};
        bad {|{"op":"submit","id":"x","workload":{"kind":"jacobi","n":99}}|};
        bad {|{"op":"submit","id":"x","workload":{"kind":"jacobi","n":5.5}}|};
        bad {|{"op":"submit","id":"x","workload":{"kind":"jacobi","n":5,"tol":0}}|};
        bad {|{"op":"submit","id":"x","workload":{"kind":"source","text":""}}|};
        bad {|{"op":"submit","id":"x","engine":"gpu","workload":{"kind":"jacobi","n":5}}|};
        bad {|{"op":"submit","id":"x","faults":"nonsense","workload":{"kind":"jacobi","n":5}}|};
        (* beyond the int range: [int_of_float] would read these as 0 *)
        bad {|{"op":"submit","id":"x","workload":{"kind":"jacobi","n":5},"deadline_cycles":1e19}|};
        bad {|{"op":"submit","id":"x","workload":{"kind":"jacobi","n":5},"fault_seed":1e19}|};
        bad {|{"op":"submit","id":"x","workload":{"kind":"jacobi","n":1e19}}|});
    case "a validation error echoes the client job id" (fun () ->
        let o =
          expect_error ~code:"bad-request"
            {|{"op":"submit","id":"mine","workload":{"kind":"jacobi","n":99}}|}
        in
        check_string "id echoed" "mine" (Option.value ~default:"?" (str o "id")));
    case "engine names round-trip" (fun () ->
        List.iter
          (fun e ->
            match Protocol.engine_of_string (Protocol.engine_to_string e) with
            | Some e' -> check_bool "round-trips" true (e = e')
            | None -> Alcotest.fail "engine name did not round-trip")
          [ `Kernel; `Reference ];
        List.iter
          (fun name ->
            check_bool ("retired engine " ^ name ^ " is rejected") true
              (Protocol.engine_of_string name = None))
          [ "kernel-v2"; "plan"; "legacy" ]);
  ]

(* --- job execution --------------------------------------------------- *)

let job_tests =
  [
    case "a served jacobi job matches the direct solve" (fun () ->
        let want_sweeps, want_residual = reference 5 in
        let t = server () in
        check_int "admitted silently" 0
          (List.length (Serve.handle_line t (submit ~id:"direct" ())));
        match Serve.drain t with
        | [ r ] ->
            let o = parse r in
            check_string "status" "ok" (Option.get (str o "status"));
            check_string "id" "direct" (Option.get (str o "id"));
            check_int "n" 5 (Option.get (inum o "n"));
            check_int "sweeps" want_sweeps (Option.get (inum o "sweeps"));
            check_bool "residual equal" true
              (Option.get (num o "residual") = want_residual);
            let counters = Option.get (Json.member "counters" o) in
            check_bool "per-job counters present" true
              (Option.is_some (Json.member "sim.instructions" counters))
        | rs -> Alcotest.failf "expected one result, got %d" (List.length rs));
    case "a source-workload job compiles and runs" (fun () ->
        let t = server () in
        let text =
          "array a[8] plane 0\\narray b[8] plane 1\\nb = a + a * 2.0"
        in
        ignore
          (Serve.handle_line t
             (Printf.sprintf
                "{\"op\":\"submit\",\"id\":\"src\",\"workload\":{\"kind\":\"source\",\
                 \"text\":\"%s\"}}"
                text));
        match Serve.drain t with
        | [ r ] ->
            let o = parse r in
            check_string "status" "ok" (Option.get (str o "status"));
            check_string "kind" "source" (Option.get (str o "kind"));
            check_bool "halted" true
              (Json.member "halted" o = Some (Json.Bool true))
        | _ -> Alcotest.fail "expected one result");
    case "a source job that fails to compile reports run-failed" (fun () ->
        let t = server () in
        ignore
          (Serve.handle_line t
             {|{"op":"submit","id":"bad","workload":{"kind":"source","text":"syntax error here"}}|});
        match Serve.drain t with
        | [ r ] ->
            let o = parse r in
            check_string "status" "error" (Option.get (str o "status"));
            check_string "code" "run-failed" (Option.get (str o "code"));
            check_string "id" "bad" (Option.get (str o "id"))
        | _ -> Alcotest.fail "expected one result");
    case "a faulted job recovers and matches the clean residual" (fun () ->
        let want_sweeps, want_residual = reference 5 in
        let t = server () in
        ignore
          (Serve.handle_line t
             (submit ~id:"faulty" ~faults:"transient-link:p=0.05" ~fault_seed:42 ()));
        match Serve.drain t with
        | [ r ] ->
            let o = parse r in
            check_string "status" "ok" (Option.get (str o "status"));
            check_int "sweeps identical to clean" want_sweeps (Option.get (inum o "sweeps"));
            check_bool "residual identical to clean" true
              (Option.get (num o "residual") = want_residual);
            let f = Option.get (Json.member "faults" o) in
            check_int "unrecovered" 0 (Option.get (inum f "unrecovered"));
            let injected = Option.value ~default:0 (inum f "fault.injected") in
            let recovered = Option.value ~default:0 (inum f "fault.recovered") in
            check_bool "faults were injected" true (injected > 0);
            check_int "ledger balances" injected recovered
        | _ -> Alcotest.fail "expected one result");
  ]

(* --- admission control, dispatch order, shutdown ---------------------- *)

let queue_tests =
  [
    case "a full queue rejects the overflow submit and drains" (fun () ->
        let t = server ~queue_bound:2 () in
        check_int "first admitted" 0 (List.length (Serve.handle_line t (submit ~id:"a" ())));
        check_int "second admitted" 0 (List.length (Serve.handle_line t (submit ~id:"b" ())));
        (match Serve.handle_line t (submit ~id:"c" ()) with
        | rejected :: results ->
            let o = parse rejected in
            check_string "status" "rejected" (Option.get (str o "status"));
            check_string "code" "queue-full" (Option.get (str o "code"));
            check_string "id" "c" (Option.get (str o "id"));
            check_int "the wave drained" 2 (List.length results);
            List.iter (fun r -> check_string "drained ok" "ok" (status r)) results
        | [] -> Alcotest.fail "expected a rejection");
        (* the rejection drained the queue: the next submit is admitted *)
        check_int "post-rejection admit" 0
          (List.length (Serve.handle_line t (submit ~id:"d" ())));
        check_int "queued" 1 (Serve.queued t));
    case "drain returns results in submission order plus an ack" (fun () ->
        let t = server ~domains:2 () in
        List.iter
          (fun (id, n) -> ignore (Serve.handle_line t (submit ~id ~n ())))
          [ ("one", 5); ("two", 3); ("three", 7) ];
        match Serve.handle_line t {|{"op":"drain"}|} with
        | [ r1; r2; r3; ack ] ->
            check_string "order 1" "one" (Option.get (str (parse r1) "id"));
            check_string "order 2" "two" (Option.get (str (parse r2) "id"));
            check_string "order 3" "three" (Option.get (str (parse r3) "id"));
            let a = parse ack in
            check_string "ack op" "drained" (Option.get (str a "op"));
            check_int "ack jobs" 3 (Option.get (inum a "jobs"))
        | rs -> Alcotest.failf "expected 3 results + ack, got %d" (List.length rs));
    case "mixed clean and faulted jobs keep submission order" (fun () ->
        let t = server ~domains:2 () in
        ignore (Serve.handle_line t (submit ~id:"c1" ()));
        ignore
          (Serve.handle_line t
             (submit ~id:"f1" ~faults:"transient-link:p=0.05" ~fault_seed:1 ()));
        ignore (Serve.handle_line t (submit ~id:"c2" ~n:3 ()));
        (match Serve.drain t with
        | [ r1; r2; r3 ] ->
            check_string "order 1" "c1" (Option.get (str (parse r1) "id"));
            check_string "order 2" "f1" (Option.get (str (parse r2) "id"));
            check_string "order 3" "c2" (Option.get (str (parse r3) "id"));
            List.iter (fun r -> check_string "all ok" "ok" (status r)) [ r1; r2; r3 ]
        | rs -> Alcotest.failf "expected 3 results, got %d" (List.length rs)));
    case "shutdown flushes the queue and reports a summary" (fun () ->
        let t = server () in
        ignore (Serve.handle_line t (submit ~id:"last" ()));
        check_bool "not yet stopped" false (Serve.stopped t);
        (match Serve.handle_line t {|{"op":"shutdown"}|} with
        | [ result; summary ] ->
            check_string "queued job served" "ok" (status result);
            let o = parse summary in
            check_string "op" "shutdown" (Option.get (str o "op"));
            let s = Option.get (Json.member "summary" o) in
            check_int "submitted" 1 (Option.get (inum s "submitted"));
            check_int "completed" 1 (Option.get (inum s "completed"));
            check_int "failed" 0 (Option.get (inum s "failed"));
            check_bool "latency percentiles present" true
              (Option.get (inum s "p99_usec") >= Option.get (inum s "p50_usec"))
        | rs -> Alcotest.failf "expected result + summary, got %d" (List.length rs));
        check_bool "stopped" true (Serve.stopped t));
    case "serve_channels drains on EOF" (fun () ->
        let t = server () in
        let input = submit ~id:"eof" () ^ "\n" in
        let ic_r, ic_w = Unix.pipe () in
        let oc_path = Filename.temp_file "serve_test" ".out" in
        let oc = open_out oc_path in
        let wc = Unix.out_channel_of_descr ic_w in
        output_string wc input;
        close_out wc;
        Serve.serve_channels t (Unix.in_channel_of_descr ic_r) oc;
        close_out oc;
        let lines = In_channel.with_open_text oc_path In_channel.input_lines in
        Sys.remove oc_path;
        match lines with
        | [ r ] -> check_string "result flushed at EOF" "ok" (status r)
        | ls -> Alcotest.failf "expected one response line, got %d" (List.length ls));
    case "create rejects nonsense configuration" (fun () ->
        let bad cfg =
          try
            ignore (Serve.create ~config:cfg ());
            false
          with Invalid_argument _ -> true
        in
        check_bool "queue bound 0" true
          (bad { Serve.default_config with Serve.queue_bound = 0 });
        check_bool "domains 0" true
          (bad { Serve.default_config with Serve.domains = 0 });
        check_bool "negative cache bound" true
          (bad { Serve.default_config with Serve.cache_bound = -1 }));
  ]

(* --- bounded caches --------------------------------------------------- *)

let cache_tests =
  [
    case "the plan cache evicts least-recently-used entries" (fun () ->
        (* plans live in the one compile cache, each inside its kernel *)
        let sem_of n =
          let prog, _ = vecadd_program ~n () in
          fst (semantic_of_program prog 1)
        in
        let small = sem_of 16 and big = sem_of 32 in
        let cache = Nsc_sim.Kernel.make_cache ~bound:1 () in
        let total () = Nsc_sim.Stats.cache_evictions () in
        let before = total () in
        let plan sem = (Nsc_sim.Kernel.find_or_compile cache params sem).Nsc_sim.Kernel.plan in
        let p1 = plan small in
        check_int "first insert evicts nothing" 0 (Nsc_sim.Lru.evictions cache);
        let p2 = plan big in
        check_int "second insert evicts the first" 1 (Nsc_sim.Lru.evictions cache);
        (* the evicted entry recompiles, and the survivor is evicted in turn *)
        let p1' = plan small in
        check_int "reinsert evicts again" 2 (Nsc_sim.Lru.evictions cache);
        check_int "the process-wide total follows" (before + 2) (total ());
        check_bool "recompiled plan is fresh" true (not (p1 == p1'));
        check_bool "plans keep their semantics" true
          (p1.Nsc_sim.Plan.sem == small && p2.Nsc_sim.Plan.sem == big
          && p1'.Nsc_sim.Plan.sem == small));
    case "a cache hit refreshes recency" (fun () ->
        let sem_of n =
          let prog, _ = vecadd_program ~n () in
          fst (semantic_of_program prog 1)
        in
        let a = sem_of 8 and b = sem_of 16 and c = sem_of 32 in
        let cache = Nsc_sim.Kernel.make_cache ~bound:2 () in
        let find = Nsc_sim.Kernel.find_or_compile cache params in
        let ka = find a in
        ignore (find b);
        (* touch [a], then insert [c]: the LRU victim must be [b], not [a] *)
        ignore (find a);
        ignore (find c);
        let ka' = find a in
        check_bool "a survived (hit, no recompile)" true (ka == ka'));
    case "make_cache rejects a zero bound" (fun () ->
        List.iter
          (fun bound ->
            check_bool (Printf.sprintf "bound %d" bound) true
              (try
                 ignore (Nsc_sim.Kernel.make_cache ~bound ());
                 false
               with Invalid_argument _ -> true))
          [ 0; -1 ]);
    case "a bounded server evicts under a mixed job burst" (fun () ->
        let t = server ~cache_bound:2 () in
        List.iteri
          (fun i n -> ignore (Serve.handle_line t (submit ~id:(string_of_int i) ~n ())))
          [ 5; 7; 5; 7 ];
        let results = Serve.drain t in
        List.iter (fun r -> check_string "all ok" "ok" (status r)) results;
        let s = Option.get (Json.member "summary" (parse (Serve.summary_response t))) in
        check_bool "evictions observed" true
          (Option.get (inum s "cache_evictions") >= 1));
    case "the summary counts only the daemon's own evictions" (fun () ->
        (* bound 8 holds every plan of one n=5 job: the daemon never evicts *)
        let t = server ~cache_bound:8 () in
        ignore (Serve.handle_line t (submit ~id:"only" ~n:5 ()));
        List.iter (fun r -> check_string "ok" "ok" (status r)) (Serve.drain t);
        (* an unrelated bounded cache in the same process evicts *)
        let other = Nsc_sim.Kernel.make_cache ~bound:1 () in
        List.iter
          (fun n ->
            let prog, _ = vecadd_program ~n () in
            ignore
              (Nsc_sim.Kernel.find_or_compile other params (fst (semantic_of_program prog 1))))
          [ 8; 16; 32 ];
        check_int "the other cache evicted" 2 (Nsc_sim.Lru.evictions other);
        let s = Option.get (Json.member "summary" (parse (Serve.summary_response t))) in
        check_int "the daemon evicted nothing" 0 (Option.get (inum s "cache_evictions")));
  ]

(* --- metric isolation (property) -------------------------------------- *)

(* Strip the fields that legitimately depend on host scheduling:
   wall-clock latency, the domain-local Bigarray scratch-pool warmth, and
   the shared compile-cache warmth (two concurrent jobs may race to
   compile the same instruction, so whether a lookup hits or compiles
   depends on the interleaving).  Everything else — every simulated-machine counter,
   sweeps, residuals — must be bit-identical between a wave fanned across
   domains and the same jobs run one by one. *)
let host_counters =
  [ "kernel.pool_hits"; "kernel.pool_misses"; "kernel.cache_hits";
    "kernel.compiles"; "plan.compiles"; "cache.evictions" ]
let strip_host_noise obj =
  match obj with
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             match (k, v) with
             | "latency_usec", _ -> None
             | "counters", Json.Obj cs ->
                 Some
                   ( k,
                     Json.Obj
                       (List.filter
                          (fun (ck, _) -> not (List.mem ck host_counters))
                          cs) )
             | _ -> Some (k, v))
           fields)
  | o -> o

let isolation_tests =
  [
    qcheck ~count:15 "interleaved jobs carry the same metrics as serial runs"
      QCheck2.Gen.(list_size (int_range 2 5) (int_range 0 2))
      (fun picks ->
        let sizes = List.map (fun i -> [| 3; 5; 7 |].(i)) picks in
        let run domains =
          let t = server ~domains () in
          List.iteri
            (fun i n ->
              ignore (Serve.handle_line t (submit ~id:(Printf.sprintf "j%d" i) ~n ())))
            sizes;
          List.map (fun r -> Json.to_string (strip_host_noise (parse r))) (Serve.drain t)
        in
        run 2 = run 1);
    case "a clean job after a faulted one matches a fresh server" (fun () ->
        let clean t =
          ignore (Serve.handle_line t (submit ~id:"clean" ~n:5 ()));
          match Serve.drain t with
          | [ r ] -> Json.to_string (strip_host_noise (parse r))
          | _ -> Alcotest.fail "expected one result"
        in
        let t = server () in
        ignore
          (Serve.handle_line t
             (submit ~id:"f" ~faults:"transient-link:p=0.5,fu-fault:p=0.05" ~fault_seed:3 ()));
        ignore (Serve.drain t);
        check_string "bit-identical" (clean (server ())) (clean t));
    case "faulted and clean jobs share a wave as if run serially" (fun () ->
        let run domains =
          let t = server ~domains () in
          List.iter
            (fun line -> ignore (Serve.handle_line t line))
            [ submit ~id:"a" ~n:5 ();
              submit ~id:"b" ~n:5 ~faults:"transient-link:p=0.2,dma-stall:p=0.05"
                ~fault_seed:11 ();
              submit ~id:"c" ~n:7 ();
              submit ~id:"d" ~n:7 ~faults:"transient-link:p=0.1" ~fault_seed:4 () ];
          List.map (fun r -> Json.to_string (strip_host_noise (parse r))) (Serve.drain t)
        in
        let serial = run 1 in
        check_bool "faults present" true
          (List.exists (fun r -> Json.member "faults" (parse r) <> None) serial);
        check_bool "domains 2 = domains 1" true (run 2 = serial));
  ]

let suite =
  [
    ("serve:protocol", protocol_tests);
    ("serve:jobs", job_tests);
    ("serve:queue", queue_tests);
    ("serve:caches", cache_tests);
    ("serve:isolation", isolation_tests);
  ]
