(* The fault layer: seeded PRNG determinism, the --faults grammar, ledger
   accounting, fault-aware routing, parity/checkpoint mechanics, multi-node
   recovery, and the fault-tolerant solvers. *)

open Util
module F = Nsc_fault.Fault
module P = Nsc_fault.Prng
module Router = Nsc_arch.Router
module Memory = Nsc_arch.Memory

let lv ledger name = Option.value ~default:0 (List.assoc_opt name ledger)

let spec_of str =
  match F.parse str with Ok s -> s | Error e -> Alcotest.failf "parse %S: %s" str e

(* A fresh model for [f]. *)
let with_model ?(seed = 1) str f = f (F.make ~seed (spec_of str))

(* A run drawing from [m]. *)
let run_of m = Nsc_sim.Run.make ~fault:m ()

(* --- the PRNG ------------------------------------------------------- *)

let draw_n r n = List.init n (fun _ -> P.next_int64 r)

let prng_tests =
  [
    case "same seed, same stream" (fun () ->
        check_bool "1000 draws equal" true
          (draw_n (P.create ~seed:42) 1000 = draw_n (P.create ~seed:42) 1000));
    case "different seeds, different streams" (fun () ->
        check_bool "streams differ" false
          (draw_n (P.create ~seed:1) 10 = draw_n (P.create ~seed:2) 10));
    case "copy preserves the stream position" (fun () ->
        let r = P.create ~seed:7 in
        ignore (draw_n r 13);
        let c = P.copy r in
        check_bool "copy continues identically" true (draw_n r 20 = draw_n c 20));
    case "float draws live in [0, 1)" (fun () ->
        let r = P.create ~seed:5 in
        for _ = 1 to 1000 do
          let x = P.float r in
          if x < 0.0 || x >= 1.0 then Alcotest.failf "draw %g outside [0,1)" x
        done);
    case "int draws respect the bound" (fun () ->
        let r = P.create ~seed:5 in
        for _ = 1 to 1000 do
          let x = P.int r 10 in
          if x < 0 || x >= 10 then Alcotest.failf "draw %d outside [0,10)" x
        done;
        check_bool "bound 0 rejected" true
          (try
             ignore (P.int r 0);
             false
           with Invalid_argument _ -> true));
  ]

(* --- the --faults grammar ------------------------------------------- *)

let spec_tests =
  [
    case "full specification parses" (fun () ->
        let s =
          spec_of
            "transient-link:p=0.01:retries=6:backoff=8,dead-link:0-1,dead-link:5-3,\
             mem-corrupt:p=0.1,dma-stall:p=0.05:cycles=32,fu-fault:p=0.001"
        in
        check_float "p" 0.01 s.F.transient_link_p;
        check_int "retries" 6 s.F.max_retries;
        check_int "backoff" 8 s.F.backoff_cycles;
        check_bool "dead links normalised and sorted" true
          (s.F.dead_links = [ (0, 1); (3, 5) ]);
        check_float "mem" 0.1 s.F.mem_corrupt_p;
        check_float "dma" 0.05 s.F.dma_stall_p;
        check_int "stall cycles" 32 s.F.dma_stall_cycles;
        check_float "fu" 0.001 s.F.fu_fault_p);
    case "defaults survive a minimal clause" (fun () ->
        let s = spec_of "transient-link:p=0.25" in
        check_int "retries default" 4 s.F.max_retries;
        check_int "backoff default" 16 s.F.backoff_cycles;
        check_int "stall cycles default" 64 s.F.dma_stall_cycles);
    case "spec_to_string round-trips" (fun () ->
        let s =
          spec_of "transient-link:p=0.01:retries=3:backoff=4,dead-link:2-6,dma-stall:p=0.5"
        in
        check_bool "reparse equals" true (spec_of (F.spec_to_string s) = s));
    case "empty spec is the null model" (fun () ->
        check_bool "none" true (F.is_none (spec_of ""));
        check_string "prints as none" "none" (F.spec_to_string F.none));
    case "malformed specifications are rejected" (fun () ->
        List.iter
          (fun str ->
            match F.parse str with
            | Ok _ -> Alcotest.failf "%S should not parse" str
            | Error _ -> ())
          [
            "transient-link:p=1.5";
            "transient-link";
            "bogus:p=0.1";
            "dead-link:3-3";
            "dead-link:banana";
            "dma-stall:p=0.1:cycles=-2";
            "fu-fault:p=nope";
          ]);
  ]

(* --- ledger accounting ----------------------------------------------- *)

let ledger_tests =
  [
    case "each model owns a zeroed ledger" (fun () ->
        with_model "dead-link:0-1" (fun m ->
            F.note_unrecovered m 3;
            check_int "booked" 3 (lv (F.ledger m) "fault.unrecovered");
            with_model "dead-link:0-1" (fun m' ->
                check_int "a fresh model starts at zero" 0
                  (lv (F.ledger m') "fault.unrecovered"))));
    case "transient draws book injection, detection and retries" (fun () ->
        with_model "transient-link:p=1:retries=3:backoff=8" (fun m ->
            let o = F.draw_link_failures m in
            check_int "failures capped at the budget" 3 o.F.failures;
            check_bool "exhausted" true o.F.exhausted;
            check_int "exponential backoff 8+16+32" 56 o.F.backoff;
            let l = F.ledger m in
            check_int "injected" 3 (lv l "fault.injected");
            check_int "detected" 3 (lv l "fault.detected");
            check_int "retries" 3 (lv l "fault.retries");
            check_int "backoff cycles" 56 (lv l "fault.backoff_cycles")));
    case "stream overhead recovers in place" (fun () ->
        with_model "transient-link:p=1:retries=3:backoff=8" (fun m ->
            (* 56 backoff + one slow retransmit at 8 * 2^3 after exhaustion *)
            check_int "overhead" (56 + 64) (F.stream_overhead m);
            check_int "nothing outstanding" 0 (F.outstanding m)));
    case "reconcile books outstanding faults as unrecovered" (fun () ->
        with_model "fu-fault:p=1" (fun m ->
            (match F.draw_fu_fault m ~vlen:16 ~units:2 with
            | Some (u, e) ->
                check_bool "unit in range" true (u >= 0 && u < 2);
                check_bool "element in range" true (e >= 0 && e < 16)
            | None -> Alcotest.fail "p=1 draw must land");
            check_int "one outstanding" 1 (F.outstanding m);
            check_int "one reconciled" 1 (F.settle m);
            check_int "none outstanding after" 0 (F.outstanding m);
            check_int "booked unrecovered" 1 (lv (F.ledger m) "fault.unrecovered")));
    case "seeded draws are reproducible" (fun () ->
        let run () =
          with_model ~seed:42 "transient-link:p=0.3,dma-stall:p=0.2" (fun m ->
              let total = ref 0 in
              for _ = 1 to 50 do
                total := !total + F.stream_overhead m
              done;
              (!total, F.ledger m))
        in
        check_bool "two installs, same schedule" true (run () = run ()));
  ]

(* --- fault-aware routing --------------------------------------------- *)

let hops_ok ~dim ~dead ~src path =
  (* every hop a hypercube edge, none crossing the dead link *)
  let dead_key (a, b) = (min a b, max a b) in
  let rec walk prev = function
    | [] -> true
    | h :: rest ->
        Router.valid_node ~dim h
        && List.mem h (Router.neighbours ~dim prev)
        && dead_key (prev, h) <> dead_key dead
        && walk h rest
  in
  walk src path

let router_tests =
  [
    case "route to self is empty" (fun () ->
        check_bool "Some []" true
          (Router.route_avoiding ~dim:3 ~src:5 ~dst:5 ~link_ok:(fun _ _ -> true)
          = Some []));
    case "any single dead link in a 3-cube is routed around" (fun () ->
        let dim = 3 in
        let n = Router.nodes_of_dim dim in
        let detours = ref 0 in
        for a = 0 to n - 1 do
          List.iter
            (fun b ->
              if a < b then
                let dead = (a, b) in
                let link_ok x y = (min x y, max x y) <> dead in
                for src = 0 to n - 1 do
                  for dst = 0 to n - 1 do
                    match Router.route_fault_aware ~dim ~src ~dst ~link_ok with
                    | None -> Alcotest.failf "dead %d-%d disconnects %d->%d" a b src dst
                    | Some (path, detoured) ->
                        if detoured then incr detours;
                        if not (hops_ok ~dim ~dead ~src path) then
                          Alcotest.failf "bad path for %d->%d around %d-%d" src dst a b;
                        let last = if path = [] then src else List.nth path (List.length path - 1) in
                        check_int "reaches the destination" dst last;
                        check_bool "no shorter than the Hamming distance" true
                          (List.length path >= Router.distance src dst)
                  done
                done)
            (Router.neighbours ~dim a)
        done;
        check_bool "some routes actually detoured" true (!detours > 0));
    case "detour around a dead direct link costs two extra hops" (fun () ->
        let link_ok x y = (min x y, max x y) <> (0, 1) in
        match Router.route_fault_aware ~dim:2 ~src:0 ~dst:1 ~link_ok with
        | Some (path, true) -> check_int "3 hops" 3 (List.length path)
        | Some (_, false) -> Alcotest.fail "should have detoured"
        | None -> Alcotest.fail "2-cube minus one edge stays connected");
    case "a severed 1-cube is reported disconnected" (fun () ->
        check_bool "None" true
          (Router.route_fault_aware ~dim:1 ~src:0 ~dst:1 ~link_ok:(fun _ _ -> false)
          = None));
    case "path_ok validates e-cube routes" (fun () ->
        let path = Router.route ~dim:3 ~src:0 ~dst:7 in
        check_bool "healthy" true (Router.path_ok ~link_ok:(fun _ _ -> true) ~src:0 path);
        let first_hop = List.hd path in
        let link_ok x y = (min x y, max x y) <> (min 0 first_hop, max 0 first_hop) in
        check_bool "first hop dead" false (Router.path_ok ~link_ok ~src:0 path));
  ]

(* --- parity, snapshots and checkpoints -------------------------------- *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let memory_tests =
  [
    case "corrupt flips a stored bit and marks parity" (fun () ->
        let st = Memory.make_store 256 in
        Memory.write st 5 1.0;
        let v = Memory.corrupt st 5 in
        check_bool "value changed" false (v = 1.0);
        check_bool "readback sees the flip" true (Memory.read st 5 = v);
        check_bool "parity flagged" true (Memory.parity_errors st = [ 5 ]));
    case "a rewrite scrubs the parity flag" (fun () ->
        let st = Memory.make_store 256 in
        Memory.write st 5 1.0;
        ignore (Memory.corrupt st 5);
        Memory.write st 5 2.0;
        check_bool "scrubbed" true (Memory.parity_errors st = []));
    case "snapshot/restore is bit-identical, parity included" (fun () ->
        let st = Memory.make_store 256 in
        for i = 0 to 63 do
          Memory.write st i (float_of_int i /. 7.0)
        done;
        ignore (Memory.corrupt st 9);
        let snap = Memory.snapshot st in
        let before = Memory.read_strided st ~base:0 ~stride:1 ~count:64 in
        for i = 0 to 63 do
          Memory.write st i 0.0
        done;
        ignore (Memory.corrupt st 40);
        Memory.restore st snap;
        check_bool "words restored" true
          (bits_equal before (Memory.read_strided st ~base:0 ~stride:1 ~count:64));
        check_bool "parity restored" true (Memory.parity_errors st = [ 9 ]));
    case "restore rejects a geometry mismatch" (fun () ->
        let snap = Memory.snapshot (Memory.make_store 256) in
        check_bool "raises" true
          (try
             Memory.restore (Memory.make_store 128) snap;
             false
           with Invalid_argument _ -> true));
    case "checkpoint round-trips a node and scrub finds corruption" (fun () ->
        let node = Nsc_sim.Node.create params in
        let data = Array.init 64 (fun i -> float_of_int (i * i) /. 3.0) in
        Nsc_sim.Node.load_array node ~plane:0 ~base:0 data;
        let ck = Nsc_sim.Checkpoint.capture node in
        ignore (Memory.corrupt (Nsc_sim.Node.plane node 3) 7);
        check_bool "scrub reports the victim" true
          (Nsc_sim.Checkpoint.scrub node = [ (3, 7) ]);
        Nsc_sim.Node.load_array node ~plane:0 ~base:0 (Array.make 64 0.25);
        Nsc_sim.Checkpoint.restore node ck;
        check_bool "plane restored" true
          (bits_equal data (Nsc_sim.Node.dump_array node ~plane:0 ~base:0 ~len:64));
        check_bool "scrub clean after restore" true (Nsc_sim.Checkpoint.scrub node = []));
  ]

(* --- the multi-node recovery ladder ----------------------------------- *)

let multinode_tests =
  [
    case "create rejects out-of-range dimensions" (fun () ->
        let msg = "Multinode.create: dimension must be between 0 and 10 (1..1024 nodes)" in
        Alcotest.check_raises "too big" (Invalid_argument msg) (fun () ->
            ignore (Nsc_sim.Multinode.create ~dim:11 params));
        Alcotest.check_raises "negative" (Invalid_argument msg) (fun () ->
            ignore (Nsc_sim.Multinode.create ~dim:(-1) params));
        check_int "dim 0 is one node" 1
          (Nsc_sim.Multinode.n_nodes (Nsc_sim.Multinode.create ~dim:0 params)));
    case "clean messages cost the e-cube transfer" (fun () ->
        let m = Nsc_sim.Multinode.create ~dim:2 params in
        let cost, delivered =
          Nsc_sim.Multinode.message_cost m { Nsc_sim.Multinode.src = 0; dst = 3; words = 64 }
        in
        check_bool "delivered" true delivered;
        check_int "cost" (Router.transfer_cycles params ~src:0 ~dst:3 ~words:64) cost);
    case "a dead link is detoured and booked recovered" (fun () ->
        with_model "dead-link:0-1" (fun f ->
            let m = Nsc_sim.Multinode.create ~dim:2 ~fault:f params in
            let cost, delivered =
              Nsc_sim.Multinode.message_cost m
                { Nsc_sim.Multinode.src = 0; dst = 1; words = 64 }
            in
            check_bool "delivered via detour" true delivered;
            check_bool "detour costs more than the direct hop" true
              (cost > Router.transfer_cycles params ~src:0 ~dst:1 ~words:64);
            let l = F.ledger f in
            check_int "dead link hit" 1 (lv l "fault.dead_link_hits");
            check_int "rerouted" 1 (lv l "fault.rerouted");
            check_int "extra hops" 2 (lv l "fault.detour_hops");
            check_int "recovered" 1 (lv l "fault.recovered");
            check_int "outstanding" 0 (F.outstanding f)));
    case "a partitioned pair is booked unrecovered, payload dropped" (fun () ->
        with_model "dead-link:0-1" (fun f ->
            let m = Nsc_sim.Multinode.create ~dim:1 ~fault:f params in
            let msg = { Nsc_sim.Multinode.src = 0; dst = 1; words = 4 } in
            let _, delivered = Nsc_sim.Multinode.message_cost m msg in
            check_bool "undeliverable" false delivered;
            check_int "unrecovered" 1 (lv (F.ledger f) "fault.unrecovered");
            Nsc_sim.Multinode.exchange m [ (msg, ([| 9.0; 9.0; 9.0; 9.0 |], 0, 0)) ];
            check_bool "payload never landed" true
              (Nsc_sim.Multinode.node m 1 |> fun n ->
               Nsc_sim.Node.dump_array n ~plane:0 ~base:0 ~len:4 = [| 0.0; 0.0; 0.0; 0.0 |])));
    case "retry exhaustion escalates to a reroute" (fun () ->
        with_model "transient-link:p=1:retries=2:backoff=4" (fun f ->
            let m = Nsc_sim.Multinode.create ~dim:2 ~fault:f params in
            let _, delivered =
              Nsc_sim.Multinode.message_cost m
                { Nsc_sim.Multinode.src = 0; dst = 1; words = 64 }
            in
            check_bool "still delivered" true delivered;
            check_bool "escalation rerouted" true (lv (F.ledger f) "fault.rerouted" >= 1);
            check_int "outstanding" 0 (F.outstanding f)));
    case "exchange delivers payloads under transient faults" (fun () ->
        with_model ~seed:9 "transient-link:p=0.5" (fun f ->
            let m = Nsc_sim.Multinode.create ~dim:2 ~fault:f params in
            let payload = [| 1.0; 2.0; 3.0 |] in
            Nsc_sim.Multinode.exchange m
              [ ({ Nsc_sim.Multinode.src = 0; dst = 3; words = 3 }, (payload, 2, 10)) ];
            check_bool "payload landed" true
              (bits_equal payload
                 (Nsc_sim.Node.dump_array (Nsc_sim.Multinode.node m 3) ~plane:2 ~base:10
                    ~len:3));
            check_bool "machine time advanced" true (m.Nsc_sim.Multinode.cycles > 0);
            check_int "outstanding" 0 (F.outstanding f)));
  ]

(* --- the engine and the solvers under faults --------------------------- *)

open Nsc_apps

let clean_n5 =
  lazy
    (match Jacobi.solve kb (Poisson.manufactured 5) ~tol:1e-5 ~max_iters:500 with
    | Ok o -> o
    | Error e -> failwith e)

let solver_tests =
  [
    case "an FU fault lands as a trapped NaN" (fun () ->
        with_model "fu-fault:p=1" (fun m ->
            let prog, _ = vecadd_program () in
            let sem, _ = semantic_of_program prog 1 in
            let node = Nsc_sim.Node.create params in
            Nsc_sim.Node.load_array node ~plane:0 ~base:0 (Array.make 16 1.5);
            Nsc_sim.Node.load_array node ~plane:1 ~base:0 (Array.make 16 2.5);
            let r = Nsc_sim.Engine.run node ~run:(run_of m) sem in
            let z = Nsc_sim.Node.dump_array node ~plane:2 ~base:0 ~len:16 in
            check_bool "a NaN reached the output plane" true
              (Array.exists Float.is_nan z);
            check_bool "the trap was recorded" true (List.length r.Nsc_sim.Engine.events > 0);
            let l = F.ledger m in
            check_int "injected" 1 (lv l "fault.injected");
            check_int "detected" 1 (lv l "fault.detected");
            check_int "reconciled as unrecovered" 1 (F.settle m)));
    case "a seeded faulted solve is cycle-reproducible" (fun () ->
        let run () =
          with_model ~seed:42 "transient-link:p=0.05,dma-stall:p=0.02" (fun m ->
              match
                Jacobi.solve kb ~run:(run_of m) (Poisson.manufactured 5) ~tol:1e-5
                  ~max_iters:500
              with
              | Ok o -> (o.Jacobi.stats.Nsc_sim.Sequencer.total_cycles, F.ledger m)
              | Error e -> failwith e)
        in
        check_bool "identical cycles and ledger" true (run () = run ()));
    qcheck ~count:8 "transient link faults never change the answer"
      QCheck2.Gen.(int_range 0 1000)
      (fun seed ->
        let clean = Lazy.force clean_n5 in
        with_model ~seed "transient-link:p=0.02" (fun m ->
            match
              Jacobi.solve kb ~run:(run_of m) (Poisson.manufactured 5) ~tol:1e-5
                ~max_iters:500
            with
            | Error e -> failwith e
            | Ok o ->
                o.Jacobi.sweeps = clean.Jacobi.sweeps
                && o.Jacobi.final_change = clean.Jacobi.final_change
                && bits_equal o.Jacobi.u clean.Jacobi.u));
    case "solve_ft without a model matches solve exactly" (fun () ->
        let clean = Lazy.force clean_n5 in
        match Jacobi.solve_ft kb (Poisson.manufactured 5) ~tol:1e-5 ~max_iters:500 with
        | Error e -> failwith e
        | Ok ft ->
            check_int "rollback-free" 0 ft.Jacobi.rollbacks;
            check_int "same sweeps" clean.Jacobi.sweeps ft.Jacobi.outcome.Jacobi.sweeps;
            check_bool "same answer" true
              (bits_equal clean.Jacobi.u ft.Jacobi.outcome.Jacobi.u));
    qcheck ~count:6 "checkpointed solve converges under memory corruption"
      QCheck2.Gen.(int_range 0 1000)
      (fun seed ->
        with_model ~seed "mem-corrupt:p=0.5" (fun m ->
            match
              Jacobi.solve_ft kb ~run:(run_of m) (Poisson.manufactured 5) ~tol:1e-5
                ~max_iters:500
            with
            | Error e -> failwith e
            | Ok ft ->
                let l = F.ledger m in
                ft.Jacobi.outcome.Jacobi.final_change <= 1e-5
                && F.outstanding m = 0
                && lv l "fault.injected"
                   = lv l "fault.recovered" + lv l "fault.unrecovered"));
  ]

(* --- the serializer under hostile input -------------------------------- *)

let base_text = lazy (Nsc_diagram.Serialize.to_string (fst (vecadd_program ())))

let parses_without_raising text =
  match Nsc_diagram.Serialize.of_string params text with
  | Ok _ | Error _ -> true
  | exception e -> Alcotest.failf "parser raised %s" (Printexc.to_string e)

let mutate text (kind, pos, byte) =
  let n = String.length text in
  if n = 0 then text
  else
    match kind with
    | 0 ->
        (* flip one byte *)
        let b = Bytes.of_string text in
        Bytes.set b (pos mod n) (Char.chr (byte land 0xff));
        Bytes.to_string b
    | 1 -> String.sub text 0 (pos mod n) (* truncate *)
    | 2 ->
        (* delete one line *)
        let lines = String.split_on_char '\n' text in
        let k = pos mod List.length lines in
        String.concat "\n" (List.filteri (fun i _ -> i <> k) lines)
    | 3 ->
        (* duplicate one line *)
        let lines = String.split_on_char '\n' text in
        let k = pos mod List.length lines in
        String.concat "\n"
          (List.concat_map (fun (i, l) -> if i = k then [ l; l ] else [ l ])
             (List.mapi (fun i l -> (i, l)) lines))
    | _ ->
        (* insert one byte *)
        let k = pos mod (n + 1) in
        String.sub text 0 k
        ^ String.make 1 (Char.chr (byte land 0xff))
        ^ String.sub text k (n - k)

let serializer_tests =
  [
    case "an out-of-range ALS id is a diagnostic, not a crash" (fun () ->
        let bumped =
          String.split_on_char '\n' (Lazy.force base_text)
          |> List.map (fun line ->
                 match String.split_on_char ' ' line with
                 | "icon" :: id :: "als" :: _ :: rest ->
                     String.concat " " ("icon" :: id :: "als" :: "99" :: rest)
                 | _ -> line)
          |> String.concat "\n"
        in
        match Nsc_diagram.Serialize.of_string params bumped with
        | Ok _ -> Alcotest.fail "ALS 99 should not load"
        | Error e -> check_bool "names the range" true (String.length e > 0)
        | exception e -> Alcotest.failf "parser raised %s" (Printexc.to_string e));
    qcheck ~count:500 "no mutation of a valid program makes decoding raise"
      QCheck2.Gen.(triple (int_range 0 4) (int_bound 10_000) (int_bound 255))
      (fun m -> parses_without_raising (mutate (Lazy.force base_text) m));
    qcheck ~count:200 "double mutations decode without raising"
      QCheck2.Gen.(
        pair
          (triple (int_range 0 4) (int_bound 10_000) (int_bound 255))
          (triple (int_range 0 4) (int_bound 10_000) (int_bound 255)))
      (fun (m1, m2) ->
        parses_without_raising (mutate (mutate (Lazy.force base_text) m1) m2));
  ]

(* --- asynchronous exchange under faults ----------------------------- *)

let async_fault_tests =
  [
    qcheck ~count:8 "overlapped exchange matches synchronous under transient faults"
      QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 4))
      (fun (seed, dim) ->
        (* the async schedule must consume the seeded draw stream in the
           same order as the sync one: same fields, same recovery ledger *)
        let go overlap =
          with_model ~seed "transient-link:p=0.2:retries=2" (fun m ->
              ( Result.get_ok
                  (Nsc_apps.Parallel.run_field ~overlap ~run:(run_of m) params ~n:5 ~iters:2
                     ~dim),
                F.ledger m ))
        in
        go false = go true);
    case "exchange_finish resolves a detoured message's bookkeeping" (fun () ->
        with_model "dead-link:0-1" (fun f ->
            let m = Nsc_sim.Multinode.create ~dim:2 ~fault:f params in
            let h =
              Nsc_sim.Multinode.exchange_start m
                [ ({ Nsc_sim.Multinode.src = 0; dst = 1; words = 4 },
                   ([| 7.0; 7.0; 7.0; 7.0 |], 0, 0)) ]
            in
            (* the payload travels at post time, but the recovery ledger is
               only settled when the exchange completes *)
            check_bool "payload landed eagerly" true
              (Nsc_sim.Node.dump_array (Nsc_sim.Multinode.node m 1) ~plane:0 ~base:0
                 ~len:4
              = [| 7.0; 7.0; 7.0; 7.0 |]);
            check_int "not yet booked rerouted" 0 (lv (F.ledger f) "fault.rerouted");
            Nsc_sim.Multinode.exchange_finish m h;
            let l = F.ledger f in
            check_int "dead link hit" 1 (lv l "fault.dead_link_hits");
            check_int "rerouted" 1 (lv l "fault.rerouted");
            check_int "recovered" 1 (lv l "fault.recovered");
            check_int "outstanding" 0 (F.outstanding f)));
  ]

(* --- faulted runs on several domains at once ---------------------------- *)

let concurrent_specs =
  [| "transient-link:p=0.05,dma-stall:p=0.02";
     "mem-corrupt:p=0.3,transient-link:p=0.01";
     "fu-fault:p=0.02,transient-link:p=0.02" |]

(* One checkpointed Jacobi job under its own model, over a shared [cache]:
   everything the run observably produces. *)
let faulted_job cache (n, seed, spec) =
  let m = F.make ~seed (spec_of concurrent_specs.(spec)) in
  let run = Nsc_sim.Run.make ~cache ~fault:m () in
  match Jacobi.solve_ft kb ~run (Poisson.manufactured n) ~tol:1e-5 ~max_iters:500 with
  | Error e -> Error e
  | Ok ft ->
      let o = ft.Jacobi.outcome in
      let st = o.Jacobi.stats in
      Ok
        ( F.ledger m,
          Int64.bits_of_float o.Jacobi.final_change,
          o.Jacobi.sweeps,
          st.Nsc_sim.Sequencer.total_cycles,
          Nsc_arch.Interrupt.trapped_exceptions st.Nsc_sim.Sequencer.events,
          ft.Jacobi.rollbacks )

let concurrent_tests =
  [
    qcheck ~count:10 "two faulted solves on two domains equal the same solves run serially"
      QCheck2.Gen.(
        let job = pair (int_range 0 1000) (int_range 0 2) in
        pair job job)
      (fun ((seed1, spec1), (seed2, spec2)) ->
        let j1 = (5, seed1, spec1) and j2 = (7, seed2, spec2) in
        let serial =
          let cache = Nsc_sim.Kernel.make_cache () in
          let r1 = faulted_job cache j1 in
          (r1, faulted_job cache j2)
        in
        let cache = Nsc_sim.Kernel.make_cache () in
        let other = Domain.spawn (fun () -> faulted_job cache j2) in
        let r1 = faulted_job cache j1 in
        let concurrent = (r1, Domain.join other) in
        let injected = function
          | Ok (l, _, _, _, _, _) -> lv l "fault.injected" > 0
          | Error _ -> false
        in
        injected (fst serial) && injected (snd serial) && concurrent = serial);
  ]

let suite =
  [
    ("fault:prng", prng_tests);
    ("fault:spec", spec_tests);
    ("fault:ledger", ledger_tests);
    ("fault:routing", router_tests);
    ("fault:storage", memory_tests);
    ("fault:multinode", multinode_tests);
    ("fault:async-exchange", async_fault_tests);
    ("fault:solvers", solver_tests);
    ("fault:concurrent", concurrent_tests);
    ("fault:serializer", serializer_tests);
  ]
