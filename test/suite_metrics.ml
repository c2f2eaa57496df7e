(* The metrics layer: scoped contexts, log-bucketed histograms, cycle
   attribution, snapshot/diff, and the counter-catalogue drift check
   against docs/OBSERVABILITY.md (and the fault.* table of
   docs/FAULTS.md). *)

open Util
module Metrics = Nsc_metrics.Metrics
module Json = Nsc_metrics.Json

(* Compile and run the vecadd program on a fresh node under [ctx],
   returning the run's counters deterministically attributed there. *)
let run_vecadd_in ctx ?(n = 16) () =
  Metrics.with_ctx ctx (fun () ->
      let prog, _ = vecadd_program ~n () in
      let compiled =
        match Nsc_microcode.Codegen.compile kb prog with
        | Ok c -> c
        | Error _ -> failwith "vecadd codegen"
      in
      let node = Nsc_sim.Node.create params in
      Nsc_sim.Node.load_array node ~plane:0 ~base:0 (Array.init n float_of_int);
      Nsc_sim.Node.load_array node ~plane:1 ~base:0
        (Array.init n (fun i -> 2.0 *. float_of_int i));
      match Nsc_sim.Sequencer.run node compiled with
      | Ok o -> (o, Nsc_sim.Node.dump_array node ~plane:2 ~base:0 ~len:n)
      | Error e -> failwith e)

let ctx_counter_value ctx name =
  match Metrics.find_counter name with
  | Some c -> Metrics.value ctx c
  | None -> Alcotest.failf "counter %s is not registered" name

(* --- the counter-catalogue drift check --------------------------------- *)

(* Table rows documenting a counter or histogram: lines of the form
   "| `name` | unit | text |", as (section heading, name, unit, whole
   row).  Rows whose first cell is not a backticked dotted name (header
   rows, span-schema rows) are skipped. *)
let documented_rows path =
  let ic = open_in path in
  let rows = ref [] and heading = ref "" in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:"#" line then heading := line
       else if String.length line > 4 && String.sub line 0 3 = "| `" then
         match String.split_on_char '|' line with
         | _ :: name_cell :: unit_cell :: _ ->
             let name = String.trim name_cell in
             let name = String.sub name 1 (max 0 (String.length name - 2)) in
             if String.contains name '.' && not (String.contains name ' ') then
               rows := (!heading, name, String.trim unit_cell, line) :: !rows
         | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !rows

let documented_counters path =
  List.sort_uniq compare (List.map (fun (_, n, _, _) -> n) (documented_rows path))

let mentions sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The docs are declared as dune deps of the test, so they sit next to
   the build directory exactly like the example programs do. *)
let observability_md = "../docs/OBSERVABILITY.md"
let faults_md = "../docs/FAULTS.md"
let resilience_md = "../docs/RESILIENCE.md"

let drift_tests =
  [
    case "every registered counter is documented and vice versa" (fun () ->
        let documented =
          documented_counters observability_md
          @ documented_counters faults_md
          @ documented_counters resilience_md
          |> List.sort_uniq compare
          (* hist.* rows belong to the histogram table, checked below *)
          |> List.filter (fun n -> not (String.starts_with ~prefix:"hist." n))
        in
        (* test.* counters are registered by this suite itself; bench.*
           by the bench executable — neither belongs in the docs *)
        let registered =
          Metrics.registered_counters ()
          |> List.map Metrics.counter_name
          |> List.filter (fun n ->
                 not
                   (String.starts_with ~prefix:"test." n
                   || String.starts_with ~prefix:"bench." n))
        in
        List.iter
          (fun n ->
            check_bool (Printf.sprintf "%s is documented" n) true
              (List.mem n documented))
          registered;
        List.iter
          (fun n ->
            check_bool (Printf.sprintf "%s is registered" n) true
              (List.mem n registered))
          documented);
    case "documented units, class and aggregate labels match the registry"
      (fun () ->
        let rows =
          documented_rows observability_md @ documented_rows faults_md
          @ documented_rows resilience_md
        in
        List.iter
          (fun (heading, name, units, row) ->
            match Metrics.find_counter name with
            | None -> ()
            | Some c ->
                check_string (name ^ " unit") (Metrics.counter_units c) units;
                check_bool (name ^ " sits in the always-on table iff always-on")
                  (Metrics.is_always c)
                  (mentions "Always-on" heading);
                check_bool (name ^ " is labelled an aggregate in both places")
                  (mentions "aggregate" (Metrics.counter_desc c))
                  (mentions "aggregate" row))
          rows);
    case "every registered histogram is documented" (fun () ->
        let documented =
          documented_counters observability_md
          @ documented_counters resilience_md
          |> List.sort_uniq compare
          |> List.filter (String.starts_with ~prefix:"hist.")
        in
        let registered =
          Metrics.registered_histograms ()
          |> List.map Metrics.histogram_name
          (* test.* histograms are this suite's own fixtures *)
          |> List.filter (fun n ->
                 not
                   (String.starts_with ~prefix:"test." n
                   || String.starts_with ~prefix:"bench." n))
        in
        List.iter
          (fun n ->
            check_bool (Printf.sprintf "%s is documented" n) true
              (List.mem n documented))
          registered;
        List.iter
          (fun n ->
            check_bool (Printf.sprintf "%s is registered" n) true
              (List.mem n registered))
          documented);
  ]

(* --- histogram bucket geometry and percentiles -------------------------- *)

let h_test =
  Metrics.histogram ~name:"test.hist" ~units:"cycles" ~desc:"suite fixture"

let with_ctx_enabled f =
  let ctx = Metrics.create ~label:"test" () in
  Metrics.enable ctx;
  f ctx

let percentile_tests =
  [
    case "empty histogram summarises to zeros" (fun () ->
        with_ctx_enabled (fun ctx ->
            let s = Metrics.hist_summary ctx h_test in
            check_int "count" 0 s.Metrics.hcount;
            check_int "p50" 0 s.Metrics.p50;
            check_int "p99" 0 s.Metrics.p99;
            check_int "min" 0 s.Metrics.hmin;
            check_int "max" 0 s.Metrics.hmax;
            check_int "percentile of empty" 0 (Metrics.percentile ctx h_test 50.0)));
    case "single sample is every percentile" (fun () ->
        with_ctx_enabled (fun ctx ->
            Metrics.observe ctx h_test 17;
            let s = Metrics.hist_summary ctx h_test in
            check_int "count" 1 s.Metrics.hcount;
            check_int "p50 is the sample" 17 s.Metrics.p50;
            check_int "p95 is the sample" 17 s.Metrics.p95;
            check_int "p99 is the sample" 17 s.Metrics.p99;
            check_int "min" 17 s.Metrics.hmin;
            check_int "max" 17 s.Metrics.hmax));
    case "values below 32 are bucketed exactly" (fun () ->
        for v = 0 to 31 do
          check_int
            (Printf.sprintf "lower bound of %d" v)
            v
            (Metrics.bucket_lower_bound (Metrics.bucket_of_value v))
        done);
    case "octave boundaries land on their own bucket" (fun () ->
        List.iter
          (fun (v, lb) ->
            check_int (Printf.sprintf "lower bound of %d" v) lb
              (Metrics.bucket_lower_bound (Metrics.bucket_of_value v)))
          [ (31, 31); (32, 32); (35, 32); (36, 36); (63, 60); (64, 64);
            (100, 96); (1 lsl 20, 1 lsl 20); ((1 lsl 20) - 1, 983040) ]);
    case "percentiles of a known distribution" (fun () ->
        with_ctx_enabled (fun ctx ->
            (* 1..100 exactly representable up to 31; above that the
               reported value is the holding bucket's lower bound *)
            for v = 1 to 100 do
              Metrics.observe ctx h_test v
            done;
            let s = Metrics.hist_summary ctx h_test in
            check_int "count" 100 s.Metrics.hcount;
            check_int "sum" 5050 s.Metrics.hsum;
            check_int "p50 within its bucket" s.Metrics.p50
              (Metrics.bucket_lower_bound (Metrics.bucket_of_value 50));
            check_int "p99 within its bucket" s.Metrics.p99
              (Metrics.bucket_lower_bound (Metrics.bucket_of_value 99));
            check_int "exact minimum" 1 s.Metrics.hmin;
            check_int "exact maximum" 100 s.Metrics.hmax));
    case "negative samples are ignored" (fun () ->
        with_ctx_enabled (fun ctx ->
            Metrics.observe ctx h_test (-5);
            check_int "count" 0 (Metrics.hist_summary ctx h_test).Metrics.hcount));
    qcheck ~count:500 "bucket lower bound is within 12.5% below the value"
      QCheck2.Gen.(map abs (int_bound (1 lsl 40)))
      (fun v ->
        let lb = Metrics.bucket_lower_bound (Metrics.bucket_of_value v) in
        lb <= v && v - lb <= v / 8);
    qcheck ~count:500 "buckets partition: lower bound maps back to its bucket"
      QCheck2.Gen.(map abs (int_bound (1 lsl 40)))
      (fun v ->
        let b = Metrics.bucket_of_value v in
        Metrics.bucket_of_value (Metrics.bucket_lower_bound b) = b);
  ]

(* --- context isolation --------------------------------------------------- *)

(* The counters one vecadd run of size [n] lands in a fresh context. *)
let serial_profile n =
  let ctx = Metrics.create ~label:"serial" () in
  Metrics.enable ctx;
  let _ = run_vecadd_in ctx ~n () in
  Metrics.disable ctx;
  ctx

let nonzero_counters ctx =
  (Metrics.snapshot ctx).Metrics.snap_counters
  |> List.filter (fun (n, _) ->
         not
           (String.starts_with ~prefix:"test." n
           (* pool hits/misses depend on which domain's working sets
              happen to be warm, not on the run being measured *)
           || String.starts_with ~prefix:"kernel.pool_" n))

let exec_percentiles ctx =
  match Metrics.find_histogram "hist.exec_cycles" with
  | None -> Alcotest.fail "hist.exec_cycles is not registered"
  | Some h ->
      let s = Metrics.hist_summary ctx h in
      (s.Metrics.hcount, s.Metrics.p50, s.Metrics.p95, s.Metrics.p99)

let isolation_tests =
  [
    case "two concurrent contexts show zero counter bleed" (fun () ->
        let na = 16 and nb = 48 in
        let a = Metrics.create ~label:"a" () in
        let b = Metrics.create ~label:"b" () in
        Metrics.enable a;
        Metrics.enable b;
        (* run b's work on a second domain while a runs on this one: the
           pool-free path, two truly interleaved instrumented runs *)
        let db = Domain.spawn (fun () -> run_vecadd_in b ~n:nb ()) in
        let _ = run_vecadd_in a ~n:na () in
        let _ = Domain.join db in
        Metrics.disable a;
        Metrics.disable b;
        let ref_a = serial_profile na and ref_b = serial_profile nb in
        check_bool "a matches its serial reference" true
          (nonzero_counters a = nonzero_counters ref_a);
        check_bool "b matches its serial reference" true
          (nonzero_counters b = nonzero_counters ref_b);
        check_bool "a and b differ (different vector lengths)" true
          (nonzero_counters a <> nonzero_counters b);
        check_int "a streamed exactly its own words" (2 * na)
          (ctx_counter_value a "dma.read_words");
        check_int "b streamed exactly its own words" (2 * nb)
          (ctx_counter_value b "dma.read_words");
        check_bool "exec percentiles match the serial reference" true
          (exec_percentiles a = exec_percentiles ref_a
          && exec_percentiles b = exec_percentiles ref_b));
    qcheck ~count:10 "interleaved runs equal the same runs done serially"
      QCheck2.Gen.(pair (int_range 4 40) (int_range 4 40))
      (fun (na, nb) ->
        let a = Metrics.create ~label:"a" () in
        let b = Metrics.create ~label:"b" () in
        Metrics.enable a;
        Metrics.enable b;
        let db = Domain.spawn (fun () -> run_vecadd_in b ~n:nb ()) in
        let _ = run_vecadd_in a ~n:na () in
        let _ = Domain.join db in
        let ref_a = serial_profile na and ref_b = serial_profile nb in
        nonzero_counters a = nonzero_counters ref_a
        && nonzero_counters b = nonzero_counters ref_b
        && exec_percentiles a = exec_percentiles ref_a
        && exec_percentiles b = exec_percentiles ref_b);
    case "the default context backs the ambient gates and with_ctx restores it"
      (fun () ->
        let c =
          Metrics.counter ~name:"test.ambient" ~units:"u" ~desc:"suite fixture"
        in
        let fresh = Metrics.create ~label:"inner" () in
        Metrics.enable fresh;
        Metrics.reset Metrics.default;
        Metrics.enable Metrics.default;
        Fun.protect ~finally:(fun () ->
            Metrics.disable Metrics.default;
            Metrics.reset Metrics.default)
        @@ fun () ->
        Metrics.bump c 2;
        Metrics.with_ctx fresh (fun () -> Metrics.bump c 5);
        (try
           Metrics.with_ctx fresh (fun () -> failwith "boom")
         with Failure _ -> ());
        Metrics.bump c 1;
        check_int "ambient adds landed in the default context" 3
          (Metrics.value Metrics.default c);
        check_int "scoped adds landed in the scoped context" 5
          (Metrics.value fresh c);
        check_bool "the ambient context is the default again" true
          (Metrics.current () == Metrics.default && Metrics.tracing ()));
  ]

(* --- snapshot and diff --------------------------------------------------- *)

let snapshot_tests =
  [
    case "diff of consecutive snapshots is one run's worth" (fun () ->
        let ctx = Metrics.create ~label:"snap" () in
        Metrics.enable ctx;
        let _ = run_vecadd_in ctx ~n:16 () in
        let s1 = Metrics.snapshot ctx in
        let _ = run_vecadd_in ctx ~n:16 () in
        let s2 = Metrics.snapshot ctx in
        let d = Metrics.diff s1 s2 in
        check_int "clock delta is one run"
          (List.assoc "sim.cycles" d.Metrics.snap_counters
          + List.assoc "sim.reconfig_cycles" d.Metrics.snap_counters)
          d.Metrics.snap_clock;
        check_bool "counter deltas equal the first run's totals" true
          (List.for_all
             (fun (n, v) ->
               List.assoc_opt n d.Metrics.snap_counters = Some v)
             (List.filter
                (fun (n, _) -> not (String.starts_with ~prefix:"test." n))
                s1.Metrics.snap_counters));
        let dd = Metrics.diff s2 s2 in
        check_int "self-diff has no counters" 0
          (List.length dd.Metrics.snap_counters);
        check_int "self-diff has no clock delta" 0 dd.Metrics.snap_clock);
  ]

(* --- the profile layer --------------------------------------------------- *)

let profile_tests =
  [
    case "hotspot shares partition sim.cycles and flops" (fun () ->
        let ctx = Metrics.create ~label:"prof" () in
        Metrics.enable ctx;
        let _ = run_vecadd_in ctx ~n:32 () in
        let spots = Nsc_sim.Stats.hotspots params ctx in
        check_bool "at least one hotspot" true (spots <> []);
        let share_sum =
          List.fold_left
            (fun acc (h : Nsc_sim.Stats.hotspot) -> acc + h.Nsc_sim.Stats.hs_share_cycles)
            0 spots
        in
        let flop_sum =
          List.fold_left
            (fun acc (h : Nsc_sim.Stats.hotspot) -> acc + h.Nsc_sim.Stats.hs_flops)
            0 spots
        in
        check_int "shares sum to sim.cycles" (ctx_counter_value ctx "sim.cycles")
          share_sum;
        check_int "flops sum to sim.flops" (ctx_counter_value ctx "sim.flops")
          flop_sum;
        check_bool "ranked by share cycles" true
          (let rec sorted = function
             | (a : Nsc_sim.Stats.hotspot) :: b :: tl ->
                 a.Nsc_sim.Stats.hs_share_cycles >= b.Nsc_sim.Stats.hs_share_cycles
                 && sorted (b :: tl)
             | _ -> true
           in
           sorted spots));
    case "folded stacks carry every attributed cycle" (fun () ->
        let ctx = Metrics.create ~label:"folded" () in
        Metrics.enable ctx;
        let _ = run_vecadd_in ctx ~n:16 () in
        let folded = Nsc_sim.Stats.profile_folded ctx in
        let lines =
          String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
        in
        check_bool "at least one stack" true (lines <> []);
        let total =
          List.fold_left
            (fun acc line ->
              match String.rindex_opt line ' ' with
              | None -> Alcotest.failf "malformed folded line: %s" line
              | Some i ->
                  check_bool "stack has instr;unit frames" true
                    (String.contains (String.sub line 0 i) ';');
                  acc
                  + int_of_string (String.sub line (i + 1) (String.length line - i - 1)))
            0 lines
        in
        check_int "weights sum to sim.cycles" (ctx_counter_value ctx "sim.cycles")
          total);
    case "profile JSON parses and names the run's hotspots" (fun () ->
        let ctx = Metrics.create ~label:"prof-json" () in
        Metrics.enable ctx;
        let _ = run_vecadd_in ctx ~n:16 () in
        let doc =
          match Json.parse (Json.to_string (Nsc_sim.Stats.profile_json params ctx)) with
          | Ok d -> d
          | Error e -> Alcotest.failf "profile JSON invalid: %s" e
        in
        let hotspots =
          Option.get (Json.to_list (Option.get (Json.member "hotspots" doc)))
        in
        check_bool "at least one hotspot row" true (hotspots <> []);
        let latency = Option.get (Json.member "latency" doc) in
        check_bool "exec latency histogram present" true
          (Json.member "hist.exec_cycles" latency <> None);
        let count k = Option.bind (Json.member k doc) Json.to_num in
        check_bool "events_recorded counts the resident events" true
          (count "events_recorded" = Some (float_of_int (List.length (Metrics.events ctx))));
        check_bool "events_dropped counts the evicted events" true
          (count "events_dropped" = Some (float_of_int (Metrics.dropped ctx))));
  ]

(* --- the always-on class ------------------------------------------------- *)

let always_counters () = List.filter Metrics.is_always (Metrics.registered_counters ())
let totals () = List.map (fun c -> (Metrics.counter_name c, Metrics.total c)) (always_counters ())

(* One n=5 Jacobi solve (fresh caches) on a fresh domain, so its buffer
   pool starts empty, under an enabled context of its own. *)
let solve_in ctx () =
  Metrics.with_ctx ctx (fun () ->
      match
        Nsc_apps.Jacobi.solve kb (Nsc_apps.Poisson.manufactured 5) ~tol:1e-4 ~max_iters:200
      with
      | Ok o -> o.Nsc_apps.Jacobi.final_change
      | Error e -> failwith e)

let registry_tests =
  [
    case "always-on counters count with the ambient context disabled" (fun () ->
        (* other suites may leave contexts of their own enabled; none of
           them is ambient here *)
        check_bool "ambient context disabled" false (Metrics.tracing ());
        (* codegen runs the checker's own timing analyses: keep it out *)
        let prog, _ = vecadd_program ~n:8 () in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let before = totals () in
        ignore (Result.get_ok (Nsc_sim.Sequencer.run (Nsc_sim.Node.create params) c));
        let grew name =
          List.assoc name (totals ()) - List.assoc name before
        in
        check_int "kernel.compiles" 1 (grew "kernel.compiles");
        check_int "timing.analyses" 1 (grew "timing.analyses");
        check_bool "pool buffers drawn" true
          (grew "kernel.pool_hits" + grew "kernel.pool_misses" > 0);
        check_bool "the default context saw none of it" true
          (Metrics.value Metrics.default
             (Option.get (Metrics.find_counter "kernel.compiles"))
          = 0));
    case "always-on counters appear in an enabled context's snapshot" (fun () ->
        let ctx = Metrics.create ~label:"always" () in
        Metrics.enable ctx;
        let c0 = Nsc_sim.Kernel.compile_count () in
        let _ = run_vecadd_in ctx () in
        Metrics.disable ctx;
        let snap = (Metrics.snapshot ctx).Metrics.snap_counters in
        check_int "kernel.compiles in the snapshot" 1
          (Option.value ~default:0 (List.assoc_opt "kernel.compiles" snap));
        check_int "the total grew by the same" 1 (Nsc_sim.Kernel.compile_count () - c0);
        check_bool "timing.analyses in the snapshot" true
          (List.mem_assoc "timing.analyses" snap));
    case "concurrent solves count apart and the totals sum" (fun () ->
        let solo = Metrics.create ~label:"solo" () in
        Metrics.enable solo;
        let r_solo = Domain.join (Domain.spawn (solve_in solo)) in
        Metrics.disable solo;
        let a = Metrics.create ~label:"a" () and b = Metrics.create ~label:"b" () in
        Metrics.enable a;
        Metrics.enable b;
        let before = totals () in
        let da = Domain.spawn (solve_in a) and db = Domain.spawn (solve_in b) in
        let r_a = Domain.join da and r_b = Domain.join db in
        Metrics.disable a;
        Metrics.disable b;
        let after = totals () in
        let counters ctx = (Metrics.snapshot ctx).Metrics.snap_counters in
        check_bool "same residual bits" true
          (Int64.bits_of_float r_a = Int64.bits_of_float r_solo
          && Int64.bits_of_float r_b = Int64.bits_of_float r_solo);
        check_bool "a's counters equal the solo run's" true (counters a = counters solo);
        check_bool "b's counters equal the solo run's" true (counters b = counters solo);
        List.iter
          (fun c ->
            let name = Metrics.counter_name c in
            check_int (name ^ " total grew by a + b")
              (Metrics.value a c + Metrics.value b c)
              (List.assoc name after - List.assoc name before))
          (always_counters ()));
  ]

let suite =
  [
    ("metrics:drift", drift_tests);
    ("metrics:registry", registry_tests);
    ("metrics:histograms", percentile_tests);
    ("metrics:isolation", isolation_tests);
    ("metrics:snapshot", snapshot_tests);
    ("metrics:profile", profile_tests);
  ]
