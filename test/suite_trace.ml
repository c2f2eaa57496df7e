(* Tracing through the metrics registry: counters, the ring buffer,
   Chrome export, and the guarantee that turning tracing on never changes
   what the machine computes.  Each test runs in its own context, made
   ambient and enabled for the duration of [f] and disabled afterwards. *)

open Util
open Nsc_diagram
module Metrics = Nsc_metrics.Metrics
module Json = Nsc_metrics.Json

let with_tracing ?capacity f =
  let ctx = Metrics.create ?capacity ~label:"test-trace" () in
  Metrics.enable ctx;
  Fun.protect ~finally:(fun () -> Metrics.disable ctx) (fun () ->
      Metrics.with_ctx ctx (fun () -> f ctx))

(* Compile and run the vecadd program on a fresh node, returning the
   sequencer outcome with the z-plane contents. *)
let run_vecadd ?(n = 16) () =
  let prog, _ = vecadd_program ~n () in
  let compiled =
    match Nsc_microcode.Codegen.compile kb prog with
    | Ok c -> c
    | Error _ -> failwith "vecadd codegen"
  in
  let node = Nsc_sim.Node.create params in
  Nsc_sim.Node.load_array node ~plane:0 ~base:0 (Array.init n float_of_int);
  Nsc_sim.Node.load_array node ~plane:1 ~base:0 (Array.init n (fun i -> 2.0 *. float_of_int i));
  match Nsc_sim.Sequencer.run node compiled with
  | Ok o -> (o, Nsc_sim.Node.dump_array node ~plane:2 ~base:0 ~len:n)
  | Error e -> failwith e

let counter_value ctx name =
  match Metrics.find_counter name with
  | Some c -> Metrics.value ctx c
  | None -> Alcotest.failf "counter %s is not registered" name

let counter_tests =
  [
    case "registration is idempotent by name" (fun () ->
        let a = Metrics.counter ~name:"test.idem" ~units:"u" ~desc:"d" in
        let b = Metrics.counter ~name:"test.idem" ~units:"ignored" ~desc:"ignored" in
        with_tracing (fun ctx ->
            Metrics.bump a 3;
            Metrics.bump b 4;
            check_int "both handles hit one cell" 7 (Metrics.value ctx a));
        check_string "unit from first registration" "u" (Metrics.counter_units b));
    case "counters are monotonic and gated on the flag" (fun () ->
        let c = Metrics.counter ~name:"test.mono" ~units:"u" ~desc:"d" in
        let ctx = Metrics.create () in
        Metrics.with_ctx ctx (fun () -> Metrics.bump c 5);
        check_int "disabled adds are dropped" 0 (Metrics.value ctx c);
        with_tracing (fun ctx ->
            Metrics.bump c 5;
            Metrics.bump c (-3);
            Metrics.bump c 0;
            check_int "only positive increments land" 5 (Metrics.value ctx c);
            Metrics.bump c 2;
            check_int "value never decreases" 7 (Metrics.value ctx c)));
    case "reset rewinds counters, events and the clock" (fun () ->
        let c = Metrics.counter ~name:"test.reset" ~units:"u" ~desc:"d" in
        with_tracing (fun ctx ->
            Metrics.bump c 9;
            Metrics.advance ctx 100;
            Metrics.span ctx ~cat:"t" ~name:"s" ~ts:0 ~dur:10 ();
            Metrics.reset ctx;
            check_int "counter zeroed" 0 (Metrics.value ctx c);
            check_int "clock rewound" 0 (Metrics.now ctx);
            check_int "ring cleared" 0 (List.length (Metrics.events ctx))));
  ]

let ring_tests =
  [
    case "full ring keeps the newest events and counts drops" (fun () ->
        with_tracing ~capacity:8 (fun ctx ->
            for i = 1 to 20 do
              Metrics.span ctx ~cat:"t" ~name:(Printf.sprintf "s%d" i) ~ts:i ~dur:1 ()
            done;
            let evs = Metrics.events ctx in
            check_int "ring holds its capacity" 8 (List.length evs);
            check_int "evictions are counted" 12 (Metrics.dropped ctx);
            check_string "oldest resident is the 13th span" "s13"
              (List.hd evs).Metrics.ev_name;
            check_string "newest resident is the last span" "s20"
              (List.nth evs 7).Metrics.ev_name));
  ]

let chrome_tests =
  [
    case "export of a real run parses and matches the registry" (fun () ->
        with_tracing (fun ctx ->
            let _ = run_vecadd () in
            let doc =
              match Json.parse (Metrics.to_chrome ctx) with
              | Ok d -> d
              | Error e -> Alcotest.failf "to_chrome emitted invalid JSON: %s" e
            in
            let evs =
              Option.get (Json.to_list (Option.get (Json.member "traceEvents" doc)))
            in
            check_bool "the run produced events" true (List.length evs > 0);
            List.iter
              (fun ev ->
                let ph = Option.get (Json.to_str (Option.get (Json.member "ph" ev))) in
                check_bool "phases are X, i or C" true
                  (List.mem ph [ "X"; "i"; "C" ]))
              evs;
            (* the top-level counters object carries the same totals the
               context holds *)
            let counters = Option.get (Json.member "counters" doc) in
            List.iter
              (fun c ->
                let name = Metrics.counter_name c and v = Metrics.value ctx c in
                if v > 0 then
                  match Json.member name counters with
                  | Some j ->
                      check_int
                        (Printf.sprintf "JSON total for %s" name)
                        v
                        (int_of_float (Option.get (Json.to_num j)))
                  | None -> Alcotest.failf "counter %s missing from JSON" name)
              (Metrics.registered_counters ())));
    case "summary and export report the same counter totals" (fun () ->
        with_tracing (fun ctx ->
            let _ = run_vecadd () in
            let s = Metrics.summary ctx in
            let contains sub =
              let n = String.length s and m = String.length sub in
              let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
              go 0
            in
            List.iter
              (fun c ->
                if Metrics.value ctx c > 0 then
                  check_bool
                    (Printf.sprintf "summary mentions %s" (Metrics.counter_name c))
                    true
                    (contains (Metrics.counter_name c)))
              (Metrics.registered_counters ())));
  ]

let accounting_tests =
  [
    case "vecadd counters follow the program's shape" (fun () ->
        with_tracing (fun ctx ->
            let counter_value = counter_value ctx in
            let o, z = run_vecadd ~n:16 () in
            check_int "one instruction dispatched" 1
              o.Nsc_sim.Sequencer.stats.Nsc_sim.Sequencer.instructions_executed;
            check_float "computation is correct" 45.0 z.(15);
            check_int "sim.instructions" 1 (counter_value "sim.instructions");
            check_int "two read streams of 16 words" 32 (counter_value "dma.read_words");
            check_int "one write stream of 16 words" 16 (counter_value "dma.write_words");
            check_int "three transfer descriptors" 3 (counter_value "dma.transfers");
            check_int "one switch reconfiguration" 1
              (counter_value "switch.reconfigurations");
            check_bool "the z plane was written through memory" true
              (counter_value "mem.writes" >= 16)));
    case "the clock totals execution plus reconfiguration" (fun () ->
        with_tracing (fun ctx ->
            let o, _ = run_vecadd () in
            check_int "sequencer cycles equal the traced clock"
              o.Nsc_sim.Sequencer.stats.Nsc_sim.Sequencer.total_cycles
              (Metrics.now ctx);
            check_int "clock = sim.cycles + sim.reconfig_cycles"
              (counter_value ctx "sim.cycles" + counter_value ctx "sim.reconfig_cycles")
              (Metrics.now ctx)));
  ]

(* The central correctness property: enabling the instrument must not
   change a single bit of what the machine computes, on arbitrary valid
   pipelines. *)
let determinism_tests =
  [
    qcheck ~count:60 "tracing on and off compute bit-identical results"
      Suite_property.valid_pipeline_gen
      (fun pl ->
        let sem, _ = Semantic.of_pipeline params pl in
        let observe () =
          let node = Nsc_sim.Node.create params in
          List.iter
            (fun plane ->
              Nsc_sim.Node.load_array node ~plane ~base:0
                (Array.init 80 (fun i -> Float.of_int ((plane * 13) + i) /. 5.0)))
            (List.init 16 (fun p -> p));
          let r = Nsc_sim.Engine.run node sem in
          let mem =
            List.map
              (fun plane -> Nsc_sim.Node.dump_array node ~plane ~base:0 ~len:80)
              (List.init 16 (fun p -> p))
          in
          ( mem,
            List.sort compare r.Nsc_sim.Engine.last_values,
            r.Nsc_sim.Engine.cycles,
            r.Nsc_sim.Engine.flops,
            r.Nsc_sim.Engine.writes )
        in
        let off = observe () in
        let on = with_tracing (fun _ -> observe ()) in
        off = on);
  ]

let suite =
  [
    ("trace:counters", counter_tests);
    ("trace:ring", ring_tests);
    ("trace:chrome", chrome_tests);
    ("trace:accounting", accounting_tests);
    ("trace:determinism", determinism_tests);
  ]
