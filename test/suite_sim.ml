(* Simulator: functional-unit semantics, the pipeline engine, the
   sequencer, statistics, the hypercube. *)

open Nsc_arch
open Nsc_diagram
open Nsc_sim
open Util

let fu_exec_tests =
  [
    case "arithmetic semantics" (fun () ->
        check_float "fadd" 5.0 (Fu_exec.apply Opcode.Fadd 2.0 3.0);
        check_float "fsub" (-1.0) (Fu_exec.apply Opcode.Fsub 2.0 3.0);
        check_float "fmul" 6.0 (Fu_exec.apply Opcode.Fmul 2.0 3.0);
        check_float "fdiv" 0.5 (Fu_exec.apply Opcode.Fdiv 1.0 2.0);
        check_float "pass" 2.0 (Fu_exec.apply Opcode.Pass 2.0 99.0);
        check_float "fneg" (-2.0) (Fu_exec.apply Opcode.Fneg 2.0 0.0);
        check_float "fabs" 2.0 (Fu_exec.apply Opcode.Fabs (-2.0) 0.0);
        check_float "max" 3.0 (Fu_exec.apply Opcode.Max 2.0 3.0);
        check_float "min" 2.0 (Fu_exec.apply Opcode.Min 2.0 3.0));
    case "comparisons produce 0/1" (fun () ->
        check_float "lt true" 1.0 (Fu_exec.apply (Opcode.Fcmp Opcode.Lt) 1.0 2.0);
        check_float "lt false" 0.0 (Fu_exec.apply (Opcode.Fcmp Opcode.Lt) 2.0 1.0);
        check_float "eq" 1.0 (Fu_exec.apply (Opcode.Fcmp Opcode.Eq) 2.0 2.0));
    case "integer ops act on the integer parts" (fun () ->
        check_float "iadd" 5.0 (Fu_exec.apply Opcode.Iadd 2.9 3.1);
        check_float "iand" 2.0 (Fu_exec.apply Opcode.Iand 6.0 3.0);
        check_float "ishl" 8.0 (Fu_exec.apply Opcode.Ishl 2.0 2.0));
    case "trapping: division by zero" (fun () ->
        check_bool "trapped" true
          (Fu_exec.trapped Opcode.Fdiv 1.0 0.0 (Fu_exec.apply Opcode.Fdiv 1.0 0.0)
          = Some Interrupt.Divide_by_zero));
  ]

(* run vecadd and return (z, result) *)
let run_vecadd ?(n = 16) () =
  let prog, _ = vecadd_program ~n () in
  let sem, _ = semantic_of_program prog 1 in
  let node = Node.create params in
  Node.load_array node ~plane:0 ~base:0 (Array.init n (fun i -> float_of_int i));
  Node.load_array node ~plane:1 ~base:0 (Array.init n (fun i -> float_of_int (i * i)));
  let r = Engine.run node sem in
  (Node.dump_array node ~plane:2 ~base:0 ~len:n, r)

let engine_tests =
  [
    case "vecadd computes elementwise sums" (fun () ->
        let z, r = run_vecadd () in
        Array.iteri (fun i v -> check_float "sum" (float_of_int (i + (i * i))) v) z;
        check_int "writes" 16 r.Engine.writes;
        check_int "flops" 16 r.Engine.flops);
    case "cycle estimate is fill + elements - 1" (fun () ->
        let _, r = run_vecadd ~n:100 () in
        check_int "cycles" (params.Params.latencies.Params.lat_fadd + 99) r.Engine.cycles);
    case "completion interrupts are recorded" (fun () ->
        let _, r = run_vecadd () in
        check_bool "complete" true
          (List.exists
             (function Interrupt.Pipeline_complete _ -> true | _ -> false)
             r.Engine.events));
    case "feedback computes a running maximum" (fun () ->
        let pl, icon = pipeline_with Als.Doublet in
        let pl = Pipeline.with_vector_length pl 8 in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (1, Resource.A) })
            ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
        in
        (* use the bypassed-tail form so the max unit's A port is external *)
        let pl' = Pipeline.remove_icon pl icon in
        ignore pl';
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:1
            (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_feedback 1)
               Opcode.Max)
        in
        (* Keep_tail bypass is required for slot-1 A to be external: rebuild *)
        let pl2 = Pipeline.empty 1 in
        let pl2 = Pipeline.with_vector_length pl2 8 in
        let icon2, pl2 =
          Build.fail_on_error
            (Pipeline.place_als params pl2 ~kind:Als.Doublet ~bypass:Als.Keep_tail
               ~pos:(Geometry.point 10 2) ())
        in
        let _, pl2 =
          Pipeline.add_connection pl2 ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon = icon2; pad = Icon.In_pad (1, Resource.A) })
            ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
        in
        let pl2 =
          Pipeline.set_config pl2 ~id:icon2 ~slot:1
            (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_feedback 1)
               Opcode.Max)
        in
        ignore pl;
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |];
        let sem, _ = Semantic.of_pipeline params pl2 in
        let r = Engine.run node sem in
        (match Engine.last_values r with
        | [ (_, v) ] -> check_float "running max" 9.0 v
        | _ -> Alcotest.fail "expected one captured value"));
    case "misaligned streams pair skewed elements (honor_timing)" (fun () ->
        (* d0.u0 doubles a stream; d0.u1 adds the chained value to a fresh
           stream with NO alignment delay: hardware pairs early elements of
           the fresh stream with late chain values *)
        let pl, icon = pipeline_with Als.Doublet in
        let pl = Pipeline.with_vector_length pl 16 in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
        in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 1)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (1, Resource.B) })
            ~spec:(Dma_spec.make (Dma_spec.To_plane 1)) ()
        in
        let pl = Pipeline.set_config pl ~id:icon ~slot:0 (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant 2.0) Opcode.Fmul) in
        let pl = Pipeline.set_config pl ~id:icon ~slot:1 (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fadd) in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon; pad = Icon.Out_pad 1 })
            ~dst:(Connection.Direct_memory 2)
            ~spec:(Dma_spec.make (Dma_spec.To_plane 2)) ()
        in
        let x = Array.init 16 (fun i -> float_of_int i) in
        let y = Array.init 16 (fun i -> float_of_int (100 * i)) in
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 x;
        Node.load_array node ~plane:1 ~base:0 y;
        let sem, _ = Semantic.of_pipeline params pl in
        ignore (Engine.run node sem);
        let z = Node.dump_array node ~plane:2 ~base:0 ~len:16 in
        let skew = params.Params.latencies.Params.lat_fmul in
        (* b stream leads by lat_fmul: z[e] = 2x[e] + y[e + skew] *)
        check_float "skewed" ((2.0 *. x.(0)) +. y.(skew)) z.(0);
        (* after balancing, the same diagram computes the aligned sum *)
        let fixed, _ = Nsc_checker.Balance.balance_pipeline kb pl in
        let node2 = Node.create params in
        Node.load_array node2 ~plane:0 ~base:0 x;
        Node.load_array node2 ~plane:1 ~base:0 y;
        let sem2, _ = Semantic.of_pipeline params fixed in
        ignore (Engine.run node2 sem2);
        let z2 = Node.dump_array node2 ~plane:2 ~base:0 ~len:16 in
        check_float "aligned" ((2.0 *. x.(3)) +. y.(3)) z2.(3));
    case "shift/delay units reformat streams" (fun () ->
        let pl = Pipeline.empty 1 in
        let pl = Pipeline.with_vector_length pl 8 in
        let sd_icon, pl =
          Build.fail_on_error
            (Pipeline.place_shift_delay params pl ~mode:(Shift_delay.Shift 2)
               ~pos:(Geometry.point 4 2))
        in
        let icon, pl =
          Build.fail_on_error
            (Pipeline.place_als params pl ~kind:Als.Singlet ~pos:(Geometry.point 30 2) ())
        in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon = sd_icon; pad = Icon.Flow_in })
            ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
        in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon = sd_icon; pad = Icon.Flow_out })
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ()
        in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:Fu_config.From_switch Opcode.Pass)
        in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
            ~dst:(Connection.Direct_memory 1)
            ~spec:(Dma_spec.make (Dma_spec.To_plane 1)) ()
        in
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 (Array.init 8 (fun i -> float_of_int (i + 1)));
        let sem, _ = Semantic.of_pipeline params pl in
        ignore (Engine.run node sem);
        let z = Node.dump_array node ~plane:1 ~base:0 ~len:8 in
        check_float "shifted" 3.0 z.(0);
        check_float "end pads zero" 0.0 z.(7));
    case "division by zero raises an exception interrupt" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl = Pipeline.with_vector_length pl 4 in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
        in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant 0.0)
               Opcode.Fdiv)
        in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
            ~dst:(Connection.Direct_memory 1)
            ~spec:(Dma_spec.make (Dma_spec.To_plane 1)) ()
        in
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 [| 1.0; 2.0; 3.0; 4.0 |];
        let sem, _ = Semantic.of_pipeline params pl in
        let r = Engine.run node sem in
        check_int "4 traps" 4
          (List.length
             (List.filter
                (function Interrupt.Exception_trapped _ -> true | _ -> false)
                r.Engine.events)));
    case "a trace records every unit at every element" (fun () ->
        let prog, _ = vecadd_program ~n:4 () in
        let sem, _ = semantic_of_program prog 1 in
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 [| 1.; 2.; 3.; 4. |];
        Node.load_array node ~plane:1 ~base:0 [| 10.; 20.; 30.; 40. |];
        let r = Engine.run node ~record_trace:true sem in
        match r.Engine.trace with
        | None -> Alcotest.fail "no trace"
        | Some tr ->
            check_bool "value" true
              (Engine.trace_value tr ~fu:{ Resource.als = 0; slot = 0 } ~element:2
              = Some 33.0));
  ]

let sequencer_tests =
  [
    case "vecadd runs from decoded microcode" (fun () ->
        let prog, _ = vecadd_program ~n:8 () in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 (Array.make 8 2.0);
        Node.load_array node ~plane:1 ~base:0 (Array.make 8 3.0);
        (match Sequencer.run node c with
        | Ok o ->
            check_int "one instruction" 1 o.Sequencer.stats.Sequencer.instructions_executed;
            check_bool "halted" true o.Sequencer.halted
        | Error e -> Alcotest.fail e);
        check_float "result" 5.0 (Node.read_plane node ~plane:2 ~addr:0));
    case "microcode and semantic execution agree" (fun () ->
        let prog, _ = vecadd_program ~n:8 () in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let run from_microcode =
          let node = Node.create params in
          Node.load_array node ~plane:0 ~base:0 (Array.init 8 float_of_int);
          Node.load_array node ~plane:1 ~base:0 (Array.init 8 float_of_int);
          ignore (Result.get_ok (Sequencer.run node ~from_microcode c));
          Node.dump_array node ~plane:2 ~base:0 ~len:8
        in
        check_bool "identical" true (run true = run false));
    case "repeat multiplies executions and reconfiguration is charged" (fun () ->
        let prog, _ = vecadd_program ~n:8 () in
        let prog =
          Program.set_control prog
            [ Program.Repeat { count = 5; body = [ Program.Exec 1 ] }; Program.Halt ]
        in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let node = Node.create params in
        (match Sequencer.run node c with
        | Ok o ->
            check_int "five" 5 o.Sequencer.stats.Sequencer.instructions_executed;
            check_bool "reconfig cost" true
              (o.Sequencer.stats.Sequencer.total_cycles
              >= 5 * params.Params.reconfig_cycles)
        | Error e -> Alcotest.fail e));
    case "while loops stop when the condition fails" (fun () ->
        (* z = x + (-1): last value sinks below zero after enough passes —
           emulate by running a max-feedback capture over a fixed stream;
           the while body always produces the same capture, so only the
           iteration bound stops it: verify the bound works *)
        let prog, _ = vecadd_program ~n:8 () in
        let prog =
          Program.set_control prog
            [
              Program.While
                {
                  condition =
                    {
                      Interrupt.unit_watched = { Resource.als = 0; slot = 0 };
                      relation = Interrupt.Rgt;
                      threshold = 1e30;
                    };
                  max_iterations = 50;
                  body = [ Program.Exec 1 ];
                };
              Program.Halt;
            ]
        in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let node = Node.create params in
        (match Sequencer.run node c with
        | Ok o ->
            (* condition is false after the first body run *)
            check_int "once" 1 o.Sequencer.stats.Sequencer.instructions_executed
        | Error e -> Alcotest.fail e));
    case "condition interrupts are logged" (fun () ->
        let prog, _ = vecadd_program ~n:8 () in
        let prog =
          Program.set_control prog
            [
              Program.While
                {
                  condition =
                    {
                      Interrupt.unit_watched = { Resource.als = 0; slot = 0 };
                      relation = Interrupt.Rlt;
                      threshold = 0.0;
                    };
                  max_iterations = 3;
                  body = [ Program.Exec 1 ];
                };
              Program.Halt;
            ]
        in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let node = Node.create params in
        let o = Result.get_ok (Sequencer.run node c) in
        check_bool "logged" true
          (List.exists
             (function Interrupt.Condition_evaluated _ -> true | _ -> false)
             o.Sequencer.stats.Sequencer.events));
    case "control referencing a missing pipeline fails cleanly" (fun () ->
        let prog, _ = vecadd_program () in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let c = { c with Nsc_microcode.Codegen.control = [ Program.Exec 7 ] } in
        let node = Node.create params in
        check_bool "error" true (Result.is_error (Sequencer.run node c)));
  ]

let stats_tests =
  [
    case "mflops: flops per cycle times clock" (fun () ->
        check_float "100%" (Params.peak_mflops params)
          (Stats.mflops params ~cycles:100 ~flops:(100 * 32)));
    case "utilization is a fraction of peak" (fun () ->
        check_float "half" 0.5 (Stats.utilization params ~cycles:100 ~flops:(100 * 16)));
    case "summary renders" (fun () ->
        let s = Stats.summarize params ~cycles:2000 ~flops:6400 in
        check_bool "nonempty" true (String.length (Stats.summary_to_string s) > 10));
  ]

let multinode_tests =
  [
    case "creation sizes the hypercube" (fun () ->
        let m = Multinode.create ~dim:3 params in
        check_int "nodes" 8 (Multinode.n_nodes m));
    case "compute steps advance by the slowest node" (fun () ->
        let m = Multinode.create ~dim:2 params in
        Multinode.compute_step m (fun i _ -> ((i + 1) * 10, 100));
        check_int "cycles" 40 m.Multinode.cycles;
        check_int "flops" 400 m.Multinode.flops);
    case "exchange moves data and charges the router" (fun () ->
        let m = Multinode.create ~dim:2 params in
        let payload = [| 1.0; 2.0; 3.0 |] in
        Multinode.exchange m
          (staged_plan m [ ({ Multinode.src = 0; dst = 1; words = 3 }, (payload, 0, 100)) ]);
        check_float "arrived" 2.0 (Node.read_plane (Multinode.node m 1) ~plane:0 ~addr:101);
        check_bool "charged" true (m.Multinode.comm_cycles > 0));
    case "self-messages are free and do not move data" (fun () ->
        let m = Multinode.create ~dim:1 params in
        Multinode.exchange m
          (staged_plan m [ ({ Multinode.src = 0; dst = 0; words = 3 }, ([| 9.0 |], 0, 0)) ]);
        check_int "free" 0 m.Multinode.comm_cycles);
    case "gflops aggregates across nodes" (fun () ->
        let m = Multinode.create ~dim:2 params in
        Multinode.compute_step m (fun _ _ -> (1000, 32000));
        check_float "gflops" (4.0 *. 32.0 *. params.Params.clock_mhz /. 1000.0)
          (Multinode.gflops m));
  ]

let suite =
  [
    ("sim:fu-exec", fu_exec_tests);
    ("sim:engine", engine_tests);
    ("sim:sequencer", sequencer_tests);
    ("sim:stats", stats_tests);
    ("sim:multinode", multinode_tests);
  ]

(* appended: cache streams end to end *)
let cache_tests =
  [
    case "a pipeline can read a staged cache and write memory" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl = Pipeline.with_vector_length pl 8 in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_cache 3)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make (Dma_spec.To_cache 3)) ()
        in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant 10.0)
               Opcode.Fmul)
        in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
            ~dst:(Connection.Direct_memory 1)
            ~spec:(Dma_spec.make (Dma_spec.To_plane 1)) ()
        in
        let node = Node.create params in
        Node.stage_cache node ~cache:3 ~base:0 (Array.init 8 (fun i -> float_of_int i));
        let sem, issues = Semantic.of_pipeline params pl in
        check_int "no issues" 0 (List.length issues);
        ignore (Engine.run node sem);
        check_float "cache data flowed" 30.0 (Node.read_plane node ~plane:1 ~addr:3));
    case "a pipeline can write into a cache buffer" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl = Pipeline.with_vector_length pl 4 in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
        in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:Fu_config.From_switch Opcode.Pass)
        in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
            ~dst:(Connection.Direct_cache 0)
            ~spec:(Dma_spec.make (Dma_spec.To_cache 0)) ()
        in
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 [| 7.; 8.; 9.; 10. |];
        let sem, _ = Semantic.of_pipeline params pl in
        ignore (Engine.run node sem);
        check_float "written to cache" 9.0
          (Nsc_arch.Cache.read_pipeline (Node.cache node 0) 2));
  ]

let suite = suite @ [ ("sim:cache", cache_tests) ]

(* appended: the compile stage, its per-instruction kernel cell, and the
   multinode domain fan-out *)
let plan_tests =
  [
    case "timing analysis runs exactly once per compiled kernel" (fun () ->
        let prog, _ = vecadd_program ~n:8 () in
        let prog =
          Program.set_control prog
            [ Program.Repeat { count = 6; body = [ Program.Exec 1 ] }; Program.Halt ]
        in
        (* microcode compilation (which runs the checker) happens outside
           the measurement window: only the simulator's own analyses count *)
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let node = Node.create params in
        let a0 = Nsc_metrics.Metrics.total Nsc_checker.Timing.c_analyses in
        ignore (Result.get_ok (Sequencer.run node c));
        check_int "analysed once for six executions" 1
          (Nsc_metrics.Metrics.total Nsc_checker.Timing.c_analyses - a0));
    case "the reference agrees with the kernel on the ping-pong solve" (fun () ->
        let prob = Nsc_apps.Poisson.manufactured 5 in
        let go engine =
          Result.get_ok
            (Nsc_apps.Jacobi.solve kb ~strategy:`Ping_pong ~engine prob ~tol:1e-4
               ~max_iters:200)
        in
        let k = go `Kernel and r = go `Reference in
        check_int "sweeps" r.Nsc_apps.Jacobi.sweeps k.Nsc_apps.Jacobi.sweeps;
        check_bool "fields" true (k.Nsc_apps.Jacobi.u = r.Nsc_apps.Jacobi.u);
        check_bool "stats" true (k.Nsc_apps.Jacobi.stats = r.Nsc_apps.Jacobi.stats);
        check_bool "residual bits" true
          (Int64.bits_of_float k.Nsc_apps.Jacobi.final_change
          = Int64.bits_of_float r.Nsc_apps.Jacobi.final_change));
  ]

let suite = suite @ [ ("sim:plan", plan_tests) ]

(* The buffer layout each instruction of a program lowers to, one line
   per instruction: buffer count, stream and unit bases, pad, buffer
   length, each unit's value slot and the topological position of each
   semantic unit; "fallback" for an instruction without a fused body.  Pinned
   below, so a change to the compile stage that moves a slot or a buffer
   length (and with it the pool's behaviour) shows. *)
let kernel_layouts (program : Program.t) =
  let c = Result.get_ok (Nsc_microcode.Codegen.compile kb program) in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  List.map
    (fun (sem : Semantic.t) ->
      Printf.sprintf "%d: %s" sem.Semantic.index
        (match (Kernel.compile params sem).Kernel.body with
        | None -> "fallback"
        | Some b ->
            Printf.sprintf "n%d s%d u%d pad%d blen%d val[%s] order[%s]" b.Kernel.n_buffers
              b.Kernel.stream_base b.Kernel.unit_base b.Kernel.pad b.Kernel.blen
              (ints b.Kernel.val_slot) (ints b.Kernel.order_of_sem)))
    c.Nsc_microcode.Codegen.semantics

let layout_programs () =
  let jacobi strategy =
    (Nsc_apps.Jacobi.build kb ~strategy (Nsc_apps.Grid.cube 9) ~tol:1e-6 ~max_iters:1000)
      .Nsc_apps.Jacobi.program
  in
  let lang =
    Result.get_ok
      (Nsc_lang.Compile.compile kb
         "array u[62] plane 0\narray g[62] plane 1\narray mask[62] plane 2\n\
          array unew[62] plane 3\narray f[62] plane 4\nscalar r\n\
          g = f * 0.25\n\
          while r > 0.000001 max_iters 40 {\n\
          unew = mask * ((u[-1] + u[+1] - g) * 0.5)\n\
          r = maxreduce(abs(unew - u))\n\
          u = unew + 0.0\n}\n")
  in
  [ ("jacobi n=9 refresh", jacobi `Refresh);
    ("jacobi n=9 ping-pong", jacobi `Ping_pong);
    ( "two-grid multigrid",
      (Nsc_apps.Multigrid.build kb (Nsc_apps.Multigrid.grid1 17) ~cycles:1 ~nu1:2 ~nu2:2
         ~nu_coarse:20)
        .Nsc_apps.Multigrid.program );
    ("pipeline language", lang.Nsc_lang.Compile.program) ]

(* the layouts the two-stage compiler (semantics to plan to kernel)
   produced: lowering in one stage must move no slot and no buffer
   length *)
let pinned_layouts =
  [
    ( "jacobi n=9 refresh",
      [
        "1: n4 s2 u3 pad0 blen891 val[3] order[0]";
        "2: n23 s2 u11 pad1 blen731 val[11,12,13,14,15,16,17,18,19,20,21,22] order[0,1,2,3,4,5,6,7,8,9,10,11]";
        "3: n6 s1 u2 pad0 blen729 val[1,1,1,1] order[0,1,2,3]";
      ] );
    ( "jacobi n=9 ping-pong",
      [
        "1: n4 s2 u3 pad0 blen891 val[3] order[0]";
        "2: n24 s2 u11 pad1 blen731 val[11,12,13,14,15,16,17,18,19,20,21,18,23] order[0,1,2,3,4,5,6,7,8,9,10,11,12]";
        "3: n24 s2 u11 pad1 blen731 val[11,12,13,14,15,16,17,18,19,20,21,18,23] order[0,1,2,3,4,5,6,7,8,9,10,11,12]";
      ] );
    ( "two-grid multigrid",
      [
        "1: n4 s2 u3 pad0 blen17 val[3] order[0]";
        "2: n14 s3 u8 pad0 blen17 val[8,9,10,11,12,13] order[0,1,2,3,4,5]";
        "3: n4 s1 u2 pad0 blen17 val[1,1] order[0,1]";
        "4: n14 s3 u8 pad0 blen17 val[8,9,10,11,12,13] order[0,1,2,3,4,5]";
        "5: n10 s3 u6 pad0 blen9 val[6,7,8,9] order[0,1,2,3]";
        "6: n4 s2 u3 pad0 blen9 val[3] order[0]";
        "7: n4 s2 u3 pad0 blen9 val[3] order[0]";
        "8: n14 s3 u8 pad0 blen9 val[8,9,10,11,12,13] order[0,1,2,3,4,5]";
        "9: n4 s1 u2 pad0 blen9 val[1,1] order[0,1]";
        "10: n3 s1 u2 pad0 blen9 val[1] order[0]";
        "11: n6 s2 u4 pad0 blen8 val[4,5] order[0,1]";
        "12: n4 s1 u3 pad0 blen17 val[3] order[0]";
      ] );
    ( "pipeline language",
      [
        "1: n4 s2 u3 pad0 blen62 val[3] order[0]";
        "2: n10 s2 u6 pad0 blen62 val[6,7,8,9] order[0,1,2,3]";
        "3: n6 s1 u3 pad1 blen64 val[3,4,5] order[0,1,2]";
        "4: n4 s2 u3 pad0 blen62 val[3] order[0]";
      ] );
  ]

(* appended: the fused-kernel stage — its per-instruction cache and
   counters, agreement with the reference evaluator and tracing
   transparency *)
let kernel_tests =
  [
    case "sequencer compiles each kernel once and hits the cache after"
      (fun () ->
        let prog, _ = vecadd_program ~n:8 () in
        let prog =
          Program.set_control prog
            [ Program.Repeat { count = 5; body = [ Program.Exec 1 ] }; Program.Halt ]
        in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let node = Node.create params in
        let kc0 = Kernel.compile_count () and kh0 = Kernel.cache_hit_count () in
        (match Sequencer.run node c with
        | Ok o -> check_int "five" 5 o.Sequencer.stats.Sequencer.instructions_executed
        | Error e -> Alcotest.fail e);
        check_int "one kernel compile" 1 (Kernel.compile_count () - kc0);
        check_int "four kernel hits" 4 (Kernel.cache_hit_count () - kh0);
        List.iter2
          (fun (name, prog) (name', want) ->
            Alcotest.(check string) "program" name' name;
            Alcotest.(check (list string)) (name ^ ": kernel layouts") want
              (kernel_layouts prog))
          (layout_programs ()) pinned_layouts);
    case "kernel and reference engines agree on the Jacobi solve" (fun () ->
        let prob = Nsc_apps.Poisson.manufactured 5 in
        let go engine =
          Result.get_ok
            (Nsc_apps.Jacobi.solve kb ~engine prob ~tol:1e-4 ~max_iters:200)
        in
        let k = go `Kernel and r = go `Reference in
        check_int "sweeps" r.Nsc_apps.Jacobi.sweeps k.Nsc_apps.Jacobi.sweeps;
        check_bool "fields" true (k.Nsc_apps.Jacobi.u = r.Nsc_apps.Jacobi.u);
        check_bool "stats" true (k.Nsc_apps.Jacobi.stats = r.Nsc_apps.Jacobi.stats);
        check_bool "residual bits" true
          (Int64.bits_of_float k.Nsc_apps.Jacobi.final_change
          = Int64.bits_of_float r.Nsc_apps.Jacobi.final_change));
    case "kernel path is bit-identical with tracing on and off" (fun () ->
        let prob = Nsc_apps.Poisson.manufactured 5 in
        let go () =
          Result.get_ok (Nsc_apps.Jacobi.solve kb prob ~tol:1e-4 ~max_iters:200)
        in
        let off = go () in
        let ctx = Nsc_metrics.Metrics.create () in
        Nsc_metrics.Metrics.enable ctx;
        let on =
          Fun.protect
            ~finally:(fun () -> Nsc_metrics.Metrics.disable ctx)
            (fun () -> Nsc_metrics.Metrics.with_ctx ctx go)
        in
        check_int "sweeps" off.Nsc_apps.Jacobi.sweeps on.Nsc_apps.Jacobi.sweeps;
        check_bool "fields" true (off.Nsc_apps.Jacobi.u = on.Nsc_apps.Jacobi.u);
        check_bool "residual" true
          (off.Nsc_apps.Jacobi.final_change = on.Nsc_apps.Jacobi.final_change));
  ]

let suite = suite @ [ ("sim:kernel", kernel_tests) ]

(* appended: the asynchronous exchange — per-(src, dst) coalescing, the
   post/complete pair, overlap accounting and the zero-cycle guards *)
let async_exchange_tests =
  [
    case "same-pair messages coalesce into one amortised transfer" (fun () ->
        let m = Multinode.create ~dim:2 params in
        Multinode.exchange m
          (staged_plan m
             [ ({ Multinode.src = 0; dst = 3; words = 16 }, (Array.make 16 1.0, 0, 0));
               ({ Multinode.src = 0; dst = 3; words = 16 }, (Array.make 16 2.0, 0, 64)) ]);
        (* one routed transfer of the summed words — the second message's
           hop latency is amortised away, so the pair is cheaper than two
           serialised transfers and leaves no serialisation surplus *)
        check_int "coalesced cost"
          (Router.transfer_cycles params ~src:0 ~dst:3 ~words:32)
          m.Multinode.comm_cycles;
        check_int "no contention inside a coalesced transfer" 0
          m.Multinode.contention_cycles;
        let n3 = Multinode.node m 3 in
        check_float "first payload landed" 1.0 (Node.read_plane n3 ~plane:0 ~addr:0);
        check_float "second payload landed" 2.0 (Node.read_plane n3 ~plane:0 ~addr:64));
    case "distinct destinations still serialise on their shared source" (fun () ->
        let m = Multinode.create ~dim:2 params in
        Multinode.exchange m
          (staged_plan m
             [ ({ Multinode.src = 0; dst = 1; words = 8 }, (Array.make 8 1.0, 0, 0));
               ({ Multinode.src = 0; dst = 2; words = 8 }, (Array.make 8 2.0, 0, 0)) ]);
        let c = Router.transfer_cycles params ~src:0 ~dst:1 ~words:8 in
        check_int "phase serialises" (2 * c) m.Multinode.comm_cycles;
        check_int "surplus booked on the machine" c m.Multinode.contention_cycles);
    case "a posted exchange delivers eagerly and charges at completion" (fun () ->
        let cost_of () =
          let m = Multinode.create ~dim:2 params in
          Multinode.exchange m
            (staged_plan m
               [ ({ Multinode.src = 0; dst = 1; words = 64 }, (Array.make 64 5.0, 0, 0)) ]);
          m.Multinode.comm_cycles
        in
        let cost = cost_of () in
        check_bool "positive cost" true (cost > 0);
        let m = Multinode.create ~dim:2 params in
        let h =
          Multinode.exchange_start m
            (staged_plan m
               [ ({ Multinode.src = 0; dst = 1; words = 64 }, (Array.make 64 5.0, 0, 0)) ])
        in
        check_float "payload landed at post time" 5.0
          (Node.read_plane (Multinode.node m 1) ~plane:0 ~addr:0);
        check_int "no machine time charged yet" 0 m.Multinode.cycles;
        (* enough overlapped compute to hide the whole phase *)
        Multinode.exchange_finish ~overlapped_cycles:(2 * cost) m h;
        check_int "fully hidden" 0 m.Multinode.comm_cycles;
        check_int "hidden cycles booked as overlap" cost m.Multinode.overlap_cycles;
        check_float "overlap ratio" 1.0 (Multinode.overlap_ratio m);
        (* a partial credit leaves the remainder visible *)
        let m2 = Multinode.create ~dim:2 params in
        let h2 =
          Multinode.exchange_start m2
            (staged_plan m2
               [ ({ Multinode.src = 0; dst = 1; words = 64 }, (Array.make 64 5.0, 0, 0)) ])
        in
        Multinode.exchange_finish ~overlapped_cycles:(cost / 2) m2 h2;
        check_int "visible remainder" (cost - (cost / 2)) m2.Multinode.comm_cycles;
        check_int "hidden part" (cost / 2) m2.Multinode.overlap_cycles);
    case "sync exchange equals an immediate post/complete with no credit" (fun () ->
        let go start =
          let m = Multinode.create ~dim:3 params in
          let msgs =
            staged_plan m
              [ ({ Multinode.src = 0; dst = 5; words = 32 }, (Array.make 32 1.5, 0, 0));
                ({ Multinode.src = 3; dst = 0; words = 16 }, (Array.make 16 2.5, 1, 8));
                ({ Multinode.src = 0; dst = 5; words = 32 }, (Array.make 32 3.5, 0, 40)) ]
          in
          if start then Multinode.exchange_finish m (Multinode.exchange_start m msgs)
          else Multinode.exchange m msgs;
          ( m.Multinode.cycles,
            m.Multinode.comm_cycles,
            m.Multinode.contention_cycles,
            m.Multinode.words_moved,
            Node.dump_array (Multinode.node m 5) ~plane:0 ~base:0 ~len:72 )
        in
        check_bool "identical" true (go false = go true));
    case "a handle cannot be completed twice" (fun () ->
        let m = Multinode.create ~dim:1 params in
        let h =
          Multinode.exchange_start m
            (staged_plan m
               [ ({ Multinode.src = 0; dst = 1; words = 4 }, (Array.make 4 1.0, 0, 0)) ])
        in
        Multinode.exchange_finish m h;
        Alcotest.check_raises "second completion rejected"
          (Invalid_argument "Multinode.exchange_finish: handle already completed")
          (fun () -> Multinode.exchange_finish m h));
    case "gflops and overlap_ratio guard the zero-cycle machine" (fun () ->
        let m = Multinode.create ~dim:2 params in
        check_float "gflops" 0.0 (Multinode.gflops m);
        check_float "overlap ratio" 0.0 (Multinode.overlap_ratio m);
        Multinode.compute_step m (fun _ _ -> (10, 100));
        Multinode.reset_counters m;
        check_float "gflops after reset" 0.0 (Multinode.gflops m);
        check_float "overlap after reset" 0.0 (Multinode.overlap_ratio m));
  ]

let suite = suite @ [ ("sim:async-exchange", async_exchange_tests) ]

(* appended: the v3 kernel backend — agreement with the reference under
   seeded faults (including a fault behind an elided pass-through), the
   Bigarray buffer pool's edge cases (reuse, zero-length buffers, dirty
   returns feeding the pad-zeroing path), constant interning and
   pass-through elision *)
(* A doublet with vector length 1: d0.u0 = x + 1 (x from plane 0),
   d0.u1 = [op] over the chain with B = 2.0.  u1 is written to plane 1,
   and u0 to plane 2 when [tap] is set. *)
let chained_doublet ?(tap = false) op =
  let pl, icon = pipeline_with Als.Doublet in
  let pl = Pipeline.with_vector_length pl 1 in
  let _, pl =
    Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
      ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
      ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
  in
  let pl =
    Pipeline.set_config pl ~id:icon ~slot:0
      (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant 1.0)
         Opcode.Fadd)
  in
  let pl =
    Pipeline.set_config pl ~id:icon ~slot:1
      (Fu_config.make ~a:Fu_config.From_chain ~b:(Fu_config.From_constant 2.0) op)
  in
  let tap_out pl slot plane =
    snd
      (Pipeline.add_connection pl
         ~src:(Connection.Pad { icon; pad = Icon.Out_pad slot })
         ~dst:(Connection.Direct_memory plane)
         ~spec:(Dma_spec.make (Dma_spec.To_plane plane)) ())
  in
  let pl = tap_out pl 1 1 in
  fst (Semantic.of_pipeline params (if tap then tap_out pl 0 2 else pl))

(* Run [exec] on a node holding x = -2.8429 under an [fu-fault:p=1] model
   with [seed] (vector length 1, two units: seeds 5 and 1 put the victim
   on unit 0 and unit 1 respectively); returns planes 1 and 2 at address
   0 and the result. *)
let fu_faulted ~seed exec =
  let module F = Nsc_fault.Fault in
  let run = Run.make ~fault:(F.make ~seed (Result.get_ok (F.parse "fu-fault:p=1"))) () in
  let node = Node.create params in
  Node.load_array node ~plane:0 ~base:0 [| -2.8429 |];
  let r : Engine.result = exec run node in
  (Node.read_plane node ~plane:1 ~addr:0, Node.read_plane node ~plane:2 ~addr:0, r)

let both_engines sem =
  let kn = Kernel.compile params sem in
  [ ("kernel", fun run node -> Engine.run_kernel node ~run kn);
    ("reference", fun run node -> Engine.run_general node ~run sem) ]

let kernel_v3_tests =
  let jacobi_kernel ~index =
    let b =
      Nsc_apps.Jacobi.build kb (Nsc_apps.Grid.cube 5) ~tol:1e-4 ~max_iters:50
    in
    let c = Result.get_ok (Nsc_microcode.Codegen.compile kb b.Nsc_apps.Jacobi.program) in
    let sem = Option.get (Nsc_microcode.Codegen.semantic c ~index) in
    (b, Kernel.compile params sem)
  in
  [
    case "v3 and the reference agree on a faulted Jacobi solve" (fun () ->
        let prob = Nsc_apps.Poisson.manufactured 5 in
        let module F = Nsc_fault.Fault in
        List.iter
          (fun spec_text ->
            let spec = Result.get_ok (F.parse spec_text) in
            let go engine =
              let run = Run.make ~fault:(F.make ~seed:1234 spec) () in
              Result.get_ok
                (Nsc_apps.Jacobi.solve kb ~engine ~run prob ~tol:1e-4 ~max_iters:200)
            in
            let k = go `Kernel and r = go `Reference in
            let trapped (o : Nsc_apps.Jacobi.outcome) =
              Interrupt.trapped_exceptions o.Nsc_apps.Jacobi.stats.Sequencer.events
            in
            let check_int what = check_int (spec_text ^ ": " ^ what)
            and check_bool what = check_bool (spec_text ^ ": " ^ what) in
            check_bool "the fault model trapped" true (trapped k > 0);
            check_int "sweeps" r.Nsc_apps.Jacobi.sweeps k.Nsc_apps.Jacobi.sweeps;
            check_bool "fields" true
              (compare k.Nsc_apps.Jacobi.u r.Nsc_apps.Jacobi.u = 0);
            check_int "cycles" r.Nsc_apps.Jacobi.stats.Sequencer.total_cycles
              k.Nsc_apps.Jacobi.stats.Sequencer.total_cycles;
            check_int "trapped events" (trapped r) (trapped k);
            check_bool "residual bits" true
              (Int64.bits_of_float k.Nsc_apps.Jacobi.final_change
              = Int64.bits_of_float r.Nsc_apps.Jacobi.final_change))
          [ "fu-fault:p=0.02"; "fu-fault:p=0.02,dma-stall:p=0.05" ]);
    case "an FU fault on a pass-through's source stays on the victim's latch"
      (fun () ->
        (* only the pass is written, so the kernel elides its copy and
           both units share one buffer; a fault on the adder's latch must
           not reach the pass's sink — the pass latched the clean value *)
        let sem = chained_doublet Opcode.Pass in
        (match (Kernel.compile params sem).Kernel.body with
        | Some body ->
            check_bool "the pass is elided onto its source" true
              (body.Kernel.val_slot.(1) = body.Kernel.val_slot.(0))
        | None -> Alcotest.fail "expected a fused body");
        let adder = (List.hd sem.Semantic.units).Semantic.fu in
        let observed =
          List.map
            (fun (name, exec) ->
              let pass_sink, _, r = fu_faulted ~seed:5 exec in
              check_bool (name ^ ": the draw hit the adder at element 0") true
                (List.mem
                   (Interrupt.Exception_trapped
                      { instruction = sem.Semantic.index; unit_ = adder;
                        kind = Interrupt.Invalid_operand; element = 0 })
                   r.Engine.events);
              check_float (name ^ ": the pass's sink is clean") (-1.8429) pass_sink;
              check_bool (name ^ ": the adder's latch reads NaN") true
                (Float.is_nan (List.assoc adder (Engine.last_values r)));
              (List.sort compare (Engine.last_values r), r.Engine.cycles,
               List.sort compare r.Engine.events))
            (both_engines sem)
        in
        check_bool "kernel and reference agree" true
          (compare (List.nth observed 0) (List.nth observed 1) = 0));
    case "an FU fault on an elided pass-through corrupts only its own sink"
      (fun () ->
        let sem = chained_doublet ~tap:true Opcode.Pass in
        let pass = (List.nth sem.Semantic.units 1).Semantic.fu in
        let observed =
          List.map
            (fun (name, exec) ->
              let pass_sink, adder_sink, r = fu_faulted ~seed:1 exec in
              check_bool (name ^ ": the pass's sink reads NaN") true
                (Float.is_nan pass_sink);
              check_float (name ^ ": the adder's sink is clean") (-1.8429) adder_sink;
              check_bool (name ^ ": the pass's latch reads NaN") true
                (Float.is_nan (List.assoc pass (Engine.last_values r)));
              (List.sort compare (Engine.last_values r), r.Engine.cycles,
               List.sort compare r.Engine.events))
            (both_engines sem)
        in
        check_bool "kernel and reference agree" true
          (compare (List.nth observed 0) (List.nth observed 1) = 0));
    case "a warm solve draws every working buffer from the pool" (fun () ->
        let prob = Nsc_apps.Poisson.manufactured 5 in
        let go () =
          ignore
            (Result.get_ok (Nsc_apps.Jacobi.solve kb prob ~tol:1e-4 ~max_iters:200))
        in
        go ();
        (* the first solve left a free set for every body shape this
           program dispatches; a repeat must allocate nothing *)
        let h0 = Kernel.pool_hit_count () and m0 = Kernel.pool_miss_count () in
        go ();
        check_bool "hits advanced" true (Kernel.pool_hit_count () > h0);
        check_int "no new allocations" 0 (Kernel.pool_miss_count () - m0));
    case "dirty pooled buffers never leak into a later run" (fun () ->
        let b, kn = jacobi_kernel ~index:2 in
        let prob = Nsc_apps.Poisson.manufactured 5 in
        let words =
          Nsc_apps.Grid.padded_words prob.Nsc_apps.Poisson.grid
        in
        let go () =
          let node = Node.create params in
          Nsc_apps.Jacobi.load node b prob;
          let r = Engine.run_kernel node kn in
          ( List.sort compare (Engine.last_values r),
            Node.dump_array node ~plane:b.Nsc_apps.Jacobi.layout.Nsc_apps.Jacobi.unew
              ~base:0 ~len:words,
            r.Engine.events )
        in
        let r1 = go () in
        (* poison the body's set: every buffer the kernel will draw comes
           back full of NaN, so any missed pad scrub or stale element
           read trips the trap scan and changes the observation *)
        (match kn.Kernel.body with
        | None -> Alcotest.fail "expected a fused body"
        | Some body ->
            let set = Kernel.acquire_slots body in
            for i = body.Kernel.stream_base to body.Kernel.n_buffers - 1 do
              (* a drawn set reads its own buffers: a page left behind
                 by an aliased dispatch would take the poison into plane
                 memory *)
              check_bool "the set reads its own buffer" true
                (set.Kernel.bufs.(i) == set.Kernel.own.(i));
              Bigarray.Array1.fill set.Kernel.own.(i) nan
            done;
            Kernel.release_slots body set);
        check_bool "bit-identical after pool poisoning" true (go () = r1));
    case "equal constants are interned into one static slot" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:(Fu_config.From_constant 2.5)
               ~b:(Fu_config.From_constant 2.5) Opcode.Fadd)
        in
        let pl =
          Build.pad_to_mem pl ~icon ~pad:(Icon.Out_pad 0) ~plane:5 ~var:""
            ~offset:0 ()
        in
        let sem, _ = Semantic.of_pipeline params pl in
        let kn = Kernel.compile params sem in
        match kn.Kernel.body with
        | None -> Alcotest.fail "expected a fused body"
        | Some body ->
            let u = body.Kernel.units.(0) in
            check_bool "both ports share one slot" true
              (u.Kernel.a_buf = u.Kernel.b_buf);
            check_int "zero plus a single interned constant" 2
              body.Kernel.stream_base;
            check_bool "slot holds the constant" true
              (Bigarray.Array1.get body.Kernel.static.(u.Kernel.a_buf) 0 = 2.5));
    case "refresh pass-through copies are elided onto their source" (fun () ->
        let _, kn = jacobi_kernel ~index:3 in
        match kn.Kernel.body with
        | None -> Alcotest.fail "expected a fused body"
        | Some body ->
            let elided = ref 0 in
            Array.iteri
              (fun k (u : Kernel.kunit) ->
                if body.Kernel.val_slot.(k) <> u.Kernel.out then begin
                  incr elided;
                  check_bool "resolves below unit_base" true
                    (body.Kernel.val_slot.(k) < body.Kernel.unit_base)
                end)
              body.Kernel.units;
            check_int "every copy unit elided" (Array.length body.Kernel.units)
              !elided);
  ]

let suite = suite @ [ ("sim:kernel-v3", kernel_v3_tests) ]

(* appended: the FU-fault latch model both evaluators share *)
let fault_latch_tests =
  [
    case "a faulted latch drains NaN while its consumers stay clean" (fun () ->
        (* u0 = x + 1 is the victim; u1 = u0 * 2 consumes it in the same
           instruction and must latch the clean value *)
        let sem = chained_doublet ~tap:true Opcode.Fmul in
        let adder = (List.hd sem.Semantic.units).Semantic.fu in
        List.iter
          (fun (name, exec) ->
            let consumer_sink, victim_sink, r = fu_faulted ~seed:5 exec in
            check_bool (name ^ ": the victim's sink reads NaN") true
              (Float.is_nan victim_sink);
            check_float (name ^ ": the consumer computed from the clean value")
              ((-2.8429 +. 1.0) *. 2.0) consumer_sink;
            check_bool (name ^ ": the victim's last value reads NaN") true
              (Float.is_nan (List.assoc adder (Engine.last_values r)));
            check_int (name ^ ": one trapped exception") 1
              (Interrupt.trapped_exceptions r.Engine.events))
          (both_engines sem));
  ]

let suite = suite @ [ ("sim:fault-latch", fault_latch_tests) ]

(* appended: a program prepared once and executed many times *)

(* A seeded pipeline-language program: a 1-D three-point relaxation of
   seeded length, repeat count and coefficients, with a convergence loop
   around it so the control programme also evaluates conditions. *)
let seeded_lang ?len seed =
  let rng = Random.State.make [| seed |] in
  let len = match len with Some l -> l | None -> 8 + Random.State.int rng 40 in
  let reps = 1 + Random.State.int rng 3 in
  let coeff () = Printf.sprintf "%.6f" (0.1 +. Random.State.float rng 0.35) in
  let src =
    String.concat "\n"
      [ Printf.sprintf "array u[%d] plane 0" len;
        Printf.sprintf "array v[%d] plane 1" len;
        Printf.sprintf "array d[%d] plane 2" len;
        "scalar r";
        "while r > 0.01 max_iters 6 {";
        Printf.sprintf "repeat %d {" reps;
        Printf.sprintf "v = (u[-1] + u[+1]) * %s + %s" (coeff ()) (coeff ());
        "u = v + 0.0";
        "}";
        "d = v - u[+1]";
        "r = maxreduce(abs(d))";
        "}";
        "" ]
  in
  let c = Result.get_ok (Nsc_lang.Compile.compile kb src) in
  (Result.get_ok (Nsc_microcode.Codegen.compile kb c.Nsc_lang.Compile.program), fun _ -> ())

(* The n=5 Jacobi program, capped at a seeded sweep count, and its
   problem loader. *)
let seeded_jacobi ?layout seed =
  let prob = Nsc_apps.Poisson.manufactured 5 in
  let b =
    Nsc_apps.Jacobi.build kb ?layout prob.Nsc_apps.Poisson.grid ~tol:1e-6
      ~max_iters:(1 + (seed mod 12))
  in
  ( Result.get_ok (Nsc_microcode.Codegen.compile kb b.Nsc_apps.Jacobi.program),
    fun node -> Nsc_apps.Jacobi.load node b prob )

(* Everything a run leaves behind: its stats with the events sorted, its
   captured scalars, and the first 400 words of every plane. *)
let observe node (o : Sequencer.outcome) =
  let st = o.Sequencer.stats in
  ( { st with Sequencer.events = List.sort compare st.Sequencer.events },
    o.Sequencer.halted,
    o.Sequencer.last_values,
    List.init params.Params.n_memory_planes (fun plane ->
        Node.dump_array node ~plane ~base:0 ~len:400) )

let prepared_tests =
  [
    qcheck ~count:24 "exec of one prepared program on fresh nodes = run with a decode per call"
      QCheck2.Gen.(triple bool bool (int_range 0 1000))
      (fun (jacobi, from_microcode, seed) ->
        let c, load = if jacobi then seeded_jacobi seed else seeded_lang seed in
        let fresh () =
          let node = Node.create params in
          load node;
          node
        in
        let by_run =
          let node = fresh () in
          observe node (Result.get_ok (Sequencer.run node ~from_microcode c))
        in
        let prog = Result.get_ok (Sequencer.prepare ~from_microcode c) in
        let run = Run.make () in
        let by_exec () =
          let node = fresh () in
          observe node (Result.get_ok (Sequencer.exec node ~run prog))
        in
        (* the second execution replays the first one's compiled kernels *)
        let first = by_exec () in
        let second = by_exec () in
        compare by_run first = 0 && compare by_run second = 0);
    qcheck ~count:16
      "two programs of one shape alternated over one run compile each instruction once"
      QCheck2.Gen.(triple bool (int_range 0 1000) (int_range 0 1000))
      (fun (jacobi, s1, s2) ->
        (* two checked programs whose instructions share index and
           vector length: Jacobi's two layouts, or two pipeline-language
           programs of one length with their own coefficients *)
        let a, b =
          if jacobi then
            ( seeded_jacobi ~layout:Nsc_apps.Jacobi.distributed s1,
              seeded_jacobi ~layout:Nsc_apps.Jacobi.packed s2 )
          else
            let len = 8 + (s1 mod 40) in
            (seeded_lang ~len s1, seeded_lang ~len (s2 + 1001))
        in
        let prepared (c, load) = (Result.get_ok (Sequencer.prepare c), load) in
        let a = prepared a and b = prepared b in
        let exec ?run engine (prog, load) =
          let node = Node.create params in
          load node;
          observe node (Result.get_ok (Sequencer.exec node ?run ~engine prog))
        in
        let reference_a = exec `Reference a and reference_b = exec `Reference b in
        let instructions (prog, _) = Kernel.Table.cardinal prog.Kernel.table in
        let run = Run.make () in
        let compiles0 = Kernel.compile_count () in
        let agree =
          List.for_all
            (fun (prog, reference) -> compare (exec ~run `Kernel prog) reference = 0)
            [ (a, reference_a); (b, reference_b); (a, reference_a); (b, reference_b) ]
        in
        agree && Kernel.compile_count () - compiles0 = instructions a + instructions b);
    case "Node.create allocates under 20k minor words and nothing on the major heap"
      (fun () ->
        ignore (Sys.opaque_identity (Node.create params));
        Gc.full_major ();
        let before = Gc.quick_stat () and words = Gc.minor_words () in
        let node = Node.create params in
        (* [Gc.minor_words] is exact; [quick_stat]'s minor count is not *)
        let minor = Gc.minor_words () -. words in
        let after = Gc.quick_stat () in
        ignore (Sys.opaque_identity node);
        let direct_major (s : Gc.stat) = s.Gc.major_words -. s.Gc.promoted_words in
        if minor >= 20_000.0 then Alcotest.failf "Node.create allocated %.0f minor words" minor;
        check_bool "no direct major allocation" true
          (direct_major after -. direct_major before = 0.0);
        check_int "no major collection" before.Gc.major_collections
          after.Gc.major_collections);
    case "a warm n=9 solve allocates exactly 892 words directly on the major heap"
      (fun () ->
        (* Exact is stable.  A block bigger than the minor heap's
           per-block limit is allocated straight on the major heap, and
           which blocks those are depends only on the deterministic
           solve, never on when collections run.  Here it is one block:
           the 891-word field the solve returns, plus its header.  The
           microcode layout, with its 512-bucket name table, is built once
           per machine, before the window.  The runtime books those words
           at collections, so the window opens and closes with
           [Gc.full_major]: every direct allocation of the solve is
           booked, and [promoted_words] cancels what the collections
           promote. *)
        let prob = Nsc_apps.Poisson.manufactured 9 in
        let run = Run.make () in
        let solve () =
          Result.get_ok (Nsc_apps.Jacobi.solve kb ~run prob ~tol:1e-6 ~max_iters:1000)
        in
        (* The same two solves pin the compile cache and the buffer pool:
           the cold solve compiles the program's three distinct kernels
           into the run's fresh cache, and the warm one compiles nothing
           and takes every buffer from the pool. *)
        let compiles0 = Kernel.compile_count () in
        ignore (Sys.opaque_identity (solve ()));
        Gc.full_major ();
        let direct_major (s : Gc.stat) = s.Gc.major_words -. s.Gc.promoted_words in
        let misses0 = Kernel.pool_miss_count () in
        let before = Gc.quick_stat () in
        let o = solve () in
        Gc.full_major ();
        let after = Gc.quick_stat () in
        ignore (Sys.opaque_identity o);
        check_int "direct major words" 892
          (int_of_float (direct_major after -. direct_major before));
        check_int "kernel compiles across both solves" 3
          (Kernel.compile_count () - compiles0);
        check_int "pool misses in the warm solve" 0 (Kernel.pool_miss_count () - misses0));
  ]

let suite = suite @ [ ("sim:prepared", prepared_tests) ]

(* appended: the warm dispatch path — the pool's per-shape working
   sets, the dense scalar capture, and the minor words a warm iteration
   allocates *)

(* The n=9 Jacobi program's iteration body (instructions 2 and 3),
   prepared on its own, and a node that has run the set-up instruction. *)
let n9_body () =
  let prob = Nsc_apps.Poisson.manufactured 9 in
  let b = Nsc_apps.Jacobi.build kb prob.Nsc_apps.Poisson.grid ~tol:0.0 ~max_iters:1 in
  let c = Result.get_ok (Nsc_microcode.Codegen.compile kb b.Nsc_apps.Jacobi.program) in
  let prepare control =
    Result.get_ok (Sequencer.prepare { c with Nsc_microcode.Codegen.control })
  in
  let node = Node.create params in
  Nsc_apps.Jacobi.load node b prob;
  let run = Run.make () in
  ignore (Result.get_ok (Sequencer.exec node ~run (prepare [ Program.Exec 1; Program.Halt ])));
  (node, run, prepare [ Program.Exec 2; Program.Exec 3; Program.Halt ], c)

(* Minor words [f] allocates. *)
let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity r);
  words

let warm_path_tests =
  [
    case "a fused body unwound by a budget poll returns every drawn buffer"
      (fun () ->
        let node, run, _, c = n9_body () in
        let sem = Option.get (Nsc_microcode.Codegen.semantic c ~index:2) in
        let kn = Kernel.compile params sem in
        ignore (Engine.run_kernel node ~run kn);
        let cancelled = Nsc_guard.Guard.Budget.create () in
        Nsc_guard.Guard.Budget.cancel cancelled;
        let expired = Nsc_guard.Guard.Budget.create ~deadline_ms:1e-6 () in
        Unix.sleepf 0.002;
        List.iter
          (fun (name, budget) ->
            (match Engine.run_kernel node ~run:(Run.make ~budget ()) kn with
            | _ -> Alcotest.failf "%s: the body ran to completion" name
            | exception Nsc_guard.Guard.Budget.Deadline_exceeded _ -> ());
            (* a set the unwind kept would leave the shape taken *)
            let m0 = Kernel.pool_miss_count () in
            ignore (Engine.run_kernel node ~run kn);
            check_int (name ^ ": pool misses in a run after the unwind") 0
              (Kernel.pool_miss_count () - m0))
          [ ("cancellation", cancelled); ("wall deadline", expired) ]);
    qcheck ~count:24
      "last_values equals a hashtable of every dispatch's values, sorted, on both engines"
      QCheck2.Gen.(triple bool bool (int_range 0 1000))
      (fun (jacobi, reference, seed) ->
        let c, load = if jacobi then seeded_jacobi seed else seeded_lang seed in
        let node = Node.create params in
        load node;
        let captured = Hashtbl.create 16 in
        let on_instruction _ r =
          List.iter (fun (fu, v) -> Hashtbl.replace captured fu v) (Engine.last_values r)
        in
        let engine = if reference then `Reference else `Kernel in
        let o = Result.get_ok (Sequencer.run node ~engine ~on_instruction c) in
        let expected =
          Hashtbl.fold (fun fu v acc -> (fu, v) :: acc) captured [] |> List.sort compare
        in
        o.Sequencer.last_values <> [] && compare o.Sequencer.last_values expected = 0);
    case "a warm exec of the n=9 iteration body allocates at most 292 minor words"
      (fun () ->
        (* 292 words on OCaml 5.1: two dispatches, a fresh scratch and the
           outcome with its last_values list; per-dispatch slot arrays,
           recording closures and event lists took it to 426 *)
        let node, run, body, _ = n9_body () in
        for _ = 1 to 2 do
          ignore (Sequencer.exec node ~run body)
        done;
        let words = minor_words (fun () -> Sequencer.exec node ~run body) in
        if words > 292.0 then Alcotest.failf "a warm exec allocated %.0f minor words" words);
    case "a warm 8-node iteration allocates at most 419 minor words" (fun () ->
        (* one more iteration of the same solve: the sweep on every node,
           the halo exchange and the all-reduce (419 words on OCaml 5.1:
           eight warm exec_intos and the compute step's per-node pairs;
           435 with a per-step result array, and 4,905 with payload
           arrays, a per-exchange coalescing table, a fresh outcome per
           node and a copying all-reduce) *)
        let solve iters =
          minor_words (fun () ->
              Result.get_ok
                (Nsc_apps.Parallel.solve params ~n:9 ~tol:0.0 ~max_iters:iters ~dim:3))
        in
        ignore (solve 2);
        let words = solve 4 -. solve 3 in
        if words > 419.0 then
          Alcotest.failf "one warm iteration allocated %.0f minor words" words);
    case "a warm n=9 solve through a persistent run allocates under 50k minor words"
      (fun () ->
        (* 11.8k words on OCaml 5.1: a fresh node, the 289 dispatches and
           the result (24.7k before pooled slot arrays and closure-free
           dispatch); rebuilding, checking, encoding and decoding the
           program on every call took 86.4k *)
        let prob = Nsc_apps.Poisson.manufactured 9 in
        let run = Run.make () in
        let solve () =
          Result.get_ok (Nsc_apps.Jacobi.solve kb ~run prob ~tol:1e-6 ~max_iters:1000)
        in
        for _ = 1 to 2 do
          ignore (solve ())
        done;
        let words = minor_words solve in
        if words >= 50_000.0 then
          Alcotest.failf "a warm solve allocated %.0f minor words" words);
    case "a warm exec_into of the n=9 iteration body allocates at most 48 minor words"
      (fun () ->
        (* 48 words on OCaml 5.1: each dispatch's engine result and its
           last-values array, the two events' list cells and the [Some run]
           of the call; the scratch is the caller's *)
        let node, run, body, _ = n9_body () in
        let s = Sequencer.scratch body in
        for _ = 1 to 2 do
          ignore (Sequencer.exec_into node ~run body s)
        done;
        let words = minor_words (fun () -> Sequencer.exec_into node ~run body s) in
        if words > 48.0 then Alcotest.failf "a warm exec_into allocated %.0f minor words" words);
    case "compiling the n=9 sweep allocates at most 3,187 minor words" (fun () ->
        (* 3,187 words on OCaml 5.1, the timing analysis included;
           3,215 before each step's closure held its unit and step code
           rather than six of the unit's fields.  The fold mask and the
           own-write check are loops over ints and allocate nothing.
           3,223 before the alias mask and before the static prefix lost
           its placeholder buffer.  Building the mask from records and
           closures cost 163 more *)
        let _, _, _, c = n9_body () in
        let sem = Option.get (Nsc_microcode.Codegen.semantic c ~index:2) in
        for _ = 1 to 2 do
          ignore (Kernel.compile params sem)
        done;
        let words = minor_words (fun () -> Kernel.compile params sem) in
        if words > 3187.0 then Alcotest.failf "the compile allocated %.0f minor words" words);
    case "bodies alike but for their static prefix draw separate working sets"
      (fun () ->
        (* compile-cold's traffic: 4 slots of one length, with a static
           prefix of the zero buffer alone (x + y) and of the zero buffer
           and one constant (x * 2.5); a set shared by the two would hand
           the constant's buffer to x + y as its first stream slot *)
        let add =
          Kernel.compile params (fst (semantic_of_program (fst (vecadd_program ())) 1))
        in
        let scale =
          let pl, icon = pipeline_with Als.Singlet in
          let pl = Pipeline.with_vector_length pl 16 in
          let pl =
            Build.mem_to_pad pl ~plane:0 ~var:"" ~offset:0 ~icon
              ~pad:(Icon.In_pad (0, Resource.A)) ()
          in
          let pl =
            Build.pad_to_mem pl ~icon ~pad:(Icon.Out_pad 0) ~plane:3 ~var:"" ~offset:0 ()
          in
          let pl =
            Pipeline.set_config pl ~id:icon ~slot:0
              (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant 2.5)
                 Opcode.Fmul)
          in
          Kernel.compile params (fst (Semantic.of_pipeline params ~lookup:(fun _ -> Some 0) pl))
        in
        let a = Option.get add.Kernel.body and b = Option.get scale.Kernel.body in
        check_int "one slot count" a.Kernel.n_buffers b.Kernel.n_buffers;
        check_int "one buffer length" a.Kernel.blen b.Kernel.blen;
        check_int "x + y: zero only" 1 a.Kernel.stream_base;
        check_int "x * 2.5: zero and the constant" 2 b.Kernel.stream_base;
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 (Array.init 16 (fun i -> float_of_int (i + 1)));
        Node.load_array node ~plane:1 ~base:0 (Array.init 16 (fun i -> 0.5 *. float_of_int i));
        let observe (r : Engine.result) =
          ( Engine.last_values r,
            Node.dump_array node ~plane:2 ~base:0 ~len:16,
            Node.dump_array node ~plane:3 ~base:0 ~len:16,
            r.Engine.events )
        in
        for round = 1 to 3 do
          List.iter
            (fun (name, kn) ->
              let fused = observe (Engine.run_kernel node kn) in
              let reference = observe (Engine.run_general node kn.Kernel.sem) in
              check_bool (Printf.sprintf "round %d, %s: bit-identical to the reference" round name)
                true
                (compare fused reference = 0))
            [ ("x + y", add); ("x * 2.5", scale) ]
        done;
        (* a drawn set is taken: a second draw of its shape is fresh *)
        let first = Kernel.acquire_slots a in
        let second = Kernel.acquire_slots a in
        check_bool "a drawn set is not handed out twice" true (first != second);
        Kernel.release_slots a second;
        Kernel.release_slots a first);
  ]

let suite = suite @ [ ("sim:warm-path", warm_path_tests) ]

(* appended: a delay-1 feedback unit over more than one kernel block (the
   fused loops run 1024 elements per native call), so the carried value
   crosses a block boundary.  Elements 1023 and 1024 straddle it, and each
   scenario puts a new extreme, a tie with the running value or a NaN on
   either side.  The unit reads a stream on one port and its own output
   one element back on the other, and writes plane 1. *)
let feedback_unit ~vlen ~self_is_a op =
  let pl = Pipeline.with_vector_length (Pipeline.empty 1) vlen in
  let icon, pl =
    Build.fail_on_error
      (Pipeline.place_als params pl ~kind:Als.Doublet ~bypass:Als.Keep_tail
         ~pos:(Geometry.point 10 2) ())
  in
  let port = if self_is_a then Resource.B else Resource.A in
  let _, pl =
    Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
      ~dst:(Connection.Pad { icon; pad = Icon.In_pad (1, port) })
      ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
  in
  let self = Fu_config.From_feedback 1 and other = Fu_config.From_switch in
  let a, b = if self_is_a then (self, other) else (other, self) in
  let pl = Pipeline.set_config pl ~id:icon ~slot:1 (Fu_config.make ~a ~b op) in
  let _, pl =
    Pipeline.add_connection pl
      ~src:(Connection.Pad { icon; pad = Icon.Out_pad 1 })
      ~dst:(Connection.Direct_memory 1)
      ~spec:(Dma_spec.make (Dma_spec.To_plane 1)) ()
  in
  fst (Semantic.of_pipeline params pl)

let feedback_tests =
  let vlen = 2100 in
  (* [lead] is element 0's value; the rest stays strictly inside (-1, 1)
     unless a scenario places a value at 1023 or 1024 *)
  let input ~lead (at_1023, at_1024) =
    Array.init vlen (fun i ->
        if i = 0 then lead
        else if i = 1023 then at_1023
        else if i = 1024 then at_1024
        else Float.sin (float_of_int i *. 0.37) *. 0.9)
  in
  let scenarios ~extreme ~lead =
    let nan = Int64.float_of_bits 0x7FF8_0000_0000_0BADL in
    [ ("a new extreme, then a tie", (extreme, extreme));
      ("a tie, then a new extreme", (lead, extreme));
      ("a NaN, then a tie", (nan, lead));
      ("a new extreme, then a NaN", (extreme, nan));
      ("a tie on both sides", (lead, lead)) ]
  in
  let agree op ~self_is_a ~lead ~extreme =
    let sem = feedback_unit ~vlen ~self_is_a op in
    check_bool "the kernel has a fused body" true
      (Option.is_some (Kernel.compile params sem).Kernel.body);
    List.iter
      (fun (what, at) ->
        let xs = input ~lead at in
        let name =
          Printf.sprintf "%s, self on %s, %s" (Opcode.mnemonic op)
            (if self_is_a then "a" else "b") what
        in
        let results =
          List.map
            (fun (engine, exec) ->
              let node = Node.create params in
              Node.load_array node ~plane:0 ~base:0 xs;
              let r : Engine.result = exec (Run.make ()) node in
              (engine, r, Array.init vlen (fun e -> Node.read_plane node ~plane:1 ~addr:e)))
            (both_engines sem)
        in
        match results with
        | [ (_, k, kv); (_, g, gv) ] ->
            let bits = Int64.bits_of_float in
            Array.iteri
              (fun e v ->
                if bits v <> bits kv.(e) then
                  Alcotest.failf "%s: element %d is %h on the kernel, %h on the reference"
                    name e kv.(e) v)
              gv;
            check_bool (name ^ ": last values") true
              (List.map (fun (fu, v) -> (fu, bits v)) (Engine.last_values k)
              = List.map (fun (fu, v) -> (fu, bits v)) (Engine.last_values g));
            check_int (name ^ ": trapped") (Interrupt.trapped_exceptions g.Engine.events)
              (Interrupt.trapped_exceptions k.Engine.events);
            check_bool (name ^ ": events") true (k.Engine.events = g.Engine.events);
            if Float.is_nan (fst at) || Float.is_nan (snd at) then
              check_bool (name ^ ": the NaN traps") true
                (Interrupt.trapped_exceptions k.Engine.events > 0)
        | _ -> assert false)
      (scenarios ~extreme ~lead)
  in
  [
    case "delay-1 Max, Min and Fadd feedback across a kernel block boundary match the reference"
      (fun () ->
        List.iter
          (fun self_is_a ->
            agree Opcode.Max ~self_is_a ~lead:4.0 ~extreme:9.0;
            agree Opcode.Min ~self_is_a ~lead:(-4.0) ~extreme:(-9.0);
            agree Opcode.Fadd ~self_is_a ~lead:4.0 ~extreme:Float.infinity)
          [ false; true ]);
  ]

let suite = suite @ [ ("sim:feedback", feedback_tests) ]

(* appended: read streams read in place from their plane pages — which
   streams the compile lets alias, which windows a dispatch aliases, and
   agreement with the reference evaluator bit for bit, clean and under
   fu-fault, wherever aliasing could change a value *)

(* Where a singlet's operand comes from: a plane stream at a base, a
   cache stream, a plane stream through a shift/delay unit, or a
   constant. *)
type feed =
  | Plane_at of int * int
  | Cache_at of int
  | Shifted of int * int * Shift_delay.mode
  | Const of float

(* A one-singlet instruction: [op] over feeds [a] and [b] (b is ignored
   by a unary opcode), its output written to every [(plane, base)] of
   [sinks], over [vlen] elements. *)
let singlet_over ~vlen ~a ?(b = Const 0.0) ~sinks op =
  let pl, icon = pipeline_with Als.Singlet in
  let pl = Pipeline.with_vector_length pl vlen in
  let wire pl port = function
    | Const c -> (pl, Fu_config.From_constant c)
    | Plane_at (plane, base) ->
        ( snd
            (Pipeline.add_connection pl ~src:(Connection.Direct_memory plane)
               ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, port) })
               ~spec:(Dma_spec.make ~offset:base (Dma_spec.To_plane plane)) ()),
          Fu_config.From_switch )
    | Cache_at c ->
        ( snd
            (Pipeline.add_connection pl ~src:(Connection.Direct_cache c)
               ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, port) })
               ~spec:(Dma_spec.make (Dma_spec.To_cache c)) ()),
          Fu_config.From_switch )
    | Shifted (plane, base, mode) ->
        let sd, pl =
          Build.fail_on_error
            (Pipeline.place_shift_delay params pl ~mode ~pos:(Geometry.point 4 2))
        in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory plane)
            ~dst:(Connection.Pad { icon = sd; pad = Icon.Flow_in })
            ~spec:(Dma_spec.make ~offset:base (Dma_spec.To_plane plane)) ()
        in
        ( Build.pad_to_pad pl ~from_icon:sd ~from_pad:Icon.Flow_out ~to_icon:icon
            ~to_pad:(Icon.In_pad (0, port)),
          Fu_config.From_switch )
  in
  let pl, a = wire pl Resource.A a in
  let pl, b = if Opcode.arity op = 2 then wire pl Resource.B b else (pl, Fu_config.Unbound) in
  let pl = Pipeline.set_config pl ~id:icon ~slot:0 (Fu_config.make ~a ~b op) in
  let pl =
    List.fold_left
      (fun pl (plane, base) ->
        snd
          (Pipeline.add_connection pl
             ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
             ~dst:(Connection.Direct_memory plane)
             ~spec:(Dma_spec.make ~offset:base (Dma_spec.To_plane plane)) ()))
      pl sinks
  in
  let sem, issues = Semantic.of_pipeline params pl in
  if issues <> [] then Alcotest.fail "the test instruction has issues";
  Kernel.compile params sem

let body_of (kn : Kernel.t) =
  match kn.Kernel.body with Some b -> b | None -> Alcotest.fail "expected a fused body"

(* The compile's alias mask, one flag per read stream. *)
let alias_flags kn =
  let b = body_of kn in
  List.init (Array.length b.Kernel.reads) (fun s -> (b.Kernel.alias lsr s) land 1 = 1)

(* Dispatch [kn] on [node] and report, per read stream, whether the
   dispatch gathered it: the own buffers of the shape's pooled set are
   poisoned with NaN first, and a gather overwrites its buffer's live
   range while a stream read in place leaves it alone. *)
let gathered_by_dispatch ?run node kn =
  let b = body_of kn in
  let poison = Kernel.acquire_slots b in
  for i = b.Kernel.stream_base to b.Kernel.n_buffers - 1 do
    Bigarray.Array1.fill poison.Kernel.own.(i) nan
  done;
  Kernel.release_slots b poison;
  let r = Engine.run_kernel node ?run kn in
  let set = Kernel.acquire_slots b in
  check_bool "the dispatch drew the poisoned set" true (set == poison);
  let gathered =
    List.init (Array.length b.Kernel.reads) (fun s ->
        let own = set.Kernel.own.(b.Kernel.stream_base + s) in
        b.Kernel.vlen > 0 && not (Float.is_nan (Bigarray.Array1.get own b.Kernel.pad)))
  in
  Kernel.release_slots b set;
  (r, gathered)

(* The kernel and the reference evaluator agree bit for bit, on fresh
   nodes loaded by [load]: last values, cycles, events and the words of
   every [(plane, base, len)] in [dumps] (sources and sinks alike, so a
   NaN that reached a plane page shows).  Clean, then under
   [fu-fault:p=1] with several seeds, so the victim latch lands on every
   unit and on elements across the vector. *)
let agree_with_reference name kn ~load ~dumps =
  let module F = Nsc_fault.Fault in
  let bits_of_list = List.map (fun (fu, v) -> (fu, Int64.bits_of_float v)) in
  let observe run exec =
    let node = Node.create params in
    load node;
    let r : Engine.result = exec run node in
    ( bits_of_list (List.sort compare (Engine.last_values r)),
      r.Engine.cycles,
      List.sort compare r.Engine.events,
      List.map
        (fun (plane, base, len) ->
          Array.map Int64.bits_of_float (Node.dump_array node ~plane ~base ~len))
        dumps )
  in
  let fault seed = Run.make ~fault:(F.make ~seed (Result.get_ok (F.parse "fu-fault:p=1"))) () in
  List.iter
    (fun (what, run) ->
      let k = observe (run ()) (fun run node -> Engine.run_kernel node ~run kn) in
      let g = observe (run ()) (fun run node -> Engine.run_general node ~run kn.Kernel.sem) in
      check_bool (Printf.sprintf "%s, %s: bit-identical to the reference" name what) true
        (k = g))
    (("clean", fun () -> Run.make ())
    :: List.map
         (fun seed -> (Printf.sprintf "fu-fault seed %d" seed, fun () -> fault seed))
         [ 1; 2; 3; 4; 5 ])

let ramp ~from n = Array.init n (fun i -> float_of_int (from + i) +. 0.25)

let alias_tests =
  [
    case "an in-place instruction whose sink overlaps its stream gathers it" (fun () ->
        (* x * 2 written back over x, element for element and half a
           window behind: a stream read in place would see the
           instruction's own writes *)
        List.iter
          (fun (name, base, sink) ->
            let kn =
              singlet_over ~vlen:16 ~a:(Plane_at (0, base)) ~b:(Const 2.0) ~sinks:[ sink ]
                Opcode.Fmul
            in
            check_bool (name ^ ": not aliasable") true (alias_flags kn = [ false ]);
            let load node = Node.load_array node ~plane:0 ~base:0 (ramp ~from:1 40) in
            let node = Node.create params in
            load node;
            check_bool (name ^ ": gathered") true (snd (gathered_by_dispatch node kn) = [ true ]);
            agree_with_reference name kn ~load ~dumps:[ (0, 0, 40) ])
          [ ("over itself", 0, (0, 0)); ("half a window behind", 8, (0, 0));
            ("on its last word", 15, (0, 0)) ];
        (* a copy drained to two sinks, one of them over the source: the
           other sink must still see the values the instruction read *)
        List.iter
          (fun (name, sinks) ->
            let kn = singlet_over ~vlen:16 ~a:(Plane_at (0, 8)) ~sinks Opcode.Pass in
            check_bool (name ^ ": not aliasable") true (alias_flags kn = [ false ]);
            agree_with_reference name kn
              ~load:(fun node -> Node.load_array node ~plane:0 ~base:0 (ramp ~from:1 40))
              ~dumps:[ (0, 0, 40); (2, 0, 16) ])
          [ ("a copy over its source first", [ (0, 0); (2, 0) ]);
            ("a copy over its source last", [ (2, 0); (0, 0) ]) ];
        (* a sink on the same plane just past the window does not touch it *)
        let kn =
          singlet_over ~vlen:16 ~a:(Plane_at (0, 0)) ~b:(Const 2.0) ~sinks:[ (0, 16) ] Opcode.Fmul
        in
        check_bool "a sink just past the window: aliasable" true (alias_flags kn = [ true ]);
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 (ramp ~from:1 40);
        check_bool "read in place" true (snd (gathered_by_dispatch node kn) = [ false ]);
        agree_with_reference "just past the window" kn
          ~load:(fun node -> Node.load_array node ~plane:0 ~base:0 (ramp ~from:1 40))
          ~dumps:[ (0, 0, 40) ]);
    case "a window straddling a page boundary is gathered" (fun () ->
        let page = 4096 in
        let kn =
          singlet_over ~vlen:16 ~a:(Plane_at (0, page - 6)) ~b:(Plane_at (1, page - 1))
            ~sinks:[ (2, page - 8) ] Opcode.Fsub
        in
        check_bool "both aliasable at compile time" true (alias_flags kn = [ true; true ]);
        let load node =
          Node.load_array node ~plane:0 ~base:(page - 20) (ramp ~from:3 40);
          Node.load_array node ~plane:1 ~base:(page - 20) (ramp ~from:(-7) 40)
        in
        let node = Node.create params in
        load node;
        check_bool "both gathered at dispatch" true
          (snd (gathered_by_dispatch node kn) = [ true; true ]);
        (* one window inside a page, one across: each stream decides alone *)
        let mixed =
          singlet_over ~vlen:16 ~a:(Plane_at (0, page - 16)) ~b:(Plane_at (1, page - 15))
            ~sinks:[ (2, page - 8) ] Opcode.Fsub
        in
        let node = Node.create params in
        load node;
        check_bool "the window ending at the boundary aliases, the one across it gathers" true
          (snd (gathered_by_dispatch node mixed) = [ false; true ]);
        List.iter
          (fun (name, kn) ->
            agree_with_reference name kn ~load
              ~dumps:[ (0, page - 20, 40); (1, page - 20, 40); (2, page - 20, 40) ])
          [ ("across the boundary", kn); ("either side of it", mixed) ]);
    case "a stream from an untouched page reads zeros in place" (fun () ->
        let kn =
          singlet_over ~vlen:16 ~a:(Plane_at (0, 8192 + 3)) ~b:(Plane_at (1, 0))
            ~sinks:[ (2, 0) ] Opcode.Fadd
        in
        let load node = Node.load_array node ~plane:1 ~base:0 (ramp ~from:5 16) in
        let node = Node.create params in
        load node;
        check_bool "read in place, the untouched page too" true
          (snd (gathered_by_dispatch node kn) = [ false; false ]);
        check_int "the untouched page stays untouched" 0
          (Nsc_arch.Memory.touched_pages (Node.plane node 0));
        agree_with_reference "untouched page" kn ~load ~dumps:[ (0, 8192, 32); (2, 0, 16) ]);
    case "a stream read through a shift/delay offset is gathered" (fun () ->
        List.iter
          (fun mode ->
            let kn =
              singlet_over ~vlen:16 ~a:(Shifted (0, 4, mode)) ~b:(Const 1.5)
                ~sinks:[ (2, 0) ] Opcode.Fadd
            in
            let name = Shift_delay.show_mode mode in
            check_bool (name ^ ": not aliasable") true (alias_flags kn = [ false ]);
            let load node = Node.load_array node ~plane:0 ~base:0 (ramp ~from:1 32) in
            let node = Node.create params in
            load node;
            check_bool (name ^ ": gathered") true (snd (gathered_by_dispatch node kn) = [ true ]);
            agree_with_reference name kn ~load ~dumps:[ (0, 0, 32); (2, 0, 16) ])
          [ Shift_delay.Shift 2; Shift_delay.Delay 3 ]);
    case "a cache-channel stream is gathered" (fun () ->
        let kn =
          singlet_over ~vlen:8 ~a:(Cache_at 3) ~b:(Plane_at (1, 0)) ~sinks:[ (2, 0) ] Opcode.Fmul
        in
        check_bool "only the plane stream is aliasable" true (alias_flags kn = [ false; true ]);
        let load node =
          Node.stage_cache node ~cache:3 ~base:0 (ramp ~from:1 8);
          Node.load_array node ~plane:1 ~base:0 (ramp ~from:(-3) 8)
        in
        let node = Node.create params in
        load node;
        check_bool "the cache stream is gathered" true
          (snd (gathered_by_dispatch node kn) = [ true; false ]);
        agree_with_reference "cache stream" kn ~load ~dumps:[ (1, 0, 8); (2, 0, 8) ]);
    case "a fault on an elided pass of a stream read in place never reaches the page"
      (fun () ->
        (* the pass is elided onto the stream's slot, which is the plane
           page itself: the NaN must land in the unit's own buffer *)
        let kn = singlet_over ~vlen:40 ~a:(Plane_at (0, 0)) ~sinks:[ (2, 0) ] Opcode.Pass in
        let b = body_of kn in
        check_bool "the pass is elided onto the stream" true
          (b.Kernel.val_slot.(0) = b.Kernel.stream_base);
        let load node = Node.load_array node ~plane:0 ~base:0 (ramp ~from:1 40) in
        let node = Node.create params in
        load node;
        let module F = Nsc_fault.Fault in
        let run = Run.make ~fault:(F.make ~seed:9 (Result.get_ok (F.parse "fu-fault:p=1"))) () in
        let r, gathered = gathered_by_dispatch ~run node kn in
        check_bool "read in place" true (gathered = [ false ]);
        check_int "the fault traps" 1 (Interrupt.trapped_exceptions r.Engine.events);
        check_bool "the source page holds no NaN" true
          (Array.for_all
             (fun v -> not (Float.is_nan v))
             (Node.dump_array node ~plane:0 ~base:0 ~len:40));
        check_bool "the sink holds the one NaN" true
          (Array.fold_left (fun n v -> if Float.is_nan v then n + 1 else n) 0
             (Node.dump_array node ~plane:2 ~base:0 ~len:40)
          = 1);
        agree_with_reference "elided pass" kn ~load ~dumps:[ (0, 0, 40); (2, 0, 40) ];
        (* the Jacobi refresh: four passes elided onto one stream read in
           place, so a fault on one moves the others first *)
        let j = Nsc_apps.Jacobi.build kb (Nsc_apps.Grid.cube 5) ~tol:1e-4 ~max_iters:50 in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb j.Nsc_apps.Jacobi.program) in
        let refresh =
          Kernel.compile params (Option.get (Nsc_microcode.Codegen.semantic c ~index:3))
        in
        check_bool "the refresh reads its stream in place" true (alias_flags refresh = [ true ]);
        let prob = Nsc_apps.Poisson.manufactured 5 in
        let words = Nsc_apps.Grid.padded_words prob.Nsc_apps.Poisson.grid in
        agree_with_reference "jacobi refresh" refresh
          ~load:(fun node ->
            Nsc_apps.Jacobi.load node j prob;
            Node.load_array node ~plane:j.Nsc_apps.Jacobi.layout.Nsc_apps.Jacobi.unew ~base:0
              (Array.init words (fun i -> 0.5 +. float_of_int i)))
          ~dumps:(List.init 8 (fun plane -> (plane, 0, words))));
    case "a gathered dispatch after an aliased one of the same shape leaves the page alone"
      (fun () ->
        let page = 4096 in
        let inside =
          singlet_over ~vlen:16 ~a:(Plane_at (0, 0)) ~b:(Const 3.0) ~sinks:[ (2, 0) ] Opcode.Fmul
        in
        let across =
          singlet_over ~vlen:16 ~a:(Plane_at (0, page - 5)) ~b:(Const 3.0) ~sinks:[ (2, 64) ]
            Opcode.Fmul
        in
        let bi = body_of inside and ba = body_of across in
        check_bool "one body shape" true
          ((bi.Kernel.n_buffers, bi.Kernel.stream_base, bi.Kernel.blen)
          = (ba.Kernel.n_buffers, ba.Kernel.stream_base, ba.Kernel.blen));
        let load node =
          Node.load_array node ~plane:0 ~base:0 (ramp ~from:1 16);
          Node.load_array node ~plane:0 ~base:(page - 8) (ramp ~from:(-50) 16)
        in
        let node = Node.create params in
        load node;
        let before = Node.dump_array node ~plane:0 ~base:0 ~len:page in
        check_bool "the first reads in place" true
          (snd (gathered_by_dispatch node inside) = [ false ]);
        let m0 = Kernel.pool_miss_count () in
        let r = Engine.run_kernel node across in
        check_int "the second reuses the working set" 0 (Kernel.pool_miss_count () - m0);
        check_bool "the page under the first window is unchanged" true
          (Node.dump_array node ~plane:0 ~base:0 ~len:page = before);
        let reference = Node.create params in
        load reference;
        ignore (Engine.run_general reference inside.Kernel.sem);
        let g = Engine.run_general reference across.Kernel.sem in
        check_bool "last values" true (Engine.last_values r = Engine.last_values g);
        check_bool "planes 0 and 2" true
          (List.for_all
             (fun plane ->
               Node.dump_array node ~plane ~base:0 ~len:(2 * page)
               = Node.dump_array reference ~plane ~base:0 ~len:(2 * page))
             [ 0; 2 ]));
    case "an instruction that writes ahead of its own reads runs on the reference" (fun () ->
        (* x[w + e] = x[4 + e'] * 2, the operand reading element e' of
           its stream at element e = e' - off: the reference re-reads a
           word the instruction wrote at an earlier element, a fused body
           would read the old one, so the compile leaves the body out *)
        let module M = Nsc_metrics.Metrics in
        let fallbacks = Option.get (M.find_counter "kernel.fallbacks") in
        List.iter
          (fun (name, a, sink, ahead) ->
            let ctx = M.create () in
            M.enable ctx;
            let kn =
              M.with_ctx ctx (fun () ->
                  singlet_over ~vlen:16 ~a ~b:(Const 2.0) ~sinks:[ sink ] Opcode.Fmul)
            in
            check_bool (name ^ ": fused body") (not ahead) (Option.is_some kn.Kernel.body);
            check_int (name ^ ": fallbacks booked") (if ahead then 1 else 0)
              (M.value ctx fallbacks);
            agree_with_reference name kn
              ~load:(fun node -> Node.load_array node ~plane:0 ~base:0 (ramp ~from:1 40))
              ~dumps:[ (0, 0, 40) ])
          [ ("four words ahead", Plane_at (0, 4), (0, 8), true);
            ("one word ahead", Plane_at (0, 4), (0, 5), true);
            ("over its window", Plane_at (0, 4), (0, 4), false);
            ("a delay of 3, one word behind", Shifted (0, 4, Shift_delay.Delay 3), (0, 2), true);
            ("a delay of 3, on the word it reads", Shifted (0, 4, Shift_delay.Delay 3), (0, 1), false);
            ("a shift of 2, one word past it", Shifted (0, 4, Shift_delay.Shift 2), (0, 7), true);
            ("a shift of 2, on the word it reads", Shifted (0, 4, Shift_delay.Shift 2), (0, 6), false) ]);
    case "a unit reading a window another unit's sink wrote first runs on the reference" (fun () ->
        (* q = x * 2 drains over z, which m = z + 1 reads.  Drained
           first, q's sink lands before the reference computes m at
           all; drained after m's, it lands once m has read all of z *)
        let two_units ~q_first =
          let pl = Pipeline.with_vector_length (Pipeline.empty 1) 8 in
          let place pl x =
            Build.fail_on_error
              (Pipeline.place_als params pl ~kind:Als.Singlet ~pos:(Geometry.point x 4) ())
          in
          let q, pl = place pl 10 in
          let m, pl = place pl 40 in
          let wire pl ~src ~dst plane =
            snd
              (Pipeline.add_connection pl ~src ~dst
                 ~spec:(Dma_spec.make (Dma_spec.To_plane plane)) ())
          in
          let feed pl ~plane ~icon =
            wire pl ~src:(Connection.Direct_memory plane)
              ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
              plane
          and drain pl ~icon ~plane =
            wire pl ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
              ~dst:(Connection.Direct_memory plane) plane
          in
          let config pl icon op c =
            Pipeline.set_config pl ~id:icon ~slot:0
              (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant c) op)
          in
          let pl = config (feed pl ~plane:0 ~icon:q) q Opcode.Fmul 2.0 in
          let pl = config (feed pl ~plane:3 ~icon:m) m Opcode.Fadd 1.0 in
          let pl =
            if q_first then drain (drain pl ~icon:q ~plane:3) ~icon:m ~plane:4
            else drain (drain pl ~icon:m ~plane:4) ~icon:q ~plane:3
          in
          let sem, issues = Semantic.of_pipeline params pl in
          if issues <> [] then Alcotest.fail "the test instruction has issues";
          Kernel.compile params sem
        in
        List.iter
          (fun (name, q_first) ->
            let kn = two_units ~q_first in
            check_bool (name ^ ": fused body") (not q_first) (Option.is_some kn.Kernel.body);
            agree_with_reference name kn
              ~load:(fun node ->
                Node.load_array node ~plane:0 ~base:0 (ramp ~from:1 8);
                Node.load_array node ~plane:3 ~base:0 (ramp ~from:100 8))
              ~dumps:[ (3, 0, 8); (4, 0, 8) ])
          [ ("q drained first", true); ("m drained first", false) ]);
  ]

let suite = suite @ [ ("sim:alias", alias_tests) ]

(* appended: folded running extremes.  A delay-1 running Max or Min that
   no other unit reads and no write stream drains stores only each
   block's carry; whatever reads its elements (the trap rescan, a
   fault's latch, the trace) first stores them all.  Every case checks
   the fold against the element-by-element step and the reference
   evaluator, bit for bit. *)

(* Two singlets over [vlen] elements: unit [q] = x / y (x on plane 0,
   y on plane 1) drained to plane 2, and the running extreme [op] over
   z (plane 3), its own output one element back on [a] ([self_is_a]) or
   [b]; drained to plane 4 only when [drained], and read by a third
   unit, -m drained to plane 5, only when [read]. *)
let fold_pair ~vlen ~self_is_a ?(drained = false) ?(read = false) op =
  (* a drawn diagram has at least one element; vlen 0 is the same
     instruction's semantics cut to none *)
  let pl = Pipeline.with_vector_length (Pipeline.empty 1) (max vlen 1) in
  let place pl x =
    Build.fail_on_error
      (Pipeline.place_als params pl ~kind:Als.Singlet ~pos:(Geometry.point x 4) ())
  in
  let q, pl = place pl 10 in
  let m, pl = place pl 40 in
  let feed pl ~plane ~icon ~port =
    snd
      (Pipeline.add_connection pl ~src:(Connection.Direct_memory plane)
         ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, port) })
         ~spec:(Dma_spec.make (Dma_spec.To_plane plane)) ())
  in
  let drain pl ~icon ~plane =
    snd
      (Pipeline.add_connection pl
         ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
         ~dst:(Connection.Direct_memory plane)
         ~spec:(Dma_spec.make (Dma_spec.To_plane plane)) ())
  in
  let pl = feed pl ~plane:0 ~icon:q ~port:Resource.A in
  let pl = feed pl ~plane:1 ~icon:q ~port:Resource.B in
  let pl =
    Pipeline.set_config pl ~id:q ~slot:0
      (Fu_config.make ~a:Fu_config.From_switch ~b:Fu_config.From_switch Opcode.Fdiv)
  in
  let pl = drain pl ~icon:q ~plane:2 in
  let pl = feed pl ~plane:3 ~icon:m ~port:(if self_is_a then Resource.B else Resource.A) in
  let self = Fu_config.From_feedback 1 and other = Fu_config.From_switch in
  let a, b = if self_is_a then (self, other) else (other, self) in
  let pl = Pipeline.set_config pl ~id:m ~slot:0 (Fu_config.make ~a ~b op) in
  let pl = if drained then drain pl ~icon:m ~plane:4 else pl in
  let pl =
    if not read then pl
    else
      let r, pl = place pl 70 in
      let pl =
        Build.pad_to_pad pl ~from_icon:m ~from_pad:(Icon.Out_pad 0) ~to_icon:r
          ~to_pad:(Icon.In_pad (0, Resource.A))
      in
      let pl =
        Pipeline.set_config pl ~id:r ~slot:0
          (Fu_config.make ~a:Fu_config.From_switch ~b:Fu_config.Unbound Opcode.Fneg)
      in
      drain pl ~icon:r ~plane:5
  in
  let sem, issues = Semantic.of_pipeline params pl in
  if issues <> [] then Alcotest.fail "the fold test instruction has issues";
  { sem with Semantic.vector_length = vlen }

let popcount x =
  let rec go n x = if x = 0 then n else go (n + (x land 1)) (x lsr 1) in
  go 0 x

(* The one folded unit of a body. *)
let folded_unit (b : Kernel.body) =
  let rec find k = if (b.Kernel.fold lsr k) land 1 = 1 then b.Kernel.units.(k) else find (k + 1) in
  find 0

(* The values a fold must get right: finite values of both signs with
   signed zeros among them, or one of NaN payloads, infinities or
   nothing but -0.0 (a Min's carry goes to -0.0), at element [at]. *)
let fold_data ~seed ~n kind =
  let st = Random.State.make [| seed; n |] in
  let finite () =
    match Random.State.int st 8 with
    | 0 -> 0.0
    | 1 -> -0.0
    | _ -> Random.State.float st 2.0 -. 1.0
  in
  let xs = Array.init n (fun _ -> finite ()) in
  (* near the end: every element after a NaN or an infinity traps, and a
     dispatch records at most 1,000 events *)
  let at = if n = 0 then 0 else n - 1 - Random.State.int st (min n 8) in
  (match kind with
  | `Finite -> ()
  | `Nan -> if n > 0 then xs.(at) <- Int64.float_of_bits 0xFFF4_0000_0000_0ABCL
  | `Inf ->
      if n > 0 then xs.(at) <- Float.infinity;
      if at > 0 then xs.(at - 1) <- Float.neg_infinity
  | `Neg_zero -> Array.fill xs 0 n (-0.0));
  xs

let fold_kinds = [ (`Finite, "finite"); (`Nan, "a NaN payload"); (`Inf, "infinities"); (`Neg_zero, "-0.0 only") ]

let fold_tests =
  let bits = Int64.bits_of_float in
  let vlens = [ 0; 1; 7; 8; 255; 256; 729; 2049 ] in
  let extremes = [ (Opcode.Max, true); (Opcode.Max, false); (Opcode.Min, true); (Opcode.Min, false) ] in
  let name op self_is_a =
    Printf.sprintf "%s, self as %s" (Opcode.mnemonic op) (if self_is_a then "a" else "b")
  in
  [
    case "the fold step stores the serial step's carry, and every element when one is not finite"
      (fun () ->
        List.iter
          (fun (op, self_is_a) ->
            let fold = Option.get (Native.fold_code op ~self_is_a)
            and serial = Native.feedback_code op ~self_is_a in
            List.iter
              (fun n ->
                List.iter
                  (fun (kind, what) ->
                    List.iter
                      (fun carry ->
                        let xs = fold_data ~seed:n ~n kind in
                        (* element 0 of the output sits at index 1: index 0
                           holds the carry *)
                        let vec a =
                          let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (n + 1) in
                          Array.iteri (fun i x -> Bigarray.Array1.set v i x) a;
                          v
                        in
                        let src = vec xs in
                        List.iter
                          (fun (variant, step) ->
                            let run code =
                              let d = vec (Array.make (n + 1) 7.0) in
                              Bigarray.Array1.set d 0 carry;
                              let bad =
                                if self_is_a then step code d 1 d 0 src 0 n
                                else step code d 1 src 0 d 0 n
                              in
                              (bad, d)
                            in
                            let fb, fd = run fold and sb, sd = run serial in
                            let label =
                              Printf.sprintf "%s, %s, n=%d, %s, carry %h" (name op self_is_a)
                                variant n what carry
                            in
                            check_bool (label ^ ": non-finite flag") sb fb;
                            if n > 0 then
                              check_bool (label ^ ": carry") true
                                (bits (Bigarray.Array1.get fd n) = bits (Bigarray.Array1.get sd n));
                            if sb then
                              for i = 1 to n do
                                if bits (Bigarray.Array1.get fd i) <> bits (Bigarray.Array1.get sd i)
                                then Alcotest.failf "%s: element %d differs" label (i - 1)
                              done)
                          [ ("dispatched", Native.step); ("baseline", Native.baseline_step) ])
                      [ 0.0; -0.0; 0.5; -0.75 ])
                  fold_kinds)
              vlens)
          extremes);
    case "the n=9 sweep folds its residual, the refresh nothing, a drained extreme nothing"
      (fun () ->
        let prob = Nsc_apps.Poisson.manufactured 9 in
        let b = Nsc_apps.Jacobi.build kb prob.Nsc_apps.Poisson.grid ~tol:0.0 ~max_iters:1 in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb b.Nsc_apps.Jacobi.program) in
        let fold index =
          let sem = Option.get (Nsc_microcode.Codegen.semantic c ~index) in
          (Option.get (Kernel.compile params sem).Kernel.body).Kernel.fold
        in
        check_int "the sweep folds one unit" 1 (popcount (fold 2));
        check_int "the refresh folds none" 0 (fold 3);
        List.iter
          (fun (op, self_is_a) ->
            let body drained =
              Option.get
                (Kernel.compile params (fold_pair ~vlen:16 ~self_is_a ~drained op)).Kernel.body
            in
            check_int (name op self_is_a ^ ": folded when nothing reads it") 1
              (popcount (body false).Kernel.fold);
            check_int (name op self_is_a ^ ": drained to a plane, not folded") 0
              (body true).Kernel.fold;
            let read = fold_pair ~vlen:729 ~self_is_a ~read:true op in
            let kn = Kernel.compile params read in
            check_int (name op self_is_a ^ ": read by another unit, not folded") 0
              (Option.get kn.Kernel.body).Kernel.fold;
            agree_with_reference (name op self_is_a ^ ", read by another unit") kn
              ~load:(fun node ->
                Node.load_array node ~plane:3 ~base:0 (fold_data ~seed:3 ~n:729 `Finite))
              ~dumps:[ (5, 0, 729) ];
            check_bool (name op self_is_a ^ ": the extreme is the folded unit") true
              ((folded_unit (body false)).Kernel.op = op))
          extremes);
    case "a folded extreme matches the serial step and the reference, clean, faulted and traced"
      (fun () ->
        let module F = Nsc_fault.Fault in
        let fault seed = Run.make ~fault:(F.make ~seed (Result.get_ok (F.parse "fu-fault:p=1"))) () in
        List.iter
          (fun (op, self_is_a) ->
            List.iter
              (fun vlen ->
                let sem = fold_pair ~vlen ~self_is_a op in
                let kn = Kernel.compile params sem in
                let body = Option.get kn.Kernel.body in
                check_int "folded" 1 (popcount body.Kernel.fold);
                let victims = ref [] in
                List.iter
                  (fun ((kind, what), q_traps) ->
                    let x = fold_data ~seed:1 ~n:vlen `Finite in
                    (* with [q_traps], y holds a zero where x does, so q
                       traps on 0/0 while the extreme's own operand may
                       stay finite *)
                    let y = Array.map (fun v -> if v = 0.0 && q_traps then 0.0 else 0.5) x in
                    let z = fold_data ~seed:2 ~n:vlen kind in
                    let load node =
                      Node.load_array node ~plane:0 ~base:0 x;
                      Node.load_array node ~plane:1 ~base:0 y;
                      Node.load_array node ~plane:3 ~base:0 z
                    in
                    let observe ~record_trace run exec =
                      let node = Node.create params in
                      load node;
                      let r : Engine.result = exec ~record_trace run node in
                      let trace =
                        match r.Engine.trace with
                        | None -> []
                        | Some tr ->
                            List.concat_map
                              (fun (u : Semantic.unit_program) ->
                                List.init vlen (fun e ->
                                    Option.map bits
                                      (Engine.trace_value tr ~fu:u.Semantic.fu ~element:e)))
                              sem.Semantic.units
                      in
                      ( List.map (fun (fu, v) -> (fu, bits v)) (Engine.last_values r),
                        r.Engine.cycles,
                        (* the two evaluators record traps of different
                           units in different orders *)
                        List.sort compare r.Engine.events,
                        Array.map bits (Node.dump_array node ~plane:2 ~base:0 ~len:(max vlen 1)),
                        trace )
                    in
                    (* every set of this shape comes back full of NaN, so an
                       element read before the fold is undone traps *)
                    let kernel ~record_trace run node =
                      let set = Kernel.acquire_slots body in
                      for i = body.Kernel.stream_base to body.Kernel.n_buffers - 1 do
                        Bigarray.Array1.fill set.Kernel.own.(i) nan
                      done;
                      Kernel.release_slots body set;
                      Engine.run_kernel node ~record_trace ~run kn
                    and reference ~record_trace run node =
                      Engine.run_general node ~record_trace ~run sem
                    in
                    List.iter
                      (fun record_trace ->
                        List.iter
                          (fun (how, run) ->
                            let label =
                              Printf.sprintf "%s, vlen %d, z %s%s, %s%s" (name op self_is_a) vlen
                                what
                                (if q_traps then ", q traps" else "")
                                how
                                (if record_trace then ", traced" else "")
                            in
                            let ((last, _, events, _, _) as k) =
                              observe ~record_trace (run ()) kernel
                            in
                            let g = observe ~record_trace (run ()) reference in
                            check_bool (label ^ ": bit-identical to the reference") true (k = g);
                            List.iter
                              (function
                                | Interrupt.Exception_trapped
                                    { kind = Interrupt.Invalid_operand; unit_; _ }
                                  when how <> "clean" ->
                                    victims := unit_ :: !victims
                                | _ -> ())
                              events;
                            (* the element-by-element step over z, from a
                               carry of +0.0 *)
                            if vlen > 0 && how = "clean" then begin
                              let vec = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout in
                              let d = vec (vlen + 1) and src = vec (max vlen 1) in
                              Bigarray.Array1.set d 0 0.0;
                              Array.iteri (Bigarray.Array1.set src) z;
                              let code = Native.feedback_code op ~self_is_a in
                              ignore
                                (if self_is_a then Native.step code d 1 d 0 src 0 vlen
                                 else Native.step code d 1 src 0 d 0 vlen);
                              check_bool (label ^ ": the serial step's carry") true
                                (List.assoc (folded_unit body).Kernel.fu last
                                = bits (Bigarray.Array1.get d vlen))
                            end)
                          (("clean", fun () -> Run.make ())
                          :: List.map
                               (fun seed -> (Printf.sprintf "fu-fault seed %d" seed, fun () -> fault seed))
                               [ 1; 2; 3; 4; 5; 6 ]))
                      [ false; true ])
                  (List.concat_map (fun k -> [ (k, false); (k, true) ]) fold_kinds);
                if vlen > 0 then
                  List.iter
                    (fun fu ->
                      check_bool
                        (Printf.sprintf "%s, vlen %d: a fault lands on %s" (name op self_is_a) vlen
                           (Resource.fu_to_string fu))
                        true (List.mem fu !victims))
                    (Array.to_list body.Kernel.fus))
              vlens)
          extremes);
  ]

let suite = suite @ [ ("sim:fold", fold_tests) ]
