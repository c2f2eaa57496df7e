(* The visual debugger: traced frames, annotated diagrams, anomaly scans. *)

open Nsc_arch
open Nsc_sim
open Util

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let traced_vecadd () =
  let prog, _ = vecadd_program ~n:8 () in
  let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
  let node = Node.create params in
  Node.load_array node ~plane:0 ~base:0 (Array.init 8 (fun i -> float_of_int i));
  Node.load_array node ~plane:1 ~base:0 (Array.init 8 (fun i -> float_of_int (10 * i)));
  (prog, Result.get_ok (Nsc_debug.Stepper.run node c prog))

let tests =
  [
    case "a run yields one frame per executed instruction" (fun () ->
        let _, run = traced_vecadd () in
        check_int "frames" 1 (List.length run.Nsc_debug.Stepper.frames));
    case "frame values agree with the computation" (fun () ->
        let _, run = traced_vecadd () in
        let f = Option.get (Nsc_debug.Stepper.frame run ~ordinal:0) in
        (match Nsc_debug.Stepper.values_at f ~element:3 with
        | [ (_, v) ] -> check_float "3 + 30" 33.0 v
        | _ -> Alcotest.fail "expected one unit value"));
    case "annotated diagrams show the flowing values (paper section 6)" (fun () ->
        let _, run = traced_vecadd () in
        let f = Option.get (Nsc_debug.Stepper.frame run ~ordinal:0) in
        let s = Nsc_debug.Stepper.render_frame params run f ~element:3 in
        check_bool "value shown" true (contains s "=33");
        check_bool "header" true (contains s "element 3 of 8"));
    case "the frame limit caps recording" (fun () ->
        let prog, _ = vecadd_program ~n:4 () in
        let prog =
          Nsc_diagram.Program.set_control prog
            [ Nsc_diagram.Program.Repeat { count = 10; body = [ Nsc_diagram.Program.Exec 1 ] } ]
        in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let node = Node.create params in
        let run = Result.get_ok (Nsc_debug.Stepper.run node ~limit:3 c prog) in
        check_int "capped" 3 (List.length run.Nsc_debug.Stepper.frames));
    case "anomaly scan finds non-finite values" (fun () ->
        (* divide a stream by zero: every element becomes infinite *)
        let open Nsc_diagram in
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
        let prog = { (Program.empty "div0") with Program.pipelines = [ pl ] } in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb prog) in
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 [| 1.; 2.; 3.; 4. |];
        let run = Result.get_ok (Nsc_debug.Stepper.run node c prog) in
        let f = List.hd run.Nsc_debug.Stepper.frames in
        check_int "four anomalies" 4 (List.length (Nsc_debug.Stepper.anomalies f)));
    case "a timing bug is visible in the annotated values" (fun () ->
        (* the misaligned doublet from the engine suite, inspected through
           the debugger: the annotated value differs from the aligned sum *)
        let open Nsc_diagram in
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
        let pl = Pipeline.set_config pl ~id:icon ~slot:0 (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant 1.0) Opcode.Fmul) in
        let pl = Pipeline.set_config pl ~id:icon ~slot:1 (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fadd) in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon; pad = Icon.Out_pad 1 })
            ~dst:(Connection.Direct_memory 2)
            ~spec:(Dma_spec.make (Dma_spec.To_plane 2)) ()
        in
        let node = Node.create params in
        Node.load_array node ~plane:0 ~base:0 (Array.make 16 1.0);
        Node.load_array node ~plane:1 ~base:0 (Array.init 16 (fun i -> float_of_int i));
        let sem, _ = Semantic.of_pipeline params pl in
        let r = Engine.run node ~record_trace:true sem in
        let tr = Option.get r.Engine.trace in
        let v =
          Option.get
            (Engine.trace_value tr
               ~fu:{ Resource.als = params.Params.n_singlets; slot = 1 }
               ~element:0)
        in
        (* aligned result would be 1.0 + 0.0 = 1.0; the skewed pipeline
           pairs y[lat_fmul] instead *)
        check_float "skewed value" (1.0 +. float_of_int params.Params.latencies.Params.lat_fmul) v);
    case "the reference engine annotates the same frames as the kernel" (fun () ->
        let b =
          Nsc_apps.Jacobi.build kb (Nsc_apps.Grid.cube 3) ~tol:1e-4 ~max_iters:20
        in
        let prob = Nsc_apps.Poisson.manufactured 3 in
        let c = Result.get_ok (Nsc_microcode.Codegen.compile kb b.Nsc_apps.Jacobi.program) in
        let frames engine =
          let node = Node.create params in
          Nsc_apps.Jacobi.load node b prob;
          let run =
            Result.get_ok
              (Nsc_debug.Stepper.run node ~limit:8 ~engine c b.Nsc_apps.Jacobi.program)
          in
          List.map
            (fun (f : Nsc_debug.Stepper.frame) ->
              let r = f.Nsc_debug.Stepper.result in
              ( f.Nsc_debug.Stepper.instruction,
                r.Engine.cycles,
                List.sort compare r.Engine.last_values,
                List.init r.Engine.elements (fun element ->
                    List.sort compare (Nsc_debug.Stepper.values_at f ~element)) ))
            run.Nsc_debug.Stepper.frames
        in
        let k = frames `Kernel in
        check_bool "setup and sweeps were framed" true (List.length k >= 3);
        check_bool "identical annotations" true (compare k (frames `Reference) = 0));
  ]

let suite = [ ("debug:stepper", tests) ]
