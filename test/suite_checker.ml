(* The checker: every rule must fire on a violation and stay silent on the
   valid programs. *)

open Nsc_arch
open Nsc_diagram
open Nsc_checker
open Util

let has_rule rule ds = List.exists (fun d -> Diagnostic.equal_rule d.Diagnostic.rule rule) ds

let errors_of_rule rule ds =
  List.filter
    (fun d -> Diagnostic.is_error d && Diagnostic.equal_rule d.Diagnostic.rule rule)
    ds

let check_pl ?(level = `Complete) pl = Checker.check_pipeline kb ~level pl

let rule_tests =
  [
    case "the valid vecadd program checks clean" (fun () ->
        let prog, _ = vecadd_program () in
        check_int "no findings" 0 (List.length (Checker.check_program kb prog)));
    case "capability: integer op on a singlet is an error" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:(Fu_config.From_constant 1.0) ~b:(Fu_config.From_constant 2.0)
               Opcode.Iadd)
        in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Capability (check_pl pl) <> []));
    case "capability: max on a doublet tail is legal" (fun () ->
        let pl, icon = pipeline_with Als.Doublet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:1
            (Fu_config.make ~a:(Fu_config.From_constant 1.0) ~b:(Fu_config.From_feedback 1)
               Opcode.Max)
        in
        check_bool "silent" true (errors_of_rule Diagnostic.Capability (check_pl pl) = []));
    case "plane write exclusivity: a second writer is an error" (fun () ->
        let pl, i0 = pipeline_with Als.Singlet in
        let i1, pl =
          Build.fail_on_error
            (Pipeline.place_als params pl ~kind:Als.Singlet ~pos:(Geometry.point 40 4) ())
        in
        let wire pl icon off =
          Build.pad_to_mem pl ~icon ~pad:(Icon.Out_pad 0) ~plane:5 ~var:"" ~offset:off ()
        in
        ignore wire;
        let out pl icon off =
          let _, pl =
            Pipeline.add_connection pl
              ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
              ~dst:(Connection.Direct_memory 5)
              ~spec:(Dma_spec.make ~offset:off (Dma_spec.To_plane 5)) ()
          in
          pl
        in
        let pl = out pl i0 0 in
        let pl = out pl i1 1000 in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Plane_write_exclusive (check_pl ~level:`Interactive pl)
          <> []));
    case "DMA engines: a fifth stream on one plane is an error" (fun () ->
        let pl, icon = pipeline_with Als.Triplet in
        let i1, pl =
          Build.fail_on_error
            (Pipeline.place_als params pl ~kind:Als.Triplet ~pos:(Geometry.point 40 4) ())
        in
        let wire pl icon pad off =
          let _, pl =
            Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
              ~dst:(Connection.Pad { icon; pad })
              ~spec:(Dma_spec.make ~offset:off (Dma_spec.To_plane 0)) ()
          in
          pl
        in
        let pl = wire pl icon (Icon.In_pad (0, Resource.A)) 0 in
        let pl = wire pl icon (Icon.In_pad (0, Resource.B)) 1 in
        let pl = wire pl icon (Icon.In_pad (1, Resource.B)) 2 in
        let pl = wire pl icon (Icon.In_pad (2, Resource.B)) 3 in
        let pl = wire pl i1 (Icon.In_pad (0, Resource.A)) 4 in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Dma_range (check_pl ~level:`Interactive pl) <> []));
    case "read contention: three streams on a dual-ported plane warn" (fun () ->
        let pl, icon = pipeline_with Als.Triplet in
        let wire pl pad off =
          let _, pl =
            Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
              ~dst:(Connection.Pad { icon; pad })
              ~spec:(Dma_spec.make ~offset:off (Dma_spec.To_plane 0)) ()
          in
          pl
        in
        let pl = wire pl (Icon.In_pad (0, Resource.A)) 0 in
        let pl = wire pl (Icon.In_pad (0, Resource.B)) 1 in
        let pl = wire pl (Icon.In_pad (1, Resource.B)) 2 in
        let ds = check_pl ~level:`Interactive pl in
        check_bool "warns" true (has_rule Diagnostic.Plane_read_contention ds);
        check_bool "not an error" true
          (errors_of_rule Diagnostic.Plane_read_contention ds = []));
    case "plane hazard: overlapping read+write is an error" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make ~offset:0 (Dma_spec.To_plane 0)) ()
        in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
            ~dst:(Connection.Direct_memory 0)
            ~spec:(Dma_spec.make ~offset:0 (Dma_spec.To_plane 0)) ()
        in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Plane_hazard (check_pl ~level:`Interactive pl) <> []));
    case "plane hazard: disjoint read+write only warns" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl = Pipeline.with_vector_length pl 8 in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make ~offset:0 (Dma_spec.To_plane 0)) ()
        in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
            ~dst:(Connection.Direct_memory 0)
            ~spec:(Dma_spec.make ~offset:1000 (Dma_spec.To_plane 0)) ()
        in
        let ds = check_pl ~level:`Interactive pl in
        check_bool "warns" true (has_rule Diagnostic.Plane_hazard ds);
        check_bool "no error" true (errors_of_rule Diagnostic.Plane_hazard ds = []));
    case "binding: unbound operand is an error only at complete level" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl = Pipeline.set_config pl ~id:icon ~slot:0 (Fu_config.make Opcode.Fadd) in
        check_bool "interactive tolerant" true
          (errors_of_rule Diagnostic.Binding (check_pl ~level:`Interactive pl) = []);
        check_bool "complete strict" true
          (errors_of_rule Diagnostic.Binding (check_pl ~level:`Complete pl) <> []));
    case "binding: a wire into a constant-bound port is an error" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:(Fu_config.From_constant 1.0) ~b:(Fu_config.From_constant 2.0)
               Opcode.Fadd)
        in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
        in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Binding (check_pl ~level:`Interactive pl) <> []));
    case "binding: chain on a headless port is an error" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:Fu_config.From_chain ~b:(Fu_config.From_constant 0.0)
               Opcode.Fadd)
        in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Binding (check_pl ~level:`Interactive pl) <> []));
    case "register file: feedback deeper than the queue is an error" (fun () ->
        let pl, icon = pipeline_with Als.Doublet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:1
            (Fu_config.make ~a:(Fu_config.From_constant 1.0)
               ~b:(Fu_config.From_feedback (params.Params.rf_max_delay + 1)) Opcode.Max)
        in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Register_file (check_pl ~level:`Interactive pl) <> []));
    case "stream length: a count disagreeing with vlen is an error" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl = Pipeline.with_vector_length pl 8 in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make ~count:4 (Dma_spec.To_plane 0)) ()
        in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Stream_length (check_pl ~level:`Interactive pl) <> []));
    case "unused: an unconsumed result warns" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:(Fu_config.From_constant 1.0) Opcode.Fabs)
        in
        check_bool "warns" true (has_rule Diagnostic.Unused (check_pl ~level:`Interactive pl)));
    case "switch cycle: mutual feeding through the switch is an error" (fun () ->
        let pl, i0 = pipeline_with Als.Singlet in
        let i1, pl =
          Build.fail_on_error
            (Pipeline.place_als params pl ~kind:Als.Singlet ~pos:(Geometry.point 40 4) ())
        in
        let pl = Build.pad_to_pad pl ~from_icon:i0 ~from_pad:(Icon.Out_pad 0) ~to_icon:i1 ~to_pad:(Icon.In_pad (0, Resource.A)) in
        let pl = Build.pad_to_pad pl ~from_icon:i1 ~from_pad:(Icon.Out_pad 0) ~to_icon:i0 ~to_pad:(Icon.In_pad (0, Resource.A)) in
        let pl = Pipeline.set_config pl ~id:i0 ~slot:0 (Fu_config.make ~a:Fu_config.From_switch Opcode.Fabs) in
        let pl = Pipeline.set_config pl ~id:i1 ~slot:0 (Fu_config.make ~a:Fu_config.From_switch Opcode.Fabs) in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Switch_cycle (check_pl ~level:`Complete pl) <> []));
    case "timing: misaligned operands are an error at complete level" (fun () ->
        let pl, icon = pipeline_with Als.Doublet in
        (* slot1 mixes a chained input (late) with a fresh memory stream *)
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make ~offset:0 (Dma_spec.To_plane 0)) ()
        in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 1)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (1, Resource.B) })
            ~spec:(Dma_spec.make ~offset:0 (Dma_spec.To_plane 1)) ()
        in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant 2.0) Opcode.Fmul)
        in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:1
            (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fadd)
        in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon; pad = Icon.Out_pad 1 })
            ~dst:(Connection.Direct_memory 2)
            ~spec:(Dma_spec.make (Dma_spec.To_plane 2)) ()
        in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Timing (check_pl ~level:`Complete pl) <> []);
        (* and the balancer fixes it *)
        let fixed, rounds = Balance.balance_pipeline kb pl in
        check_bool "rounds > 0" true (rounds > 0);
        check_bool "clean" true
          (errors_of_rule Diagnostic.Timing (check_pl ~level:`Complete fixed) = []));
    case "control: while watching an unengaged unit is an error" (fun () ->
        let prog, _ = vecadd_program () in
        let prog =
          Program.set_control prog
            [
              Program.While
                {
                  condition =
                    {
                      Interrupt.unit_watched = { Resource.als = 15; slot = 2 };
                      relation = Interrupt.Rgt;
                      threshold = 0.0;
                    };
                  max_iterations = 5;
                  body = [ Program.Exec 1 ];
                };
            ]
        in
        check_bool "fires" true
          (Checker.check_program kb prog
          |> List.exists (fun d ->
                 Diagnostic.is_error d
                 && Diagnostic.equal_rule d.Diagnostic.rule Diagnostic.Control)));
    case "control: an unbounded while warns" (fun () ->
        let prog, icon = vecadd_program () in
        ignore icon;
        let prog =
          Program.set_control prog
            [
              Program.While
                {
                  condition =
                    {
                      Interrupt.unit_watched = { Resource.als = 0; slot = 0 };
                      relation = Interrupt.Rgt;
                      threshold = 0.0;
                    };
                  max_iterations = 0;
                  body = [ Program.Exec 1 ];
                };
            ]
        in
        check_bool "warns" true (has_rule Diagnostic.Control (Checker.check_program kb prog)));
    case "variable bounds: a stream past the array end is an error" (fun () ->
        let prog, icon = vecadd_program ~n:16 () in
        let pl = Option.get (Program.find_pipeline prog 1) in
        (* re-point x's stream beyond the declared 16 elements *)
        let pl = Pipeline.remove_connection pl 0 in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make ~variable:"x" ~offset:8 (Dma_spec.To_plane 0)) ()
        in
        let prog = Program.update_pipeline prog pl in
        check_bool "fires" true
          (Checker.check_program kb prog
          |> List.exists (fun d ->
                 Diagnostic.is_error d
                 && Diagnostic.equal_rule d.Diagnostic.rule Diagnostic.Dma_range)));
  ]

let menu_tests =
  [
    case "legal_sources excludes an already-driven arrangement" (fun () ->
        let prog, icon = vecadd_program () in
        ignore icon;
        let pl = Option.get (Program.find_pipeline prog 1) in
        let snk = Resource.Snk_fu ({ Resource.als = 0; slot = 0 }, Resource.A) in
        (* that sink is already wired: no sources remain legal for it *)
        check_int "none" 0
          (List.length
             (Checker.legal_sources kb ~lookup:(Program.variable_base prog) pl snk)));
    case "writable_planes shrinks as writers are placed" (fun () ->
        let prog, _ = vecadd_program () in
        let pl = Option.get (Program.find_pipeline prog 1) in
        let planes = Checker.writable_planes kb ~lookup:(Program.variable_base prog) pl in
        check_int "one taken" (params.Params.n_memory_planes - 1) (List.length planes);
        check_bool "plane 2 gone" true (not (List.mem 2 planes)));
    case "legal_opcodes matches unit capabilities" (fun () ->
        let d = params.Params.n_singlets in
        let ops_head = Checker.legal_opcodes kb { Resource.als = d; slot = 0 } in
        let ops_tail = Checker.legal_opcodes kb { Resource.als = d; slot = 1 } in
        check_bool "head has iadd" true (List.exists (Opcode.equal Opcode.Iadd) ops_head);
        check_bool "tail has max" true (List.exists (Opcode.equal Opcode.Max) ops_tail);
        check_bool "tail lacks iadd" false (List.exists (Opcode.equal Opcode.Iadd) ops_tail));
  ]

let timing_tests =
  [
    case "a lone memory-fed unit is ready after its latency" (fun () ->
        let prog, _ = vecadd_program () in
        let sem, _ = semantic_of_program prog 1 in
        let a = Timing.analyse params sem in
        check_int "depth" params.Params.latencies.Params.lat_fadd a.Timing.depth);
    case "chained units accumulate latency" (fun () ->
        let pl, icon = pipeline_with Als.Doublet in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
            ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
        in
        let pl = Pipeline.set_config pl ~id:icon ~slot:0 (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant 2.0) Opcode.Fmul) in
        let pl = Pipeline.set_config pl ~id:icon ~slot:1 (Fu_config.make ~a:Fu_config.From_chain Opcode.Fabs) in
        let sem, _ = Semantic.of_pipeline params pl in
        let a = Timing.analyse params sem in
        let lat = params.Params.latencies in
        check_int "depth" (lat.Params.lat_fmul + lat.Params.lat_fadd) a.Timing.depth);
    case "estimated cycles: fill plus one element per cycle" (fun () ->
        let prog, _ = vecadd_program ~n:100 () in
        let sem, _ = semantic_of_program prog 1 in
        let a = Timing.analyse params sem in
        check_int "cycles"
          (params.Params.latencies.Params.lat_fadd + 99)
          (Timing.estimated_cycles params sem a ~vlen:100));
    case "estimated cycles double under read contention" (fun () ->
        let pl, icon = pipeline_with Als.Triplet in
        let wire pl pad off =
          let _, pl =
            Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
              ~dst:(Connection.Pad { icon; pad })
              ~spec:(Dma_spec.make ~offset:off (Dma_spec.To_plane 0)) ()
          in
          pl
        in
        let pl = wire pl (Icon.In_pad (0, Resource.A)) 0 in
        let pl = wire pl (Icon.In_pad (0, Resource.B)) 1 in
        let pl = wire pl (Icon.In_pad (1, Resource.B)) 2 in
        let pl = Pipeline.set_config pl ~id:icon ~slot:0 (Fu_config.make ~a:Fu_config.From_switch ~b:Fu_config.From_switch Opcode.Fadd) in
        let pl = Pipeline.set_config pl ~id:icon ~slot:1 (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fadd) in
        let pl, _ = Balance.balance_pipeline kb pl in
        let sem, _ = Semantic.of_pipeline params pl in
        let a = Timing.analyse params sem in
        let c = Timing.estimated_cycles params sem a ~vlen:101 in
        check_int "II = 2" (a.Timing.depth + 200) c);
    case "balancing corrections name the early port" (fun () ->
        let pl, icon = pipeline_with Als.Doublet in
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
        let pl = Pipeline.set_config pl ~id:icon ~slot:0 (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant 1.0) Opcode.Fadd) in
        let pl = Pipeline.set_config pl ~id:icon ~slot:1 (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fadd) in
        let sem, _ = Semantic.of_pipeline params pl in
        let a = Timing.analyse params sem in
        (match Timing.balancing_corrections a with
        | [ (fu, Resource.B, d) ] ->
            check_int "slot 1" 1 fu.Resource.slot;
            check_int "delay = fadd latency" params.Params.latencies.Params.lat_fadd d
        | _ -> Alcotest.fail "expected exactly one correction on port B"));
  ]

let suite =
  [
    ("checker:rules", rule_tests);
    ("checker:menus", menu_tests);
    ("checker:timing", timing_tests);
  ]

(* appended: shift/delay legality *)
let shift_delay_tests =
  [
    case "a forward shift fed by a unit is an error" (fun () ->
        let pl, icon = pipeline_with Als.Singlet in
        let sd_icon, pl =
          Build.fail_on_error
            (Pipeline.place_shift_delay params pl ~mode:(Nsc_arch.Shift_delay.Shift 2)
               ~pos:(Geometry.point 40 4))
        in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:(Fu_config.From_constant 1.0) Opcode.Fabs)
        in
        let _, pl =
          Pipeline.add_connection pl
            ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
            ~dst:(Connection.Pad { icon = sd_icon; pad = Icon.Flow_in })
            ()
        in
        check_bool "fires" true
          (errors_of_rule Diagnostic.Binding (check_pl ~level:`Interactive pl) <> []));
    case "a forward shift fed by memory is legal" (fun () ->
        let pl = Pipeline.empty 1 in
        let sd_icon, pl =
          Build.fail_on_error
            (Pipeline.place_shift_delay params pl ~mode:(Nsc_arch.Shift_delay.Shift 2)
               ~pos:(Geometry.point 40 4))
        in
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon = sd_icon; pad = Icon.Flow_in })
            ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()
        in
        check_bool "silent" true
          (errors_of_rule Diagnostic.Binding (check_pl ~level:`Interactive pl) = []));
    case "an unfed shift/delay unit warns" (fun () ->
        let pl = Pipeline.empty 1 in
        let _, pl =
          Build.fail_on_error
            (Pipeline.place_shift_delay params pl ~mode:(Nsc_arch.Shift_delay.Delay 3)
               ~pos:(Geometry.point 40 4))
        in
        check_bool "warns" true (has_rule Diagnostic.Unused (check_pl ~level:`Interactive pl)));
  ]

let suite = suite @ [ ("checker:shift-delay", shift_delay_tests) ]

(* The exact text of every message built only when its check fails: the
   plane-pressure findings, the DMA and extent range problems and the
   register-file limits. *)
let message_text_tests =
  let reads_into pl pads =
    List.fold_left
      (fun (pl, off) (icon, pad) ->
        let _, pl =
          Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
            ~dst:(Connection.Pad { icon; pad })
            ~spec:(Dma_spec.make ~offset:off (Dma_spec.To_plane 0)) ()
        in
        (pl, off + 1))
      (pl, 0) pads
    |> fst
  in
  let rule_texts rule ds =
    List.filter_map
      (fun d ->
        if Diagnostic.equal_rule d.Diagnostic.rule rule then Some (Diagnostic.to_string d)
        else None)
      ds
  in
  let check_texts = Alcotest.(check (list string)) in
  let transfer channel direction ~base ~stride ~count =
    { Dma.channel; direction; base; stride; count }
  in
  [
    case "plane pressure: write-exclusive, DMA engines and read ports" (fun () ->
        let pl, i0 = pipeline_with Als.Singlet in
        let i1, pl =
          Build.fail_on_error
            (Pipeline.place_als params pl ~kind:Als.Singlet ~pos:(Geometry.point 40 4) ())
        in
        let writes dst target =
          List.fold_left
            (fun pl (icon, off) ->
              snd
                (Pipeline.add_connection pl
                   ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
                   ~dst ~spec:(Dma_spec.make ~offset:off target) ()))
            pl [ (i0, 0); (i1, 100) ]
        in
        check_texts "cache write-exclusive"
          [
            "error(plane-write-exclusive) [pipeline 1]: cache3 is written \
             by 2 streams but sustains 1 write stream; route the second \
             result elsewhere";
          ]
          (rule_texts Diagnostic.Plane_write_exclusive
             (check_pl ~level:`Interactive
                (writes (Connection.Direct_cache 3) (Dma_spec.To_cache 3))));
        let pl = writes (Connection.Direct_memory 5) (Dma_spec.To_plane 5) in
        check_texts "write-exclusive"
          [
            "error(plane-write-exclusive) [pipeline 1]: mem5 is written by \
             2 streams but sustains 1 write stream; route the second result \
             elsewhere";
          ]
          (rule_texts Diagnostic.Plane_write_exclusive (check_pl ~level:`Interactive pl));
        let pl, icon = pipeline_with Als.Triplet in
        let i1, pl =
          Build.fail_on_error
            (Pipeline.place_als params pl ~kind:Als.Triplet ~pos:(Geometry.point 40 4) ())
        in
        let pl =
          reads_into pl
            [ (icon, Icon.In_pad (0, Resource.A)); (icon, Icon.In_pad (0, Resource.B));
              (icon, Icon.In_pad (1, Resource.B)); (icon, Icon.In_pad (2, Resource.B));
              (i1, Icon.In_pad (0, Resource.A)) ]
        in
        let ds = check_pl ~level:`Interactive pl in
        check_texts "DMA engines exhausted"
          [
            "error(dma-range) [pipeline 1]: mem0 carries 5 streams but has \
             only 4 DMA engines";
          ]
          (rule_texts Diagnostic.Dma_range ds);
        check_texts "read-port contention"
          [
            "warning(plane-read-contention) [pipeline 1]: mem0 feeds 5 \
             streams through 2 read ports; the pipeline will stall on every \
             element";
          ]
          (rule_texts Diagnostic.Plane_read_contention ds);
        (* the one-line summary a failed build reports: the errors alone,
           in order, joined by "; " *)
        Alcotest.(check string) "error summary"
          "error(dma-range): first; error(timing) [pipeline 2]: second"
          (Diagnostic.error_summary
             [ Diagnostic.error Diagnostic.Dma_range "first";
               Diagnostic.warning Diagnostic.Timing "skipped";
               Diagnostic.error
                 ~location:{ Diagnostic.nowhere with Diagnostic.pipeline = Some 2 }
                 Diagnostic.Timing "second" ]));
    case "DMA transfer range problems" (fun () ->
        let validate t = Dma.validate params t ~vector_length:16 in
        check_texts "plane does not exist"
          [ "memory plane 99 does not exist" ]
          (validate (transfer (Dma.Plane 99) Dma.Read ~base:0 ~stride:1 ~count:0));
        check_texts "cache does not exist"
          [ "cache 99 does not exist" ]
          (validate (transfer (Dma.Cache_chan 99) Dma.Write ~base:0 ~stride:1 ~count:0));
        check_texts "extent beyond the plane"
          [ "extent end 16777228 exceeds plane size 16777216 words" ]
          (validate
             (transfer (Dma.Plane 3) Dma.Read ~base:(params.Params.memory_plane_words - 4)
                ~stride:1 ~count:0));
        check_texts "cache transfer overflow"
          [ "cache transfer [8188..8218] exceeds buffer of 8192 words" ]
          (validate
             (transfer (Dma.Cache_chan 2) Dma.Write ~base:(params.Params.cache_words - 4)
                ~stride:2 ~count:0)));
    case "memory extent problems" (fun () ->
        check_texts "plane does not exist"
          [ "plane 16 does not exist (machine has 16 planes)" ]
          (Memory.validate_extent params { Memory.plane = 16; lo = 0; hi = 8 });
        check_texts "extent end beyond the plane"
          [ "extent end 16777217 exceeds plane size 16777216 words" ]
          (Memory.validate_extent params
             { Memory.plane = 0; lo = 8; hi = params.Params.memory_plane_words + 1 }));
    case "register-file usage problems" (fun () ->
        let rf = params.Params.rf_registers and depth = params.Params.rf_max_delay in
        check_texts "every register-file limit"
          [
            "A-operand delay 97 exceeds maximum 96";
            "B-operand delay 98 exceeds maximum 96";
            "constant register 128 outside file of 128 registers";
            "constant register 128 outside file of 128 registers";
            "constant registers must be distinct";
            "usage requires 197 registers but the file holds 128";
          ]
          (Register_file.validate params
             {
               Register_file.constants = [ (rf, 1.0); (rf, 2.0) ];
               delay_a = depth + 1;
               delay_b = depth + 2;
             }));
  ]

let suite = suite @ [ ("checker:messages", message_text_tests) ]
