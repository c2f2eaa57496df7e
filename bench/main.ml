(* The benchmark harness: regenerates every figure and quantitative claim
   of the paper (see DESIGN.md's per-experiment index) and writes the
   machine-readable digest BENCH_sim.json.

   The paper's evaluation is a prototype walkthrough, so the "tables" here
   are the reproduction targets DESIGN.md enumerates: F1-F11 (figures) and
   C1-C11 (quantitative claims), plus the A1-A2 ablations and the
   hypercube scaling campaign.  Every figure is a simulated-machine metric
   (cycles, MFLOPS, utilization), so it is deterministic.  The one host
   measurement is OVERHEAD, the disabled cost of every gated site; host
   performance of the simulator itself is measured by nscbench. *)

open Nsc_arch
open Nsc_diagram
open Nsc_sim
open Nsc_apps

let kb = Knowledge.default
let params = Knowledge.params kb

module Metrics = Nsc_metrics.Metrics
module Json = Nsc_metrics.Json

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s  %s\n" id title;
  Printf.printf "================================================================\n"

let row fmt = Printf.printf fmt

(* one row of BENCH_sim.json's "experiments" block *)
let experiment name mflops =
  Json.Obj [ ("name", Json.Str name); ("sustained_mflops", Json.Num mflops) ]

let int n = Json.Num (float_of_int n)

(* ------------------------------------------------------------------ *)
(* F1 + C1: the machine and its datapath                               *)
(* ------------------------------------------------------------------ *)

let fig1_datapath () =
  section "F1/C1" "machine knowledge base (paper figure 1 and section 2)";
  row "%s\n" (Knowledge.summary kb);
  row "functional units total      : %d (paper: 32)\n" (Params.n_functional_units params);
  row "node memory                 : %d MB (paper: 2 Gbytes)\n"
    (Params.node_memory_bytes params / (1024 * 1024));
  row "peak per node               : %.0f MFLOPS (paper: 640)\n" (Params.peak_mflops params);
  row "64-node machine             : %.1f GFLOPS peak (paper: 40), %d GB memory (paper: 128)\n"
    (Params.peak_gflops_machine params)
    (Params.node_memory_bytes params / (1024 * 1024 * 1024) * 64)

(* ------------------------------------------------------------------ *)
(* F2/F11 + C10: the Jacobi example, diagrams and convergence          *)
(* ------------------------------------------------------------------ *)

let run_jacobi n =
  let prob = Poisson.manufactured n in
  let tol = 1e-6 and max_iters = 4000 in
  let u_host, host_iters, _ = Poisson.host_solve prob ~tol ~max_iters in
  match Jacobi.solve kb prob ~tol ~max_iters with
  | Error e -> failwith e
  | Ok o ->
      let diff = Grid.max_diff prob.Poisson.grid o.Jacobi.u u_host in
      (prob, host_iters, o, diff)

let fig2_jacobi () =
  section "F2/F11/C10" "point Jacobi for 3-D Poisson with residual check (eq. 1)";
  let b = Jacobi.build kb (Grid.cube 9) ~tol:1e-6 ~max_iters:100 in
  List.iter
    (fun (pl : Pipeline.t) ->
      row "instruction %d: %-28s %2d unit(s)  %2d wire(s)\n" pl.Pipeline.index
        pl.Pipeline.label
        (Pipeline.programmed_units pl)
        (List.length pl.Pipeline.connections))
    b.Jacobi.program.Program.pipelines;
  row "\n%4s  %11s  %10s  %14s  %12s\n" "n" "host sweeps" "NSC sweeps" "max|nsc-host|"
    "sust. MFLOPS";
  List.map
    (fun n ->
      let _, host_iters, o, diff = run_jacobi n in
      let s =
        Stats.summarize params ~cycles:o.Jacobi.stats.Sequencer.total_cycles
          ~flops:o.Jacobi.stats.Sequencer.total_flops
      in
      row "%4d  %11d  %10d  %14.2e  %12.1f\n" n host_iters o.Jacobi.sweeps diff s.Stats.mflops;
      experiment (Printf.sprintf "jacobi_n%d" n) s.Stats.mflops)
    [ 5; 7; 9 ]

(* ------------------------------------------------------------------ *)
(* C2: the planar memory organisation - copies versus contention       *)
(* ------------------------------------------------------------------ *)

let c2_contention () =
  section "C2" "memory-plane layout ablation (copies vs. contention stalls)";
  let prob = Poisson.manufactured 7 in
  let measure name layout =
    match Jacobi.solve kb ~layout prob ~tol:1e-5 ~max_iters:500 with
    | Error e -> failwith e
    | Ok o ->
        let per_sweep =
          float_of_int o.Jacobi.stats.Sequencer.total_cycles
          /. float_of_int (max 1 o.Jacobi.sweeps)
        in
        let s =
          Stats.summarize params ~cycles:o.Jacobi.stats.Sequencer.total_cycles
            ~flops:o.Jacobi.stats.Sequencer.total_flops
        in
        row "%-22s  %6d u-planes  %9.0f cycles/sweep  %6.1f MFLOPS  %5.1f%% util\n" name
          (List.length (Jacobi.u_planes layout))
          per_sweep s.Stats.mflops (100.0 *. s.Stats.utilization);
        experiment (Printf.sprintf "layout_%s" name) s.Stats.mflops
  in
  let distributed = measure "distributed (4 copies)" Jacobi.distributed in
  let packed = measure "packed (2 copies)" Jacobi.packed in
  row "shape: fewer copies -> plane port contention -> stalls every element\n";
  [ distributed; packed ]

(* ------------------------------------------------------------------ *)
(* C3: sustained node rate versus the 640 MFLOPS peak                  *)
(* ------------------------------------------------------------------ *)

let run_lang src =
  match Nsc_lang.Compile.compile kb src with
  | Error e -> failwith e.Nsc_lang.Compile.message
  | Ok c -> (
      match Nsc_microcode.Codegen.compile kb c.Nsc_lang.Compile.program with
      | Error _ -> failwith "codegen"
      | Ok compiled -> (
          let node = Node.create params in
          match Sequencer.run node compiled with
          | Ok o ->
              (o.Sequencer.stats.Sequencer.total_flops,
               o.Sequencer.stats.Sequencer.total_cycles)
          | Error e -> failwith e))

let c3_node_rate () =
  section "C3" "sustained single-node MFLOPS vs. the 640 peak";
  let saturation_src =
    (* 8 stencil terms + a 7-add summing chain = 23 flops/element, packing
       onto 8 doublets, 2 triplets and a singlet *)
    let arrays = [ "a"; "b"; "c"; "d"; "e"; "f2"; "g"; "h" ] in
    String.concat "\n"
      (List.mapi (fun i a -> Printf.sprintf "array %s[4096] plane %d" a i) arrays
      @ [ "array z[4096] plane 8" ]
      @ [
          "z = "
          ^ String.concat " + "
              (List.mapi
                 (fun i a -> Printf.sprintf "(%s[-1] + %s[+1]) * 0.1%d" a a i)
                 arrays);
        ])
  in
  let bench name (flops, cycles) =
    let s = Stats.summarize params ~cycles ~flops in
    row "%-30s %9d flops %9d cycles  %7.1f MFLOPS  %5.1f%% of peak\n" name flops cycles
      s.Stats.mflops (100.0 *. s.Stats.utilization);
    experiment name s.Stats.mflops
  in
  let vecadd =
    bench "vecadd (1 flop/elem)"
      (run_lang "array a[4096] plane 0\narray b[4096] plane 1\narray z[4096] plane 2\nz = a + b")
  in
  let jacobi =
    let prob = Poisson.manufactured 9 in
    match Jacobi.solve kb prob ~tol:1e-6 ~max_iters:300 with
    | Ok o ->
        bench "Jacobi solve loop (11 fl/el)"
          (o.Jacobi.stats.Sequencer.total_flops, o.Jacobi.stats.Sequencer.total_cycles)
    | Error e -> failwith e
  in
  let saturation = bench "saturation expression" (run_lang saturation_src) in
  row "shape: utilization rises with flops/element; fill, refresh copies and\n";
  row "reconfiguration keep sustained rates well under peak, as expected\n";
  [ vecadd; jacobi; saturation ]

(* ------------------------------------------------------------------ *)
(* C4: hypercube weak scaling toward the 40 GFLOPS machine             *)
(* ------------------------------------------------------------------ *)

let c4_scaling ~domains () =
  section "C4" "hypercube weak scaling (slab-decomposed Jacobi)";
  if domains > 1 then
    row "(per-node simulation fanned across %d OCaml domains)\n" domains;
  let series n iters =
    row "per-node slab %dx%dx%d:\n" n n n;
    row "%6s  %8s  %11s  %8s\n" "nodes" "GFLOPS" "efficiency" "comm %";
    match Parallel.scaling params ~domains ~n ~iters ~dims:[ 0; 1; 2; 3; 4; 5; 6 ] with
    | Error e -> failwith e
    | Ok pts ->
        List.iter
          (fun (pt : Parallel.point) ->
            row "%6d  %8.3f  %10.1f%%  %7.1f%%\n" pt.Parallel.nodes pt.Parallel.gflops
              (100.0 *. pt.Parallel.efficiency)
              (100.0 *. pt.Parallel.comm_fraction))
          pts
  in
  series 9 2;
  row "\n";
  series 15 2;
  row "shape: near-linear weak scaling; the communication share flattens\n";
  row "(nearest-neighbour Gray-embedded exchange) and shrinks with slab size\n";
  row "(surface-to-volume)\n"

(* ------------------------------------------------------------------ *)
(* SCALING: asynchronous halo exchange, weak scaling to 1024 nodes     *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled line chart: efficiency, visible communication share and
   overlap ratio against the node count, GFLOPS annotated per point. *)
let write_scaling_svg path (points : Parallel.point list) =
  let w = 680 and h = 420 in
  let left = 64 and right = 24 and top = 48 and bottom = 56 in
  let plot_w = w - left - right and plot_h = h - top - bottom in
  let np = List.length points in
  let x i =
    left
    + if np <= 1 then plot_w / 2 else i * plot_w / (np - 1)
  in
  let y pct = top + int_of_float (float_of_int plot_h *. (1.0 -. pct)) in
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  out "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
       viewBox=\"0 0 %d %d\" font-family=\"sans-serif\" font-size=\"12\">\n"
    w h w h;
  out "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n" w h;
  out
    "<text x=\"%d\" y=\"22\" text-anchor=\"middle\" font-size=\"14\">Weak \
     scaling with asynchronous halo exchange (slab Jacobi)</text>\n"
    (w / 2);
  (* horizontal gridlines every 25% *)
  List.iter
    (fun pct ->
      let yy = y (float_of_int pct /. 100.0) in
      out
        "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#ddd\"/>\n\
         <text x=\"%d\" y=\"%d\" text-anchor=\"end\">%d%%</text>\n"
        left yy (w - right) yy (left - 8) (yy + 4) pct)
    [ 0; 25; 50; 75; 100 ];
  (* x tick labels: node counts *)
  List.iteri
    (fun i p ->
      out "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">%d</text>\n" (x i)
        (h - bottom + 18) p.Parallel.nodes)
    points;
  out "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">nodes</text>\n" (w / 2)
    (h - 14);
  let series color value =
    let pts =
      String.concat " "
        (List.mapi (fun i p -> Printf.sprintf "%d,%d" (x i) (y (value p))) points)
    in
    out "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"2\"/>\n"
      pts color;
    List.iteri
      (fun i p ->
        out "<circle cx=\"%d\" cy=\"%d\" r=\"3\" fill=\"%s\"/>\n" (x i)
          (y (value p)) color)
      points
  in
  series "#2563eb" (fun p -> p.Parallel.efficiency);
  series "#dc2626" (fun p -> p.Parallel.comm_fraction);
  series "#16a34a" (fun p -> p.Parallel.overlap_ratio);
  (* sustained GFLOPS annotated above the efficiency curve *)
  List.iteri
    (fun i p ->
      out
        "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\" font-size=\"10\" \
         fill=\"#2563eb\">%.1f</text>\n"
        (x i)
        (y p.Parallel.efficiency - 8)
        p.Parallel.gflops)
    points;
  let legend yy color label =
    out
      "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"%s\" \
       stroke-width=\"2\"/>\n\
       <text x=\"%d\" y=\"%d\">%s</text>\n"
      (left + 10) yy (left + 34) yy color (left + 40) (yy + 4) label
  in
  legend (top + 14) "#2563eb" "parallel efficiency (GFLOPS annotated)";
  legend (top + 32) "#dc2626" "visible communication share";
  legend (top + 50) "#16a34a" "overlap ratio (exchange cycles hidden)";
  out "</svg>\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let scaling_campaign ~domains () =
  section "SCALING" "asynchronous halo exchange: overlap and the 1024-node campaign";
  let module F = Nsc_fault.Fault in
  let n = 5 and iters = 2 in
  let run ?(overlap = false) dim =
    match Parallel.run params ~domains ~overlap ~n ~iters ~dim with
    | Error e -> failwith ("SCALING: " ^ e)
    | Ok pt -> pt
  in
  let field ?(overlap = false) ?run dim =
    match Parallel.run_field params ~domains ~overlap ?run ~n ~iters ~dim with
    | Error e -> failwith ("SCALING: " ^ e)
    | Ok f -> f
  in
  (* dim-6 head-to-head: the overlapped schedule must hide enough of the
     exchange to cut its visible cycles, without perturbing a single bit *)
  let sync6 = run 6 and async6 = run ~overlap:true 6 in
  let visible (pt : Parallel.point) =
    pt.Parallel.comm_fraction *. pt.Parallel.cycles_per_iter
  in
  let vis_sync = visible sync6 and vis_async = visible async6 in
  let reduction_pct = 100.0 *. (vis_sync -. vis_async) /. vis_sync in
  let residual_match = field 6 = field ~overlap:true 6 in
  let faulted_field overlap =
    let spec =
      match F.parse "transient-link:p=0.2:retries=2" with
      | Ok s -> s
      | Error e -> failwith ("SCALING: " ^ e)
    in
    field ~overlap ~run:(Run.make ~fault:(F.make ~seed:7 spec) ()) 6
  in
  let faulted_match = faulted_field false = faulted_field true in
  row "dim 6 (64 nodes), per-node slab %dx%dx%d, %d iterations:\n" n n n iters;
  row "  synchronous:  %7.0f cycles/iter, %5.1f%% in exchange\n"
    sync6.Parallel.cycles_per_iter
    (100.0 *. sync6.Parallel.comm_fraction);
  row "  asynchronous: %7.0f cycles/iter, %5.1f%% visible, %5.1f%% hidden\n"
    async6.Parallel.cycles_per_iter
    (100.0 *. async6.Parallel.comm_fraction)
    (100.0 *. async6.Parallel.overlap_ratio);
  row "  exchange-visible cycles: %.0f -> %.0f (-%.1f%%)\n" vis_sync vis_async
    reduction_pct;
  row "  residuals bit-identical: clean %b, faulted %b\n" residual_match
    faulted_match;
  if reduction_pct < 20.0 then
    failwith "SCALING: overlap hides less than 20% of exchange-visible cycles";
  if not (residual_match && faulted_match) then
    failwith "SCALING: overlapped schedule diverged from the synchronous one";
  (* the campaign: weak scaling with overlap, 64 -> 1024 nodes *)
  let dims = [ 0; 6; 7; 8; 9; 10 ] in
  row "\ncampaign (asynchronous exchange):\n";
  row "%6s  %8s  %11s  %8s  %9s  %11s\n" "nodes" "GFLOPS" "efficiency" "comm %"
    "overlap %" "cycles/iter";
  let campaign =
    match Parallel.scaling params ~domains ~overlap:true ~n ~iters ~dims with
    | Error e -> failwith ("SCALING: " ^ e)
    | Ok pts -> pts
  in
  List.iter
    (fun (pt : Parallel.point) ->
      row "%6d  %8.3f  %10.1f%%  %7.1f%%  %8.1f%%  %11.0f\n" pt.Parallel.nodes
        pt.Parallel.gflops
        (100.0 *. pt.Parallel.efficiency)
        (100.0 *. pt.Parallel.comm_fraction)
        (100.0 *. pt.Parallel.overlap_ratio)
        pt.Parallel.cycles_per_iter)
    campaign;
  let last = List.nth campaign (List.length campaign - 1) in
  row
    "at %d nodes the machine sustains %.1f GFLOPS at %.1f%% efficiency with \
     %.1f%% of exchange cycles hidden\n"
    last.Parallel.nodes last.Parallel.gflops
    (100.0 *. last.Parallel.efficiency)
    (100.0 *. last.Parallel.overlap_ratio);
  (try
     write_scaling_svg "figures/fig12-scaling.svg" campaign;
     row "figure written: figures/fig12-scaling.svg\n"
   with Sys_error e -> row "figure skipped (%s)\n" e);
  let point dim (pt : Parallel.point) =
    Json.Obj
      [ ("dim", int dim);
        ("nodes", int pt.Parallel.nodes);
        ("gflops", Json.Num pt.Parallel.gflops);
        ("efficiency", Json.Num pt.Parallel.efficiency);
        ("comm_fraction", Json.Num pt.Parallel.comm_fraction);
        ("overlap_ratio", Json.Num pt.Parallel.overlap_ratio);
        ("contention_per_iter", Json.Num pt.Parallel.contention_per_iter);
        ("cycles_per_iter", Json.Num pt.Parallel.cycles_per_iter) ]
  in
  Json.Obj
    [ ("n", int n);
      ("iters", int iters);
      ("sync_dim6_cycles_per_iter", Json.Num sync6.Parallel.cycles_per_iter);
      ("async_dim6_cycles_per_iter", Json.Num async6.Parallel.cycles_per_iter);
      ("exchange_visible_sync", Json.Num vis_sync);
      ("exchange_visible_async", Json.Num vis_async);
      ("exchange_visible_reduction_pct", Json.Num reduction_pct);
      ("residual_match", Json.Bool residual_match);
      ("faulted_residual_match", Json.Bool faulted_match);
      ("points", Json.List (List.map2 point dims campaign)) ]

(* ------------------------------------------------------------------ *)
(* C5: microcode scale                                                 *)
(* ------------------------------------------------------------------ *)

let c5_microcode () =
  section "C5" "microinstruction scale ('a few thousand bits ... dozens of fields')";
  let layout = Nsc_microcode.Fields.make params in
  row "bits per instruction   : %d\n" layout.Nsc_microcode.Fields.total_bits;
  row "field instances        : %d\n" (Nsc_microcode.Fields.field_count layout);
  row "distinct field kinds   : %d\n" (Nsc_microcode.Fields.kind_count layout);
  let b = Jacobi.build kb (Grid.cube 9) ~tol:1e-6 ~max_iters:10 in
  match Nsc_microcode.Codegen.compile kb b.Jacobi.program with
  | Ok c ->
      row "Jacobi program         : %d instructions = %d bits of microcode\n"
        (List.length c.Nsc_microcode.Codegen.instructions)
        (Nsc_microcode.Codegen.code_bits c)
  | Error _ -> failwith "codegen"

(* ------------------------------------------------------------------ *)
(* C6: authoring-effort comparison across the three routes             *)
(* ------------------------------------------------------------------ *)

let c6_authoring () =
  section "C6" "authoring effort: raw microcode vs. visual editor vs. compiler";
  let lang_src =
    "array u[64] plane 0\narray g[64] plane 1\narray mask[64] plane 2\narray unew[64] \
     plane 3\nunew = mask * ((u[-1] + u[+1] - g) * 0.5)"
  in
  let c =
    match Nsc_lang.Compile.compile kb lang_src with
    | Ok c -> c
    | Error e -> failwith e.Nsc_lang.Compile.message
  in
  let compiled =
    match Nsc_microcode.Codegen.compile kb c.Nsc_lang.Compile.program with
    | Ok c -> c
    | Error _ -> failwith "codegen"
  in
  let instr = List.hd compiled.Nsc_microcode.Codegen.instructions in
  let live_bits = Nsc_microcode.Word.popcount instr.Nsc_microcode.Encode.word in
  let layout = compiled.Nsc_microcode.Codegen.layout in
  row "raw microcode  : %5d bits to author across %d fields (%d live bits)\n"
    layout.Nsc_microcode.Fields.total_bits
    (Nsc_microcode.Fields.field_count layout)
    live_bits;
  let pl = List.hd c.Nsc_lang.Compile.program.Program.pipelines in
  let gestures =
    (3 * List.length pl.Pipeline.icons)
    + (4 * List.length pl.Pipeline.connections)
    + (2 * Pipeline.programmed_units pl)
  in
  row "visual editor  : %5d mouse/menu events (%d icons, %d wires, %d units)\n" gestures
    (List.length pl.Pipeline.icons)
    (List.length pl.Pipeline.connections)
    (Pipeline.programmed_units pl);
  row "compiler       : %5d characters of source (%d lines)\n" (String.length lang_src)
    (List.length (String.split_on_char '\n' lang_src));
  row "shape: each level drops the specification burden by about an order of\n";
  row "magnitude - hand microcoding is 'clearly not practical'\n"

(* ------------------------------------------------------------------ *)
(* C7: the checker catches every seeded violation                      *)
(* ------------------------------------------------------------------ *)

let c7_checker () =
  section "C7" "checker coverage: seeded violations per rule";
  let catch name build rule =
    let pl = build () in
    let ds = Nsc_checker.Checker.check_pipeline kb ~level:`Complete pl in
    let hit =
      List.exists
        (fun d -> Nsc_checker.Diagnostic.equal_rule d.Nsc_checker.Diagnostic.rule rule)
        ds
    in
    row "  %-30s %s\n" name (if hit then "caught" else "MISSED")
  in
  let place kind =
    let pl = Pipeline.empty 1 in
    Build.fail_on_error (Pipeline.place_als params pl ~kind ~pos:(Geometry.point 10 2) ())
  in
  catch "integer op on a singlet"
    (fun () ->
      let icon, pl = place Als.Singlet in
      Pipeline.set_config pl ~id:icon ~slot:0
        (Fu_config.make ~a:(Fu_config.From_constant 1.0) ~b:(Fu_config.From_constant 2.0)
           Opcode.Iadd))
    Nsc_checker.Diagnostic.Capability;
  catch "second writer to one plane"
    (fun () ->
      let i0, pl = place Als.Singlet in
      let i1, pl =
        Build.fail_on_error
          (Pipeline.place_als params pl ~kind:Als.Singlet ~pos:(Geometry.point 40 2) ())
      in
      let out pl icon off =
        snd
          (Pipeline.add_connection pl
             ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
             ~dst:(Connection.Direct_memory 5)
             ~spec:(Dma_spec.make ~offset:off (Dma_spec.To_plane 5)) ())
      in
      out (out pl i0 0) i1 512)
    Nsc_checker.Diagnostic.Plane_write_exclusive;
  catch "misaligned operand streams"
    (fun () ->
      let icon, pl = place Als.Doublet in
      let pl =
        snd
          (Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
             ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
             ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ())
      in
      let pl =
        snd
          (Pipeline.add_connection pl ~src:(Connection.Direct_memory 1)
             ~dst:(Connection.Pad { icon; pad = Icon.In_pad (1, Resource.B) })
             ~spec:(Dma_spec.make (Dma_spec.To_plane 1)) ())
      in
      let pl =
        Pipeline.set_config pl ~id:icon ~slot:0
          (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant 1.0)
             Opcode.Fmul)
      in
      Pipeline.set_config pl ~id:icon ~slot:1
        (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fadd))
    Nsc_checker.Diagnostic.Timing;
  catch "in-place plane update"
    (fun () ->
      let icon, pl = place Als.Singlet in
      let pl =
        snd
          (Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
             ~dst:(Connection.Pad { icon; pad = Icon.In_pad (0, Resource.A) })
             ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ())
      in
      snd
        (Pipeline.add_connection pl
           ~src:(Connection.Pad { icon; pad = Icon.Out_pad 0 })
           ~dst:(Connection.Direct_memory 0)
           ~spec:(Dma_spec.make (Dma_spec.To_plane 0)) ()))
    Nsc_checker.Diagnostic.Plane_hazard;
  catch "combinational switch loop"
    (fun () ->
      let i0, pl = place Als.Singlet in
      let i1, pl =
        Build.fail_on_error
          (Pipeline.place_als params pl ~kind:Als.Singlet ~pos:(Geometry.point 40 2) ())
      in
      let pl = Build.pad_to_pad pl ~from_icon:i0 ~from_pad:(Icon.Out_pad 0) ~to_icon:i1 ~to_pad:(Icon.In_pad (0, Resource.A)) in
      let pl = Build.pad_to_pad pl ~from_icon:i1 ~from_pad:(Icon.Out_pad 0) ~to_icon:i0 ~to_pad:(Icon.In_pad (0, Resource.A)) in
      let pl = Pipeline.set_config pl ~id:i0 ~slot:0 (Fu_config.make ~a:Fu_config.From_switch Opcode.Fabs) in
      Pipeline.set_config pl ~id:i1 ~slot:0 (Fu_config.make ~a:Fu_config.From_switch Opcode.Fabs))
    Nsc_checker.Diagnostic.Switch_cycle;
  catch "DMA engines exhausted"
    (fun () ->
      let icon, pl = place Als.Triplet in
      let i1, pl =
        Build.fail_on_error
          (Pipeline.place_als params pl ~kind:Als.Triplet ~pos:(Geometry.point 40 2) ())
      in
      let wire pl icon pad off =
        snd
          (Pipeline.add_connection pl ~src:(Connection.Direct_memory 0)
             ~dst:(Connection.Pad { icon; pad })
             ~spec:(Dma_spec.make ~offset:off (Dma_spec.To_plane 0)) ())
      in
      let pl = wire pl icon (Icon.In_pad (0, Resource.A)) 0 in
      let pl = wire pl icon (Icon.In_pad (0, Resource.B)) 1 in
      let pl = wire pl icon (Icon.In_pad (1, Resource.B)) 2 in
      let pl = wire pl icon (Icon.In_pad (2, Resource.B)) 3 in
      wire pl i1 (Icon.In_pad (0, Resource.A)) 4)
    Nsc_checker.Diagnostic.Dma_range

(* ------------------------------------------------------------------ *)
(* C8: the visual debugger                                             *)
(* ------------------------------------------------------------------ *)

let c8_debugger () =
  section "C8" "visual debugger: annotated values through the Jacobi pipeline";
  let prob = Poisson.manufactured 5 in
  let b = Jacobi.build kb prob.Poisson.grid ~tol:1e-3 ~max_iters:2 in
  match Nsc_microcode.Codegen.compile kb b.Jacobi.program with
  | Error _ -> failwith "codegen"
  | Ok compiled -> (
      let node = Node.create params in
      Jacobi.load node b prob;
      match Nsc_debug.Stepper.run node ~limit:2 compiled b.Jacobi.program with
      | Error e -> failwith e
      | Ok run ->
          let f = List.nth run.Nsc_debug.Stepper.frames 1 in
          let centre = Grid.index prob.Poisson.grid ~i:2 ~j:2 ~k:2 - Grid.pad prob.Poisson.grid in
          let values = Nsc_debug.Stepper.values_at f ~element:centre in
          row "frame 1 (%s) at the grid centre element:\n" f.Nsc_debug.Stepper.label;
          List.iter
            (fun (fu, v) -> row "  %-10s = %.6g\n" (Resource.fu_to_string fu) v)
            values;
          row "anomalies found: %d\n" (List.length (Nsc_debug.Stepper.anomalies f)))

(* ------------------------------------------------------------------ *)
(* C9: the simpler architectural subset                                *)
(* ------------------------------------------------------------------ *)

let c9_subset () =
  section "C9" "programmability vs. performance: full machine vs. subset model";
  let src =
    "array u[256] plane 0\narray g[256] plane 1\narray mask[256] plane 2\narray unew[256] \
     plane 3\nrepeat 20 { unew = mask * ((u[-1] + u[+1] - g) * 0.5)\nu = unew + 0.0 }"
  in
  let measure name kb' =
    match Nsc_lang.Compile.compile kb' src with
    | Error e -> row "%-16s compile error: %s\n" name e.Nsc_lang.Compile.message
    | Ok c -> (
        match Nsc_microcode.Codegen.compile kb' c.Nsc_lang.Compile.program with
        | Error _ -> row "%-16s codegen failed\n" name
        | Ok compiled -> (
            let p' = Knowledge.params kb' in
            let node = Node.create p' in
            match Sequencer.run node compiled with
            | Ok o ->
                let st = o.Sequencer.stats in
                let layout = Nsc_microcode.Fields.make p' in
                row
                  "%-16s %6d cycles  %6d flops  %6.1f MFLOPS (%4.1f%% of its %4.0f peak)  %5d-bit instr\n"
                  name st.Sequencer.total_cycles st.Sequencer.total_flops
                  (Stats.mflops p' ~cycles:st.Sequencer.total_cycles
                     ~flops:st.Sequencer.total_flops)
                  (100.0
                  *. Stats.utilization p' ~cycles:st.Sequencer.total_cycles
                       ~flops:st.Sequencer.total_flops)
                  (Params.peak_mflops p')
                  layout.Nsc_microcode.Fields.total_bits
            | Error e -> row "%-16s run error: %s\n" name e))
  in
  measure "full machine" Knowledge.default;
  measure "subset model" Knowledge.subset;
  row "shape: the subset is easier to target (smaller instruction, fewer\n";
  row "asymmetries) at a lower absolute peak - the paper's stated tradeoff\n"

(* ------------------------------------------------------------------ *)
(* C11: multigrid versus Jacobi                                        *)
(* ------------------------------------------------------------------ *)

let c11_multigrid () =
  section "C11" "multigrid vs. plain relaxation (paper reference [6])";
  let prob = Multigrid.manufactured 65 in
  let target = 1.0 in
  let rec mg_cycles k =
    if k > 30 then None
    else
      let u = Multigrid.host_solve prob ~cycles:k ~nu1:2 ~nu2:2 ~nu_coarse:40 in
      if Multigrid.host_residual_norm prob u <= target then Some k else mg_cycles (k + 1)
  in
  let rec smooth_sweeps k =
    if k > 8192 then None
    else
      let u = Multigrid.host_solve prob ~cycles:1 ~nu1:k ~nu2:0 ~nu_coarse:0 in
      if Multigrid.host_residual_norm prob u <= target then Some k
      else smooth_sweeps (k * 2)
  in
  (match (mg_cycles 1, smooth_sweeps 8) with
  | Some mgc, Some js ->
      row "to reach residual <= %.1f on a 65-point line:\n" target;
      row "  two-grid cycles        : %d (each: 4 fine sweeps + 40 half-cost coarse)\n" mgc;
      row "  fine-sweep equivalents : ~%d\n" (mgc * (4 + (40 / 2)));
      row "  plain weighted Jacobi  : between %d and %d sweeps\n" (js / 2) js
  | _ -> row "targets not reached within bounds\n");
  match Multigrid.solve kb prob ~cycles:1 ~nu1:2 ~nu2:2 ~nu_coarse:40 with
  | Ok o ->
      row "NSC cost of one V-cycle: %d instructions, %d cycles\n"
        o.Multigrid.stats.Sequencer.instructions_executed
        o.Multigrid.stats.Sequencer.total_cycles
  | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* A1/A2: ablations over the design choices DESIGN.md calls out        *)
(* ------------------------------------------------------------------ *)

let a1_reconfig () =
  section "A1" "ablation: sequencer reconfiguration cost";
  let prob = Poisson.manufactured 7 in
  row "%10s  %14s  %12s\n" "cycles/cfg" "cycles/sweep" "sust. MFLOPS";
  List.iter
    (fun rc ->
      let p' = { params with Params.reconfig_cycles = rc } in
      let kb' = Knowledge.make_exn p' in
      match Jacobi.solve kb' prob ~tol:1e-5 ~max_iters:300 with
      | Ok o ->
          let st = o.Jacobi.stats in
          row "%10d  %14.0f  %12.1f\n" rc
            (float_of_int st.Sequencer.total_cycles /. float_of_int (max 1 o.Jacobi.sweeps))
            (Stats.mflops p' ~cycles:st.Sequencer.total_cycles
               ~flops:st.Sequencer.total_flops)
      | Error e -> failwith e)
    [ 0; 16; 64; 256; 1024 ];
  row "shape: reconfiguration is amortised over the vector length; it only\n";
  row "bites when switching costs approach the sweep length itself\n"

let a2_sor () =
  section "A2" "ablation: red-black relaxation factor (SOR)";
  let prob = Poisson.manufactured 9 in
  row "%8s  %10s  %14s\n" "omega" "iterations" "final change";
  List.iter
    (fun omega ->
      match Redblack.solve kb ~omega prob ~tol:1e-6 ~max_iters:3000 with
      | Ok o -> row "%8.2f  %10d  %14.3e\n" omega o.Redblack.iterations o.Redblack.final_change
      | Error e -> failwith e)
    [ 1.0; 1.25; 1.5; 1.7; 1.9 ];
  row "shape: the classic SOR sweet spot (omega ~ 2/(1+sin pi*h)) minimises\n";
  row "iterations; the relaxation factor costs nothing on the NSC - it rides\n";
  row "in the colour-mask plane\n"

(* ------------------------------------------------------------------ *)
(* OVERHEAD: the disabled path of every gated site, measured once      *)
(* ------------------------------------------------------------------ *)

(* Everything that costs nothing when unused — counter bumps, span,
   histogram and attribution gates, fault-model consults and budget
   polls — must stay under 2% of an n=9 solve.  Run-to-run noise on a
   solve of a few milliseconds swamps a branch per instruction, so the
   budget is asserted by projection: time each kind of disabled gate once
   in a tight loop (through a closure call, which only inflates it),
   count the sites of each kind one solve crosses with every gate armed,
   and bound their total against the same solve with every gate
   disabled.  A gate guarding several bumps is counted once per bump, so
   the projection over-counts. *)
let overhead () =
  section "OVERHEAD" "disabled-path cost of every gated site (n=9 Jacobi)";
  let module Budget = Nsc_guard.Guard.Budget in
  let prob = Poisson.manufactured 9 in
  let solve ?budget () =
    match Jacobi.solve kb ~run:(Run.make ?budget ()) prob ~tol:1e-6 ~max_iters:4000 with
    | Error e -> failwith ("OVERHEAD: " ^ e)
    | Ok o -> o
  in
  if Metrics.any_enabled () then failwith "OVERHEAD: a metric context is already armed";
  let time_gate f =
    let n = 20_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
  in
  let probe =
    Metrics.counter ~name:"bench.gate_probe" ~units:"calls"
      ~desc:"disabled-path timing probe (bench only)"
  in
  let bump_ns = time_gate (fun () -> Metrics.bump probe 1) in
  let trace_ns = time_gate (fun () -> ignore (Sys.opaque_identity (Metrics.tracing ()))) in
  (* the engine's consult: a match on the clean run's [fault] field *)
  let clean_run = Some (Run.make ()) in
  let fault_ns =
    time_gate (fun () ->
        match Sys.opaque_identity clean_run with
        | Some { Run.fault = Some f; _ } -> ignore (Sys.opaque_identity f)
        | _ -> ())
  in
  let budget_ns = time_gate (fun () -> Budget.poll_opt (Sys.opaque_identity None)) in
  (* the denominator: best of three fully disabled solves *)
  let disabled_seconds = ref infinity and clean = ref None in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let o = solve () in
    disabled_seconds := Float.min !disabled_seconds (Unix.gettimeofday () -. t0);
    clean := Some o
  done;
  let disabled_seconds = !disabled_seconds and clean = Option.get !clean in
  (* the site count: the same solve under an enabled context and a budget
     too generous to fire; arming neither may change the computation *)
  let ctx = Metrics.create ~label:"bench-overhead" () in
  let budget = Budget.create ~deadline_cycles:max_int () in
  Metrics.enable ctx;
  let armed = Metrics.with_ctx ctx (fun () -> solve ~budget ()) in
  Metrics.disable ctx;
  if
    armed.Jacobi.sweeps <> clean.Jacobi.sweeps
    || armed.Jacobi.final_change <> clean.Jacobi.final_change
  then failwith "OVERHEAD: arming the gates changed the computation";
  let instructions = armed.Jacobi.stats.Sequencer.instructions_executed in
  (* one (kind, ns per gate, sites crossed) triple per kind of gate *)
  let gates =
    [ ("counter_bump", bump_ns, Metrics.total_bumps ctx);
      (* every recorded or dropped span/instant and every histogram or
         attribution observation sits behind a [Metrics.tracing] gate *)
      ( "trace_gate",
        trace_ns,
        Metrics.total_observations ctx + List.length (Metrics.events ctx)
        + Metrics.dropped ctx );
      (* the engine consults the model twice per instruction (FU draw,
         stream overhead) *)
      ("fault_consult", fault_ns, 2 * instructions);
      (* boundary checks and element-block polls, plus one charge per
         dispatched instruction *)
      ("budget_poll", budget_ns, Budget.polls budget + instructions) ]
  in
  let projected_pct =
    List.fold_left (fun acc (_, ns, sites) -> acc +. (float_of_int sites *. ns)) 0.0 gates
    /. (disabled_seconds *. 1e9) *. 100.0
  in
  row "repeated-sweep Jacobi, n=9, tol 1e-6 (%d sweeps):\n" clean.Jacobi.sweeps;
  row "  disabled solve, best of 3   : %8.4f s host time\n" disabled_seconds;
  row "  %-14s %10s %12s\n" "gate" "ns/gate" "sites";
  List.iter (fun (kind, ns, sites) -> row "  %-14s %10.2f %12d\n" kind ns sites) gates;
  row "  projected disabled overhead : %8.4f %% of the disabled solve\n" projected_pct;
  if projected_pct >= 2.0 then
    failwith
      (Printf.sprintf "OVERHEAD: disabled-path projection %.3f%% breaches the 2%% budget"
         projected_pct);
  Json.Obj
    [ ("disabled_seconds", Json.Num disabled_seconds);
      ( "gates",
        Json.Obj
          (List.map
             (fun (kind, ns, sites) ->
               (kind, Json.Obj [ ("gate_ns", Json.Num ns); ("sites", int sites) ]))
             gates) );
      ("sites", int (List.fold_left (fun acc (_, _, sites) -> acc + sites) 0 gates));
      ("projected_disabled_overhead_pct", Json.Num projected_pct) ]

(* BENCH_sim.json: one top-level member per line, so that diffs of the
   committed file stay readable *)
let write_bench_json path members =
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (key, v) ->
      Printf.fprintf oc "  %s: %s%s\n"
        (Json.to_string (Json.Str key))
        (Json.to_string v)
        (if i = List.length members - 1 then "" else ","))
    members;
  output_string oc "}\n";
  close_out oc

(* --domains N fans per-node simulation of the scaling experiments across
   OCaml domains (default 1 — fully sequential, bit-identical results). *)
let domains_of_argv () =
  let d = ref 1 in
  let argv = Sys.argv in
  Array.iteri
    (fun i a ->
      if a = "--domains" && i + 1 < Array.length argv then
        match int_of_string_opt argv.(i + 1) with
        | Some n when n >= 1 -> d := n
        | _ ->
            prerr_endline ("bench: bad --domains value " ^ argv.(i + 1));
            exit 2)
    argv;
  !d

let () =
  let domains = domains_of_argv () in
  let t0 = Unix.gettimeofday () in
  fig1_datapath ();
  let jacobi = fig2_jacobi () in
  let layouts = c2_contention () in
  let rates = c3_node_rate () in
  c4_scaling ~domains ();
  let scaling = scaling_campaign ~domains () in
  c5_microcode ();
  c6_authoring ();
  c7_checker ();
  c8_debugger ();
  c9_subset ();
  c11_multigrid ();
  a1_reconfig ();
  a2_sor ();
  let overhead = overhead () in
  write_bench_json "BENCH_sim.json"
    [ ("experiments", Json.List (jacobi @ layouts @ rates));
      ("overhead", overhead);
      ("scaling", scaling) ];
  Printf.printf "\nall experiments completed in %.1f s (BENCH_sim.json written)\n"
    (Unix.gettimeofday () -. t0)
