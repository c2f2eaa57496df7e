(* The benchmark harness: regenerates every figure and quantitative claim
   of the paper (see DESIGN.md's per-experiment index), then measures the
   tool chain itself with Bechamel microbenchmarks.

   The paper's evaluation is a prototype walkthrough, so the "tables" here
   are the reproduction targets DESIGN.md enumerates: F1-F11 (figures) and
   C1-C11 (quantitative claims).  Simulated-machine metrics (cycles,
   MFLOPS, utilization) come from the NSC simulator; host-time throughput
   of the editor/checker/codegen comes from Bechamel. *)

open Nsc_arch
open Nsc_diagram
open Nsc_sim
open Nsc_apps

let kb = Knowledge.default
let params = Knowledge.params kb

module Metrics = Nsc_metrics.Metrics

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s  %s\n" id title;
  Printf.printf "================================================================\n"

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* machine-readable results: collected as experiments run, written to  *)
(* BENCH_sim.json at the end                                           *)
(* ------------------------------------------------------------------ *)

(* sustained simulated MFLOPS per experiment, in run order *)
let mflops_results : (string * float) list ref = ref []
let record_mflops name mflops = mflops_results := (name, mflops) :: !mflops_results

(* Engine timings are best-of-[timing_reps] over a warmed, shared
   compile cache: the warm-up repetition pays every compile, each
   timed repetition reloads a fresh node outside the timed window, so the
   numbers measure simulator execution — the cost a hot solve loop
   actually pays — rather than one cold compile. *)
let timing_reps = 5

type kernel_perf = {
  kernel_seconds : float;
  reference_seconds : float;
  faulted_reference_seconds : float;
  kernel_sweeps : int;
  kernel_final_change : float;
  faulted_sweeps : int;
  faulted_final_change : float;
  kernel_compiles : int;
  kernel_cache_hits : int;
  kernel_pool_hits : int;
  kernel_pool_misses : int;
  kernel_residual_match : bool;
  kernel_faulted_match : bool;
}

let kernel_perf_result : kernel_perf option ref = ref None

(* One kind of disabled gate: its cost and how many such sites the
   counted n=9 solve crossed. *)
type gate = { g_kind : string; g_ns : float; g_sites : int }

type overhead_perf = {
  ov_disabled_seconds : float;
  ov_gates : gate list;
  ov_projected_pct : float;
}

let overhead_perf_result : overhead_perf option ref = ref None

type trace_perf = {
  trace_disabled_seconds : float;
  trace_enabled_seconds : float;
  trace_counter_values : (string * int * string) list;
}

let trace_perf_result : trace_perf option ref = ref None

type profile_perf = {
  prof_sweeps : int;
  prof_exec_samples : int;
  prof_p50_exec : int;
  prof_p99_exec : int;
  prof_hotspot : Stats.hotspot;
}

let profile_perf_result : profile_perf option ref = ref None

type fault_perf = {
  fault_clean_cycles : int;
  fault_faulted_cycles : int;
  fault_cycle_overhead_pct : float;
  fault_residual_match : bool;
  fault_ledger : (string * int) list;
  fault_ft_rollbacks : int;
  fault_ft_detected : int;
  fault_ft_sweeps : int;
}

let fault_perf_result : fault_perf option ref = ref None

type service_perf = {
  svc_submitted : int;
  svc_completed : int;
  svc_rejected : int;
  svc_domains : int;
  svc_queue_bound : int;
  svc_cache_bound : int;
  svc_elapsed_seconds : float;
  svc_jobs_per_sec : float;
  svc_p50_usec : int;
  svc_p99_usec : int;
  svc_cache_evictions : int;
  svc_residual_match : bool;
}

let service_perf_result : service_perf option ref = ref None

type resilience_perf = {
  res_deadline_spent : int;  (** cycles charged when the mid-run kill fired *)
  res_chaos_jobs : int;
  res_chaos_lost : int;  (** acked jobs missing after kill + recover *)
  res_chaos_match : bool;  (** recovery responses bit-equal to uninterrupted *)
}

let resilience_perf_result : resilience_perf option ref = ref None

type scaling_curve_point = {
  sc_dim : int;
  sc_nodes : int;
  sc_gflops : float;
  sc_efficiency : float;
  sc_comm_fraction : float;
  sc_overlap_ratio : float;
  sc_contention_per_iter : float;
  sc_cycles_per_iter : float;
}

type scaling_perf = {
  sc_n : int;  (** per-node slab side *)
  sc_iters : int;
  sc_points : scaling_curve_point list;  (** asynchronous campaign *)
  sc_sync_cycles_per_iter : float;  (** dim-6 synchronous baseline *)
  sc_async_cycles_per_iter : float;
  sc_exchange_visible_sync : float;  (** visible exchange cycles / iter *)
  sc_exchange_visible_async : float;
  sc_exchange_reduction_pct : float;
  sc_residual_match : bool;  (** async field bit-equal to sync, clean *)
  sc_faulted_residual_match : bool;  (** same under a seeded fault model *)
}

let scaling_perf_result : scaling_perf option ref = ref None

(* JSON has no NaN or infinity: a non-finite value is written as null *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17e" f else "null"

let write_bench_json path =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"experiments\": [\n";
  let exps = List.rev !mflops_results in
  List.iteri
    (fun i (name, mflops) ->
      out "    {\"name\": %S, \"sustained_mflops\": %.3f}%s\n" name mflops
        (if i = List.length exps - 1 then "" else ","))
    exps;
  out "  ]";
  (match !kernel_perf_result with
  | None -> ()
  | Some k ->
      out ",\n  \"kernel\": {\n";
      out "    \"timing_reps\": %d,\n" timing_reps;
      out "    \"kernel_seconds\": %.4f,\n" k.kernel_seconds;
      out "    \"reference_seconds\": %.4f,\n" k.reference_seconds;
      out "    \"faulted_reference_seconds\": %.4f,\n" k.faulted_reference_seconds;
      out "    \"speedup_vs_reference\": %.1f,\n"
        (k.reference_seconds /. k.kernel_seconds);
      out "    \"sweeps\": %d,\n" k.kernel_sweeps;
      out "    \"final_change\": %s,\n" (json_float k.kernel_final_change);
      out "    \"faulted_sweeps\": %d,\n" k.faulted_sweeps;
      out "    \"faulted_final_change\": %s,\n" (json_float k.faulted_final_change);
      out "    \"kernel_compiles\": %d,\n" k.kernel_compiles;
      out "    \"kernel_cache_hits\": %d,\n" k.kernel_cache_hits;
      out "    \"pool_hits\": %d,\n" k.kernel_pool_hits;
      out "    \"pool_misses\": %d,\n" k.kernel_pool_misses;
      out "    \"residual_match\": %b,\n" k.kernel_residual_match;
      out "    \"faulted_residual_match\": %b\n" k.kernel_faulted_match;
      out "  }");
  (match !overhead_perf_result with
  | None -> ()
  | Some o ->
      out ",\n  \"overhead\": {\n";
      out "    \"disabled_seconds\": %.4f,\n" o.ov_disabled_seconds;
      out "    \"gates\": {\n";
      List.iteri
        (fun i g ->
          out "      %S: {\"gate_ns\": %.3f, \"sites\": %d}%s\n" g.g_kind g.g_ns g.g_sites
            (if i = List.length o.ov_gates - 1 then "" else ","))
        o.ov_gates;
      out "    },\n";
      out "    \"sites\": %d,\n"
        (List.fold_left (fun acc g -> acc + g.g_sites) 0 o.ov_gates);
      out "    \"projected_disabled_overhead_pct\": %.4f\n" o.ov_projected_pct;
      out "  }");
  (match !trace_perf_result with
  | None -> ()
  | Some t ->
      out ",\n  \"trace\": {\n";
      out "    \"disabled_seconds\": %.4f,\n" t.trace_disabled_seconds;
      out "    \"enabled_seconds\": %.4f,\n" t.trace_enabled_seconds;
      out "    \"counters\": {\n";
      let nonzero = List.filter (fun (_, v, _) -> v > 0) t.trace_counter_values in
      List.iteri
        (fun i (name, v, _) ->
          out "      %S: %d%s\n" name v (if i = List.length nonzero - 1 then "" else ","))
        nonzero;
      out "    }\n";
      out "  }");
  (match !profile_perf_result with
  | None -> ()
  | Some p ->
      out ",\n  \"profile\": {\n";
      out "    \"sweeps\": %d,\n" p.prof_sweeps;
      out "    \"exec_samples\": %d,\n" p.prof_exec_samples;
      out "    \"p50_exec_cycles\": %d,\n" p.prof_p50_exec;
      out "    \"p99_exec_cycles\": %d,\n" p.prof_p99_exec;
      let h = p.prof_hotspot in
      out
        "    \"top_hotspot\": {\"instr\": %S, \"unit\": %S, \"cycles\": %d, \
         \"mflops\": %.2f, \"peak_pct\": %.2f}\n"
        h.Stats.hs_instr h.Stats.hs_unit h.Stats.hs_share_cycles
        h.Stats.hs_mflops h.Stats.hs_peak_pct;
      out "  }");
  (match !fault_perf_result with
  | None -> ()
  | Some f ->
      out ",\n  \"fault\": {\n";
      out "    \"clean_cycles\": %d,\n" f.fault_clean_cycles;
      out "    \"faulted_cycles\": %d,\n" f.fault_faulted_cycles;
      out "    \"cycle_overhead_pct\": %.4f,\n" f.fault_cycle_overhead_pct;
      out "    \"residual_match\": %b,\n" f.fault_residual_match;
      out "    \"ft_rollbacks\": %d,\n" f.fault_ft_rollbacks;
      out "    \"ft_faults_detected\": %d,\n" f.fault_ft_detected;
      out "    \"ft_sweeps\": %d,\n" f.fault_ft_sweeps;
      out "    \"ledger\": {\n";
      let nonzero = List.filter (fun (_, v) -> v > 0) f.fault_ledger in
      List.iteri
        (fun i (name, v) ->
          out "      %S: %d%s\n" name v (if i = List.length nonzero - 1 then "" else ","))
        nonzero;
      out "    }\n";
      out "  }");
  (match !service_perf_result with
  | None -> ()
  | Some s ->
      out ",\n  \"service\": {\n";
      out "    \"jobs_submitted\": %d,\n" s.svc_submitted;
      out "    \"jobs_completed\": %d,\n" s.svc_completed;
      out "    \"queue_rejections\": %d,\n" s.svc_rejected;
      out "    \"domains\": %d,\n" s.svc_domains;
      out "    \"queue_bound\": %d,\n" s.svc_queue_bound;
      out "    \"cache_bound\": %d,\n" s.svc_cache_bound;
      out "    \"elapsed_seconds\": %.4f,\n" s.svc_elapsed_seconds;
      out "    \"jobs_per_sec\": %.2f,\n" s.svc_jobs_per_sec;
      out "    \"p50_usec\": %d,\n" s.svc_p50_usec;
      out "    \"p99_usec\": %d,\n" s.svc_p99_usec;
      out "    \"cache_evictions\": %d,\n" s.svc_cache_evictions;
      out "    \"residual_match\": %b\n" s.svc_residual_match;
      out "  }");
  (match !resilience_perf_result with
  | None -> ()
  | Some r ->
      out ",\n  \"resilience\": {\n";
      out "    \"deadline_spent_cycles\": %d,\n" r.res_deadline_spent;
      out "    \"chaos_jobs\": %d,\n" r.res_chaos_jobs;
      out "    \"chaos_lost\": %d,\n" r.res_chaos_lost;
      out "    \"chaos_match\": %b\n" r.res_chaos_match;
      out "  }");
  (match !scaling_perf_result with
  | None -> ()
  | Some s ->
      out ",\n  \"scaling\": {\n";
      out "    \"n\": %d,\n" s.sc_n;
      out "    \"iters\": %d,\n" s.sc_iters;
      out "    \"sync_dim6_cycles_per_iter\": %.1f,\n" s.sc_sync_cycles_per_iter;
      out "    \"async_dim6_cycles_per_iter\": %.1f,\n" s.sc_async_cycles_per_iter;
      out "    \"exchange_visible_sync\": %.1f,\n" s.sc_exchange_visible_sync;
      out "    \"exchange_visible_async\": %.1f,\n" s.sc_exchange_visible_async;
      out "    \"exchange_visible_reduction_pct\": %.1f,\n" s.sc_exchange_reduction_pct;
      out "    \"residual_match\": %b,\n" s.sc_residual_match;
      out "    \"faulted_residual_match\": %b,\n" s.sc_faulted_residual_match;
      out "    \"points\": [\n";
      List.iteri
        (fun i p ->
          out
            "      {\"dim\": %d, \"nodes\": %d, \"gflops\": %.3f, \"efficiency\": \
             %.4f, \"comm_fraction\": %.4f, \"overlap_ratio\": %.4f, \
             \"contention_per_iter\": %.1f, \"cycles_per_iter\": %.1f}%s\n"
            p.sc_dim p.sc_nodes p.sc_gflops p.sc_efficiency p.sc_comm_fraction
            p.sc_overlap_ratio p.sc_contention_per_iter p.sc_cycles_per_iter
            (if i = List.length s.sc_points - 1 then "" else ","))
        s.sc_points;
      out "    ]\n";
      out "  }");
  out "\n}\n";
  close_out oc

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
  List.iter
    (fun n ->
      let _, host_iters, o, diff = run_jacobi n in
      let s =
        Stats.summarize params ~cycles:o.Jacobi.stats.Sequencer.total_cycles
          ~flops:o.Jacobi.stats.Sequencer.total_flops
      in
      record_mflops (Printf.sprintf "jacobi_n%d" n) s.Stats.mflops;
      row "%4d  %11d  %10d  %14.2e  %12.1f\n" n host_iters o.Jacobi.sweeps diff s.Stats.mflops)
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
        record_mflops (Printf.sprintf "layout_%s" name) s.Stats.mflops;
        row "%-22s  %6d u-planes  %9.0f cycles/sweep  %6.1f MFLOPS  %5.1f%% util\n" name
          (List.length (Jacobi.u_planes layout))
          per_sweep s.Stats.mflops (100.0 *. s.Stats.utilization)
  in
  measure "distributed (4 copies)" Jacobi.distributed;
  measure "packed (2 copies)" Jacobi.packed;
  row "shape: fewer copies -> plane port contention -> stalls every element\n"

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
    record_mflops name s.Stats.mflops;
    row "%-30s %9d flops %9d cycles  %7.1f MFLOPS  %5.1f%% of peak\n" name flops cycles
      s.Stats.mflops (100.0 *. s.Stats.utilization)
  in
  bench "vecadd (1 flop/elem)"
    (run_lang "array a[4096] plane 0\narray b[4096] plane 1\narray z[4096] plane 2\nz = a + b");
  (let prob = Poisson.manufactured 9 in
   match Jacobi.solve kb prob ~tol:1e-6 ~max_iters:300 with
   | Ok o ->
       bench "Jacobi solve loop (11 fl/el)"
         (o.Jacobi.stats.Sequencer.total_flops, o.Jacobi.stats.Sequencer.total_cycles)
   | Error e -> failwith e);
  bench "saturation expression" (run_lang saturation_src);
  row "shape: utilization rises with flops/element; fill, refresh copies and\n";
  row "reconfiguration keep sustained rates well under peak, as expected\n"

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
let write_scaling_svg path (points : scaling_curve_point list) =
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
        (h - bottom + 18) p.sc_nodes)
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
  series "#2563eb" (fun p -> p.sc_efficiency);
  series "#dc2626" (fun p -> p.sc_comm_fraction);
  series "#16a34a" (fun p -> p.sc_overlap_ratio);
  (* sustained GFLOPS annotated above the efficiency curve *)
  List.iteri
    (fun i p ->
      out
        "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\" font-size=\"10\" \
         fill=\"#2563eb\">%.1f</text>\n"
        (x i)
        (y p.sc_efficiency - 8)
        p.sc_gflops)
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
  let points =
    List.map2
      (fun dim (pt : Parallel.point) ->
        row "%6d  %8.3f  %10.1f%%  %7.1f%%  %8.1f%%  %11.0f\n" pt.Parallel.nodes
          pt.Parallel.gflops
          (100.0 *. pt.Parallel.efficiency)
          (100.0 *. pt.Parallel.comm_fraction)
          (100.0 *. pt.Parallel.overlap_ratio)
          pt.Parallel.cycles_per_iter;
        {
          sc_dim = dim;
          sc_nodes = pt.Parallel.nodes;
          sc_gflops = pt.Parallel.gflops;
          sc_efficiency = pt.Parallel.efficiency;
          sc_comm_fraction = pt.Parallel.comm_fraction;
          sc_overlap_ratio = pt.Parallel.overlap_ratio;
          sc_contention_per_iter = pt.Parallel.contention_per_iter;
          sc_cycles_per_iter = pt.Parallel.cycles_per_iter;
        })
      dims campaign
  in
  let last = List.nth points (List.length points - 1) in
  row
    "at %d nodes the machine sustains %.1f GFLOPS at %.1f%% efficiency with \
     %.1f%% of exchange cycles hidden\n"
    last.sc_nodes last.sc_gflops
    (100.0 *. last.sc_efficiency)
    (100.0 *. last.sc_overlap_ratio);
  (try
     write_scaling_svg "figures/fig12-scaling.svg" points;
     row "figure written: figures/fig12-scaling.svg\n"
   with Sys_error e -> row "figure skipped (%s)\n" e);
  scaling_perf_result :=
    Some
      {
        sc_n = n;
        sc_iters = iters;
        sc_points = points;
        sc_sync_cycles_per_iter = sync6.Parallel.cycles_per_iter;
        sc_async_cycles_per_iter = async6.Parallel.cycles_per_iter;
        sc_exchange_visible_sync = vis_sync;
        sc_exchange_visible_async = vis_async;
        sc_exchange_reduction_pct = reduction_pct;
        sc_residual_match = residual_match;
        sc_faulted_residual_match = faulted_match;
      }

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
(* PERF: host wall-clock of the simulator itself                       *)
(* ------------------------------------------------------------------ *)

let perf_engine () =
  section "PERF" "simulator host time: the fused kernel vs. the reference evaluator";
  let prob = Poisson.manufactured 9 in
  let tol = 1e-6 and max_iters = 4000 in
  let b = Jacobi.build kb prob.Poisson.grid ~tol ~max_iters in
  let compiled =
    match Nsc_microcode.Codegen.compile kb b.Jacobi.program with
    | Error _ -> failwith "PERF: codegen failed"
    | Ok c -> c
  in
  let sweeps_of (o : Sequencer.outcome) =
    (o.Sequencer.stats.Sequencer.instructions_executed - 1) / 2
  in
  let change_of (o : Sequencer.outcome) =
    Option.value ~default:Float.nan
      (List.assoc_opt b.Jacobi.residual_unit o.Sequencer.last_values)
  in
  let run_once ?(run = Run.make ()) engine =
    let node = Node.create params in
    Jacobi.load node b prob;
    let t0 = Unix.gettimeofday () in
    match Sequencer.run node ~engine ~run compiled with
    | Error e -> failwith ("PERF: " ^ e)
    | Ok o -> (Unix.gettimeofday () -. t0, o)
  in
  (* the kernel: the warm-up pays every plan/kernel compile into a shared
     cache, then best-of-[timing_reps] with a fresh node reloaded outside
     each timed window, so the repetitions measure execution and must not
     allocate a single pool buffer *)
  let compiles0 = Kernel.compile_count () and khits0 = Kernel.cache_hit_count () in
  let run = Run.make () in
  let _, kernel_o = run_once ~run `Kernel in
  let hits0 = Kernel.pool_hit_count () and misses0 = Kernel.pool_miss_count () in
  let kernel_seconds = ref infinity in
  for _ = 1 to timing_reps do
    let dt, o = run_once ~run `Kernel in
    if sweeps_of o <> sweeps_of kernel_o || change_of o <> change_of kernel_o then
      failwith "PERF: a timing repetition diverged from its warm-up run";
    if dt < !kernel_seconds then kernel_seconds := dt
  done;
  let kernel_seconds = !kernel_seconds in
  let kcompiles = Kernel.compile_count () - compiles0
  and khits = Kernel.cache_hit_count () - khits0
  and kpool_hits = Kernel.pool_hit_count () - hits0
  and kpool_misses = Kernel.pool_miss_count () - misses0 in
  (* the oracle: one run, a few seconds *)
  let reference_seconds, reference_o = run_once `Reference in
  (* bit equality on the residual: a faulted run can legitimately end on
     NaN, which [=] would call unequal to itself *)
  let agrees a b =
    sweeps_of a = sweeps_of b
    && Int64.bits_of_float (change_of a) = Int64.bits_of_float (change_of b)
  in
  let residual_match = agrees kernel_o reference_o in
  if not residual_match then failwith "PERF: kernel and reference engines disagree";
  (* the same two paths under a seeded fault model: faults draw from one
     deterministic stream and both paths corrupt the victim's latch the
     same way, so a fresh same-seed model must yield one bit-identical
     outcome whichever engine executes it *)
  let faulted engine =
    let module F = Nsc_fault.Fault in
    let spec =
      match F.parse "fu-fault:p=0.02" with
      | Ok s -> s
      | Error e -> failwith ("PERF: " ^ e)
    in
    run_once ~run:(Run.make ~fault:(F.make ~seed:1234 spec) ()) engine
  in
  let _, f_kernel = faulted `Kernel in
  let faulted_reference_seconds, f_reference = faulted `Reference in
  let faulted_match = agrees f_kernel f_reference in
  if not faulted_match then
    failwith "PERF: kernel and reference engines disagree under a seeded fault model";
  let speedup = reference_seconds /. kernel_seconds in
  row "repeated-sweep Jacobi, n=9, tol 1e-6 (%d sweeps, final change %.3e):\n"
    (sweeps_of kernel_o) (change_of kernel_o);
  row "  fused kernel, caches shared, best of %d : %8.4f s host time\n" timing_reps
    kernel_seconds;
  row "  reference evaluator, one run          : %8.3f s host time\n" reference_seconds;
  row "  reference under seeded FU faults      : %8.3f s host time (%d sweeps)\n"
    faulted_reference_seconds (sweeps_of f_reference);
  row "  kernel over reference                 : %8.0fx\n" speedup;
  row "  kernel compiles / hits                : %d / %d\n" kcompiles khits;
  row "  buffer pool hits / misses (timed)     : %d / %d\n" kpool_hits kpool_misses;
  row "  residual bits match                   : clean %b, seeded faults %b\n"
    residual_match faulted_match;
  row "shape: three compiles serve the whole solve; the kernel gathers each\n";
  row "stream once, runs opcode-specialised fused loops over pooled buffers\n";
  row "and elides pass-through copies entirely\n";
  if speedup < 100.0 then
    failwith
      (Printf.sprintf "PERF: the kernel is only %.0fx over the reference (need >= 100x)"
         speedup);
  if kcompiles <> 3 then
    failwith (Printf.sprintf "PERF: %d kernel compiles on the warm solve (expected 3)" kcompiles);
  if kpool_misses <> 0 then
    failwith (Printf.sprintf "PERF: %d pool misses on the warm solve" kpool_misses);
  kernel_perf_result :=
    Some
      {
        kernel_seconds;
        reference_seconds;
        faulted_reference_seconds;
        kernel_sweeps = sweeps_of kernel_o;
        kernel_final_change = change_of kernel_o;
        faulted_sweeps = sweeps_of f_kernel;
        faulted_final_change = change_of f_kernel;
        kernel_compiles = kcompiles;
        kernel_cache_hits = khits;
        kernel_pool_hits = kpool_hits;
        kernel_pool_misses = kpool_misses;
        kernel_residual_match = residual_match;
        kernel_faulted_match = faulted_match;
      }

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
  let module F = Nsc_fault.Fault in
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
  let gates =
    [ { g_kind = "counter_bump"; g_ns = bump_ns; g_sites = Metrics.total_bumps ctx };
      (* every recorded or dropped span/instant and every histogram or
         attribution observation sits behind a [Metrics.tracing] gate *)
      { g_kind = "trace_gate";
        g_ns = trace_ns;
        g_sites =
          Metrics.total_observations ctx + List.length (Metrics.events ctx)
          + Metrics.dropped ctx };
      (* the engine consults the model twice per instruction (FU draw,
         stream overhead) *)
      { g_kind = "fault_consult"; g_ns = fault_ns; g_sites = 2 * instructions };
      (* boundary checks and element-block polls, plus one charge per
         dispatched instruction *)
      { g_kind = "budget_poll"; g_ns = budget_ns; g_sites = Budget.polls budget + instructions } ]
  in
  let projected_pct =
    List.fold_left (fun acc g -> acc +. (float_of_int g.g_sites *. g.g_ns)) 0.0 gates
    /. (disabled_seconds *. 1e9) *. 100.0
  in
  row "repeated-sweep Jacobi, n=9, tol 1e-6 (%d sweeps):\n" clean.Jacobi.sweeps;
  row "  disabled solve, best of 3   : %8.4f s host time\n" disabled_seconds;
  row "  %-14s %10s %12s\n" "gate" "ns/gate" "sites";
  List.iter (fun g -> row "  %-14s %10.2f %12d\n" g.g_kind g.g_ns g.g_sites) gates;
  row "  projected disabled overhead : %8.4f %% of the disabled solve\n" projected_pct;
  if projected_pct >= 2.0 then
    failwith
      (Printf.sprintf "OVERHEAD: disabled-path projection %.3f%% breaches the 2%% budget"
         projected_pct);
  overhead_perf_result :=
    Some { ov_disabled_seconds = disabled_seconds; ov_gates = gates; ov_projected_pct = projected_pct }

(* ------------------------------------------------------------------ *)
(* TRACE: the counters of one traced solve                             *)
(* ------------------------------------------------------------------ *)

(* The same n=9 solve with tracing off and on, in its own metric
   context: tracing must not change a bit of the computation, and the
   context's counters are the run's digest. *)
let trace_counters () =
  section "TRACE" "run counters of one traced solve (n=9 Jacobi)";
  let prob = Poisson.manufactured 9 in
  let solve () =
    match Jacobi.solve kb prob ~tol:1e-6 ~max_iters:4000 with
    | Error e -> failwith e
    | Ok o -> o
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let ctx = Metrics.create ~label:"bench-trace" () in
  let disabled_seconds, o_off = time solve in
  Metrics.enable ctx;
  let enabled_seconds, o_on = time (fun () -> Metrics.with_ctx ctx solve) in
  Metrics.disable ctx;
  if
    o_off.Jacobi.sweeps <> o_on.Jacobi.sweeps
    || o_off.Jacobi.final_change <> o_on.Jacobi.final_change
  then failwith "TRACE: tracing changed the computation";
  let counters =
    List.map
      (fun c -> (Metrics.counter_name c, Metrics.value ctx c, Metrics.counter_units c))
      (Metrics.registered_counters ())
  in
  row "repeated-sweep Jacobi, n=9, tol 1e-6 (%d sweeps):\n" o_on.Jacobi.sweeps;
  row "  tracing disabled           : %8.3f s host time\n" disabled_seconds;
  row "  tracing enabled            : %8.3f s host time\n" enabled_seconds;
  row "  non-zero counters after the enabled solve:\n";
  List.iter
    (fun (name, v, units) -> if v > 0 then row "    %-28s %12d %s\n" name v units)
    counters;
  trace_perf_result :=
    Some
      {
        trace_disabled_seconds = disabled_seconds;
        trace_enabled_seconds = enabled_seconds;
        trace_counter_values = counters;
      }

(* ------------------------------------------------------------------ *)
(* PROFILE: the hotspot view in a scoped metric context                *)
(* ------------------------------------------------------------------ *)

(* Same n=9 solve, isolated in its own metric context — nothing touches
   the default context — and read back through the profile layer:
   exec-latency percentiles and the per-unit hotspot table. *)
let profile_hotspots () =
  section "PROFILE" "hotspot profile in a scoped metric context (n=9 Jacobi)";
  let prob = Poisson.manufactured 9 in
  let solve () =
    match Jacobi.solve kb prob ~tol:1e-6 ~max_iters:4000 with
    | Error e -> failwith e
    | Ok o -> o
  in
  let ctx = Metrics.create ~label:"bench-profile" () in
  Metrics.enable ctx;
  let o = Metrics.with_ctx ctx solve in
  Metrics.disable ctx;
  let exec =
    match Metrics.find_histogram "hist.exec_cycles" with
    | Some h -> Metrics.hist_summary ctx h
    | None -> failwith "PROFILE: hist.exec_cycles is not registered"
  in
  let top =
    match Stats.hotspots params ctx with
    | [] -> failwith "PROFILE: no cycles attributed to any unit"
    | h :: _ -> h
  in
  row "repeated-sweep Jacobi, n=9, tol 1e-6 (%d sweeps), context \"bench-profile\":\n"
    o.Jacobi.sweeps;
  row "  exec latency               : p50 %d / p99 %d cycles over %d instruction(s)\n"
    exec.Metrics.p50 exec.Metrics.p99 exec.Metrics.hcount;
  row "  top hotspot                : %s %s — %d cycles, %.1f MFLOPS (%.1f%% of peak)\n"
    top.Stats.hs_instr top.Stats.hs_unit top.Stats.hs_share_cycles
    top.Stats.hs_mflops top.Stats.hs_peak_pct;
  row "  default context            : untouched (%d bumps)\n"
    (Metrics.total_bumps Metrics.default);
  if exec.Metrics.hcount = 0 then failwith "PROFILE: no exec-latency samples";
  profile_perf_result :=
    Some
      {
        prof_sweeps = o.Jacobi.sweeps;
        prof_exec_samples = exec.Metrics.hcount;
        prof_p50_exec = exec.Metrics.p50;
        prof_p99_exec = exec.Metrics.p99;
        prof_hotspot = top;
      }

(* ------------------------------------------------------------------ *)
(* FAULT: seeded fault injection, recovery and the zero-fault budget   *)
(* ------------------------------------------------------------------ *)

(* A claim from the fault layer, plus a recovery demonstration (the
   zero-fault cost of the injection sites is in OVERHEAD):

   1. Under seed-42 transient link faults (p=0.01) the n=9 Jacobi solve
      reaches the *same* final residual as the clean run — transients
      cost retry/backoff cycles, never answers — and every injected
      fault is booked recovered.
   2. solve_ft under memory corruption detects via parity scrub, rolls
      back to the sweep checkpoint, and still converges. *)
let fault_injection () =
  section "FAULT" "fault injection: recovery and determinism";
  let module F = Nsc_fault.Fault in
  let prob = Poisson.manufactured 9 in
  let tol = 1e-6 and max_iters = 4000 in
  let solve ?fault () =
    match Jacobi.solve kb ~run:(Run.make ?fault ()) prob ~tol ~max_iters with
    | Error e -> failwith e
    | Ok o -> o
  in
  let clean = solve () in
  let clean_cycles = clean.Jacobi.stats.Sequencer.total_cycles in
  let spec =
    match F.parse "transient-link:p=0.01" with
    | Ok s -> s
    | Error e -> failwith ("FAULT: " ^ e)
  in
  let fault = F.make ~seed:42 spec in
  let faulted = solve ~fault () in
  let outstanding = F.settle fault in
  let ledger = F.ledger fault in
  let faulted_cycles = faulted.Jacobi.stats.Sequencer.total_cycles in
  let overhead_pct =
    100.0 *. float_of_int (faulted_cycles - clean_cycles) /. float_of_int clean_cycles
  in
  let residual_match =
    faulted.Jacobi.final_change = clean.Jacobi.final_change
    && faulted.Jacobi.sweeps = clean.Jacobi.sweeps
  in
  let lv name = Option.value ~default:0 (List.assoc_opt name ledger) in
  row "repeated-sweep Jacobi, n=9, tol 1e-6 (%d sweeps):\n" clean.Jacobi.sweeps;
  row "  clean simulated cycles      : %8d\n" clean_cycles;
  row "  seed-42 transient-link run  : %8d cycles (%+.3f%%), residual %s\n"
    faulted_cycles overhead_pct
    (if residual_match then "identical" else "DIVERGED");
  row "  injected / recovered        : %8d / %d (unrecovered %d)\n"
    (lv "fault.injected") (lv "fault.recovered") (lv "fault.unrecovered");
  if not residual_match then
    failwith "FAULT: transient link faults changed the computed answer";
  if outstanding > 0 || lv "fault.unrecovered" > 0 then
    failwith "FAULT: transient link faults left unrecovered entries";
  if lv "fault.injected" <> lv "fault.recovered" + lv "fault.unrecovered" then
    failwith "FAULT: ledger does not balance";
  (* checkpointed recovery under memory corruption *)
  let ft_spec =
    match F.parse "mem-corrupt:p=0.2" with
    | Ok s -> s
    | Error e -> failwith ("FAULT: " ^ e)
  in
  let ft_fault = F.make ~seed:7 ft_spec in
  let ft =
    match Jacobi.solve_ft kb ~run:(Run.make ~fault:ft_fault ()) prob ~tol ~max_iters with
    | Error e -> failwith ("FAULT solve_ft: " ^ e)
    | Ok ft -> ft
  in
  let ft_outstanding = F.settle ft_fault in
  let ft_ledger = F.ledger ft_fault in
  let flv name = Option.value ~default:0 (List.assoc_opt name ft_ledger) in
  row "  solve_ft under mem-corrupt p=0.2 (seed 7):\n";
  row "    sweeps / rollbacks        : %8d / %d\n"
    ft.Jacobi.outcome.Jacobi.sweeps ft.Jacobi.rollbacks;
  row "    faults detected           : %8d (injected %d, recovered %d)\n"
    ft.Jacobi.faults_detected (flv "fault.injected") (flv "fault.recovered");
  row "    final change              : %12.3e (tol %.0e)\n"
    ft.Jacobi.outcome.Jacobi.final_change tol;
  if ft_outstanding > 0 || flv "fault.unrecovered" > 0 then
    failwith "FAULT: solve_ft left unrecovered entries";
  if ft.Jacobi.outcome.Jacobi.final_change > tol then
    failwith "FAULT: solve_ft failed to converge under memory corruption";
  fault_perf_result :=
    Some
      {
        fault_clean_cycles = clean_cycles;
        fault_faulted_cycles = faulted_cycles;
        fault_cycle_overhead_pct = overhead_pct;
        fault_residual_match = residual_match;
        fault_ledger = ledger;
        fault_ft_rollbacks = ft.Jacobi.rollbacks;
        fault_ft_detected = ft.Jacobi.faults_detected;
        fault_ft_sweeps = ft.Jacobi.outcome.Jacobi.sweeps;
      }

(* ------------------------------------------------------------------ *)
(* SERVICE: the serve daemon under a 1000-job burst                    *)
(* ------------------------------------------------------------------ *)

(* The daemon is driven in-process through [Serve.handle_line] — the same
   entry point the stdin/socket front-ends use — so the measured path is
   admission, wave dispatch across the domain pool, per-job metric
   contexts and the shared bounded caches, without pipe noise.

   The burst never interleaves [drain] requests, so admission control is
   exercised for real: every 65th submit finds the 64-slot queue full,
   is rejected, and triggers the dispatch of the queued wave.  The job
   mix alternates two problem sizes over a cache bound smaller than the
   mix's plan footprint (2 sizes x 3 plans > 4), so LRU eviction is
   exercised too.  Every ok response must carry exactly the sweeps and
   residual of a direct [Jacobi.solve] of the same problem. *)
let perf_service () =
  section "SERVICE" "serve daemon: jobs/sec and latency under a 1100-job burst";
  let module Serve = Nsc_serve.Serve in
  let module Json = Nsc_metrics.Json in
  let domains = 4 and queue_bound = 64 and cache_bound = 4 in
  let total_jobs = 1100 in
  let tol = 1e-4 and max_iters = 400 in
  let size i = if i mod 5 = 4 then 7 else 5 in
  let reference n =
    match Jacobi.solve kb (Poisson.manufactured n) ~tol ~max_iters with
    | Error e -> failwith ("SERVICE reference solve: " ^ e)
    | Ok o -> (o.Jacobi.sweeps, o.Jacobi.final_change)
  in
  let ref5 = reference 5 and ref7 = reference 7 in
  let config =
    { Serve.default_config with domains; queue_bound; cache_bound }
  in
  let t = Serve.create ~config () in
  let submit_line i =
    Printf.sprintf
      "{\"op\":\"submit\",\"id\":\"job-%04d\",\"workload\":{\"kind\":\"jacobi\",\
       \"n\":%d,\"tol\":%g,\"max_iters\":%d}}"
      i (size i) tol max_iters
  in
  let responses = ref [] in
  let t0 = Unix.gettimeofday () in
  for i = 0 to total_jobs - 1 do
    responses := List.rev_append (Serve.handle_line t (submit_line i)) !responses
  done;
  responses := List.rev_append (Serve.drain t) !responses;
  let elapsed = Unix.gettimeofday () -. t0 in
  let responses = List.rev !responses in
  (* audit every response against the reference solves *)
  let ok_count = ref 0 and rejected = ref 0 and mismatches = ref 0 in
  List.iter
    (fun line ->
      let obj = match Json.parse line with Ok o -> o | Error e -> failwith e in
      let str name = Option.bind (Json.member name obj) Json.to_str in
      let num name = Option.bind (Json.member name obj) Json.to_num in
      match str "status" with
      | Some "ok" ->
          incr ok_count;
          let n = int_of_float (Option.get (num "n")) in
          let sweeps = int_of_float (Option.get (num "sweeps")) in
          let residual = Option.get (num "residual") in
          let want = if n = 5 then ref5 else ref7 in
          if (sweeps, residual) <> want then incr mismatches
      | Some "rejected" -> incr rejected
      | Some s -> failwith (Printf.sprintf "SERVICE: unexpected response status %S" s)
      | None -> ())
    responses;
  let summary =
    let line = Serve.summary_response t in
    match Json.parse line with
    | Ok o -> Option.get (Json.member "summary" o)
    | Error e -> failwith ("SERVICE summary: " ^ e)
  in
  let sv name =
    match Option.bind (Json.member name summary) Json.to_num with
    | Some x -> int_of_float x
    | None -> failwith ("SERVICE summary lacks " ^ name)
  in
  let completed = sv "completed" and failed = sv "failed" in
  let p50 = sv "p50_usec" and p99 = sv "p99_usec" in
  let evictions = sv "cache_evictions" in
  let jobs_per_sec = float_of_int completed /. elapsed in
  let residual_match = !mismatches = 0 in
  row "burst of %d submits (no client-side drains), %d domains:\n" total_jobs domains;
  row "  queue bound / cache bound   : %8d / %d\n" queue_bound cache_bound;
  row "  completed / rejected        : %8d / %d (failed %d)\n" completed !rejected failed;
  row "  elapsed                     : %8.3f s (%.0f jobs/s)\n" elapsed jobs_per_sec;
  row "  latency p50 / p99           : %8d / %d usec\n" p50 p99;
  row "  shared-cache LRU evictions  : %8d\n" evictions;
  row "  responses match direct solve: %8s\n" (if residual_match then "yes" else "NO");
  if completed < 1000 then
    failwith (Printf.sprintf "SERVICE: only %d jobs completed (need >= 1000)" completed);
  if completed <> !ok_count then
    failwith "SERVICE: summary completed count disagrees with ok responses";
  if failed > 0 then failwith "SERVICE: jobs failed";
  if !rejected < 1 || sv "rejected" <> !rejected then
    failwith "SERVICE: admission control produced no queue-full rejection";
  if evictions < 1 then
    failwith "SERVICE: bounded caches never evicted under the mixed job sizes";
  if not residual_match then
    failwith "SERVICE: a served response diverged from the direct solve";
  service_perf_result :=
    Some
      {
        svc_submitted = sv "submitted";
        svc_completed = completed;
        svc_rejected = !rejected;
        svc_domains = domains;
        svc_queue_bound = queue_bound;
        svc_cache_bound = cache_bound;
        svc_elapsed_seconds = elapsed;
        svc_jobs_per_sec = jobs_per_sec;
        svc_p50_usec = p50;
        svc_p99_usec = p99;
        svc_cache_evictions = evictions;
        svc_residual_match = residual_match;
      }

(* ------------------------------------------------------------------ *)
(* RESILIENCE: the deadline kill and the chaos scenario               *)
(* ------------------------------------------------------------------ *)

(* The supervision layer (lib/guard, docs/RESILIENCE.md): the disabled
   cost of its boundary checks is in OVERHEAD.  A mid-run cycle deadline
   must kill the n=9 solve cooperatively and leave the pool serviceable.
   The section then re-runs the chaos harness's kill-mid-wave scenario
   in-process: a
   journalled burst abandoned after acknowledgement must recover with
   zero acked-job loss and responses bit-identical to an uninterrupted
   run (host-only fields aside: wall-clock latency and the
   process-global buffer-pool warmth split). *)
let perf_resilience () =
  section "RESILIENCE" "guard layer: deadline kill, chaos recovery";
  let module Guard = Nsc_guard.Guard in
  let module Serve = Nsc_serve.Serve in
  let module Json = Nsc_metrics.Json in
  let prob = Poisson.manufactured 9 in
  let tol = 1e-6 and max_iters = 4000 in
  let solve () =
    match Jacobi.solve kb prob ~tol ~max_iters with
    | Error e -> failwith ("RESILIENCE: " ^ e)
    | Ok o -> o
  in
  let clean = solve () in
  let clean_cycles = clean.Jacobi.stats.Sequencer.total_cycles in
  (* a mid-run deadline must kill cooperatively and leave the node pool
     serviceable: the next unbudgeted solve reproduces the clean run *)
  let killer = Guard.Budget.create ~deadline_cycles:(clean_cycles / 2) () in
  let deadline_spent =
    match Jacobi.solve kb ~run:(Run.make ~budget:killer ()) prob ~tol ~max_iters with
    | exception Guard.Budget.Deadline_exceeded { spent_cycles; _ } -> spent_cycles
    | Ok _ | Error _ -> failwith "RESILIENCE: mid-run deadline never fired"
  in
  let after = solve () in
  if
    after.Jacobi.sweeps <> clean.Jacobi.sweeps
    || after.Jacobi.final_change <> clean.Jacobi.final_change
  then failwith "RESILIENCE: a deadline kill perturbed the following solve";
  (* chaos scenario 1, in-process: kill a journalled daemon mid-wave,
     recover, and diff against an uninterrupted twin.  Host-only fields
     are stripped before the comparison: wall-clock latency, and the
     buffer-pool warmth counters (the pool is process-global state, so
     its hit/miss split legitimately differs across daemon instances). *)
  let strip line =
    match Json.parse line with
    | Ok (Json.Obj fields) ->
        Json.to_string
          (Json.Obj
             (List.filter_map
                (fun (k, v) ->
                  match (k, v) with
                  | "latency_usec", _ -> None
                  | "counters", Json.Obj cs ->
                      Some
                        ( k,
                          Json.Obj
                            (List.filter
                               (fun (ck, _) ->
                                 ck <> "kernel.pool_hits"
                                 && ck <> "kernel.pool_misses")
                               cs) )
                  | _ -> Some (k, v))
                fields))
    | Ok _ | Error _ -> line
  in
  let chaos_jobs = 6 in
  let lines =
    List.init chaos_jobs (fun i ->
        Printf.sprintf
          "{\"op\":\"submit\",\"id\":\"chaos-%02d\",\"workload\":{\"kind\":\
           \"jacobi\",\"n\":%d,\"tol\":1e-4,\"max_iters\":400}}"
          i (if i mod 2 = 0 then 5 else 7))
  in
  let journal = Filename.temp_file "bench-chaos" ".journal" in
  Sys.remove journal;
  let jconfig = { Serve.default_config with journal = Some journal } in
  (* the doomed daemon: acks every submit, then is abandoned mid-wave *)
  let doomed = Serve.create ~config:jconfig () in
  List.iter (fun l -> ignore (Serve.handle_line doomed l)) lines;
  (* the recovered daemon replays the journal's unfinished suffix *)
  let recovered = Serve.create ~config:jconfig () in
  ignore (Serve.recover recovered);
  let replayed = List.map strip (Serve.drain recovered) in
  (* the uninterrupted twin *)
  let twin = Serve.create ~config:Serve.default_config () in
  List.iter (fun l -> ignore (Serve.handle_line twin l)) lines;
  let straight = List.map strip (Serve.drain twin) in
  let chaos_lost = chaos_jobs - List.length replayed in
  let chaos_match =
    List.length replayed = List.length straight
    && List.for_all2 String.equal replayed straight
  in
  let pending_after = List.length (Guard.Journal.load ~path:journal) in
  Sys.remove journal;
  row "n=9 Jacobi, tol 1e-6 (%d sweeps):\n" clean.Jacobi.sweeps;
  row "  mid-run deadline kill       : %8d of %d cycles spent, pool live\n"
    deadline_spent clean_cycles;
  row "chaos: kill mid-wave + recover (%d journalled jobs):\n" chaos_jobs;
  row "  acked jobs lost             : %8d\n" chaos_lost;
  row "  replay vs uninterrupted     : %8s\n"
    (if chaos_match then "bit-identical" else "DIVERGED");
  row "  journal pending after wave  : %8d\n" pending_after;
  if chaos_lost <> 0 then
    failwith (Printf.sprintf "RESILIENCE: %d acked jobs lost" chaos_lost);
  if not chaos_match then
    failwith "RESILIENCE: recovery responses diverged from the uninterrupted run";
  if pending_after <> 0 then
    failwith "RESILIENCE: the journal ledger did not balance after recovery";
  resilience_perf_result :=
    Some
      {
        res_deadline_spent = deadline_spent;
        res_chaos_jobs = chaos_jobs;
        res_chaos_lost = chaos_lost;
        res_chaos_match = chaos_match;
      }

(* ------------------------------------------------------------------ *)
(* Tool-chain microbenchmarks (Bechamel)                               *)
(* ------------------------------------------------------------------ *)

let vecadd_program () =
  let prog = Program.empty "vecadd" in
  let prog =
    List.fold_left
      (fun prog (name, plane) ->
        Result.get_ok (Program.declare prog { Program.name; plane; base = 0; length = 4096 }))
      prog
      [ ("x", 0); ("y", 1); ("z", 2) ]
  in
  let prog, _ = Program.append_pipeline prog in
  let pl = Option.get (Program.find_pipeline prog 1) in
  let pl = Pipeline.with_vector_length pl 4096 in
  let icon, pl =
    Build.fail_on_error
      (Pipeline.place_als params pl ~kind:Als.Singlet ~pos:(Geometry.point 30 8) ())
  in
  let pl = Build.mem_to_pad pl ~plane:0 ~var:"x" ~offset:0 ~icon ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Build.mem_to_pad pl ~plane:1 ~var:"y" ~offset:0 ~icon ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = Build.pad_to_mem pl ~icon ~pad:(Icon.Out_pad 0) ~plane:2 ~var:"z" ~offset:0 () in
  let pl =
    Pipeline.set_config pl ~id:icon ~slot:0
      (Fu_config.make ~a:Fu_config.From_switch ~b:Fu_config.From_switch Opcode.Fadd)
  in
  Program.update_pipeline prog pl

let toolchain_benchmarks () =
  section "TOOL" "host-side tool-chain throughput (Bechamel, ns per operation)";
  let open Bechamel in
  let prog = vecadd_program () in
  let vec_pl = Option.get (Program.find_pipeline prog 1) in
  let jacobi_build = Jacobi.build kb (Grid.cube 9) ~tol:1e-6 ~max_iters:10 in
  let jacobi_sweep = Option.get (Program.find_pipeline jacobi_build.Jacobi.program 2) in
  let lookup = Program.variable_base jacobi_build.Jacobi.program in
  let layout = Nsc_microcode.Fields.make params in
  let sweep_sem, _ = Semantic.of_pipeline params ~lookup jacobi_sweep in
  let sweep_instr =
    match Nsc_microcode.Encode.encode layout sweep_sem with
    | Ok i -> i
    | Error e -> failwith e
  in
  let lang_src =
    "array u[64] plane 0\narray g[64] plane 1\narray mask[64] plane 2\narray unew[64] \
     plane 3\nunew = mask * ((u[-1] + u[+1] - g) * 0.5)"
  in
  let node = Node.create params in
  Node.load_array node ~plane:0 ~base:0 (Array.make 4096 1.5);
  Node.load_array node ~plane:1 ~base:0 (Array.make 4096 2.5);
  let vec_sem, _ = Semantic.of_pipeline params ~lookup:(Program.variable_base prog) vec_pl in
  let jacobi_text = Serialize.to_string jacobi_build.Jacobi.program in
  let editor_state =
    Nsc_editor.State.of_program kb jacobi_build.Jacobi.program
  in
  let pad_pos =
    Nsc_editor.Layout.of_drawing (Geometry.point 1 1)
  in
  let tests =
    [
      Test.make ~name:"checker interactive (vecadd)"
        (Staged.stage (fun () ->
             ignore (Nsc_checker.Checker.check_pipeline kb ~level:`Interactive vec_pl)));
      Test.make ~name:"checker complete (Jacobi sweep)"
        (Staged.stage (fun () ->
             ignore
               (Nsc_checker.Checker.check_pipeline kb ~lookup ~level:`Complete jacobi_sweep)));
      Test.make ~name:"semantic projection (Jacobi sweep)"
        (Staged.stage (fun () -> ignore (Semantic.of_pipeline params ~lookup jacobi_sweep)));
      Test.make ~name:"timing analysis (Jacobi sweep)"
        (Staged.stage (fun () -> ignore (Nsc_checker.Timing.analyse params sweep_sem)));
      Test.make ~name:"microcode encode (Jacobi sweep)"
        (Staged.stage (fun () -> ignore (Nsc_microcode.Encode.encode layout sweep_sem)));
      Test.make ~name:"microcode decode (Jacobi sweep)"
        (Staged.stage (fun () ->
             ignore
               (Nsc_microcode.Decode.decode layout sweep_instr.Nsc_microcode.Encode.word)));
      Test.make ~name:"language compile (1-D Jacobi stmt)"
        (Staged.stage (fun () -> ignore (Nsc_lang.Compile.compile kb lang_src)));
      Test.make ~name:"serialize+parse (Jacobi program)"
        (Staged.stage (fun () -> ignore (Serialize.of_string params jacobi_text)));
      Test.make ~name:"editor event (mouse move)"
        (Staged.stage (fun () ->
             ignore (Nsc_editor.Editor.handle editor_state (Nsc_editor.Event.Mouse_move pad_pos))));
      Test.make ~name:"engine run (4096-elem vecadd)"
        (Staged.stage (fun () -> ignore (Engine.run node vec_sem)));
      Test.make ~name:"window render (ASCII)"
        (Staged.stage (fun () -> ignore (Nsc_editor.Render_ascii.render editor_state)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"toolchain" tests) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] -> row "  %-44s %14.0f ns/op\n" name est
      | Some _ | None -> row "  %-44s (no estimate)\n" name)
    (List.sort compare rows)

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
  fig2_jacobi ();
  c2_contention ();
  c3_node_rate ();
  c4_scaling ~domains ();
  scaling_campaign ~domains ();
  c5_microcode ();
  c6_authoring ();
  c7_checker ();
  c8_debugger ();
  c9_subset ();
  c11_multigrid ();
  a1_reconfig ();
  a2_sor ();
  perf_engine ();
  overhead ();
  trace_counters ();
  profile_hotspots ();
  fault_injection ();
  perf_service ();
  perf_resilience ();
  toolchain_benchmarks ();
  write_bench_json "BENCH_sim.json";
  Printf.printf "\nall experiments completed in %.1f s (BENCH_sim.json written)\n"
    (Unix.gettimeofday () -. t0)
