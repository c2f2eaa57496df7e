(** Performance accounting: cycles to time, sustained versus peak rates.

    The paper's headline figures — 640 MFLOPS peak per node, 40 GFLOPS for
    a 64-node machine — are derived in {!Nsc_arch.Params}; this module turns
    simulated cycle/flop counts into comparable sustained numbers. *)

open Nsc_arch

(** Seconds of machine time represented by [cycles]. *)
let seconds (p : Params.t) ~cycles = float_of_int cycles /. (p.clock_mhz *. 1e6)

(** Sustained MFLOPS over a run of [cycles] cycles performing [flops]
    floating-point operations. *)
let mflops (p : Params.t) ~cycles ~flops =
  if cycles <= 0 then 0.0
  else float_of_int flops *. p.clock_mhz /. float_of_int cycles

(** Fraction of the node's peak the run sustained. *)
let utilization (p : Params.t) ~cycles ~flops =
  let peak = Params.peak_mflops p in
  if peak <= 0.0 then 0.0 else mflops p ~cycles ~flops /. peak

type summary = {
  cycles : int;
  flops : int;
  seconds : float;
  mflops : float;
  utilization : float;
}

let summarize (p : Params.t) ~cycles ~flops =
  {
    cycles;
    flops;
    seconds = seconds p ~cycles;
    mflops = mflops p ~cycles ~flops;
    utilization = utilization p ~cycles ~flops;
  }

let of_sequencer (p : Params.t) (s : Sequencer.stats) =
  summarize p ~cycles:s.Sequencer.total_cycles ~flops:s.Sequencer.total_flops

let summary_to_string s =
  Printf.sprintf "%d cycles, %d flops, %.3f ms, %.1f MFLOPS (%.1f%% of peak)" s.cycles
    s.flops (s.seconds *. 1e3) s.mflops (100.0 *. s.utilization)

(** LRU evictions across every bounded compile cache in the process:
    the total of the always-on [cache.evictions] counter. *)
let cache_evictions () = Nsc_metrics.Metrics.total Lru.c_evictions

(** {2 The profile layer}

    The hotspot view over a metric context: where the run's cycles went,
    unit by unit, with sustained rates against the paper's 640
    MFLOPS-per-node peak.  Backed by the attribution tables and latency
    histograms the engine/sequencer/machine populate while tracing is
    enabled; rendered three ways — a human-readable report, a JSON
    document, and Brendan Gregg folded stacks for flamegraph tools. *)

module Metrics = Nsc_metrics.Metrics

type hotspot = {
  hs_instr : string;  (** instruction label, ["i<N>"] *)
  hs_unit : string;   (** functional unit and opcode, ["als0.u1:fadd"] *)
  hs_share_cycles : int;  (** apportioned cycles (rows sum to [sim.cycles]) *)
  hs_busy_cycles : int;   (** full engaged duration of the unit *)
  hs_flops : int;
  hs_mflops : float;      (** sustained over the unit's busy cycles *)
  hs_peak_pct : float;    (** sustained as % of per-node peak *)
  hs_cycle_pct : float;   (** share of all attributed cycles *)
}

let hotspots (p : Params.t) ctx =
  let rows = Metrics.attribution ctx in
  let total =
    List.fold_left (fun acc (r : Metrics.attr_row) -> acc + r.share_cycles) 0 rows
  in
  List.map
    (fun (r : Metrics.attr_row) ->
      let s = summarize p ~cycles:r.busy_cycles ~flops:r.flops in
      {
        hs_instr = r.a_instr;
        hs_unit = r.a_unit;
        hs_share_cycles = r.share_cycles;
        hs_busy_cycles = r.busy_cycles;
        hs_flops = r.flops;
        hs_mflops = s.mflops;
        hs_peak_pct = 100.0 *. s.utilization;
        hs_cycle_pct =
          (if total = 0 then 0.0
           else 100.0 *. float_of_int r.share_cycles /. float_of_int total);
      })
    rows

let latency_histograms ctx =
  List.filter_map
    (fun h ->
      let s = Metrics.hist_summary ctx h in
      if s.Metrics.hcount = 0 then None else Some (h, s))
    (Metrics.registered_histograms ())

(* Per-instruction rollup of the attribution rows (cycles and flops per
   instruction, in rank order). *)
let instruction_rollup (p : Params.t) ctx =
  let tbl : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Metrics.attr_row) ->
      match Hashtbl.find_opt tbl r.a_instr with
      | Some (c, f) ->
          c := !c + r.share_cycles;
          f := !f + r.flops
      | None -> Hashtbl.add tbl r.a_instr (ref r.share_cycles, ref r.flops))
    (Metrics.attribution ctx);
  Hashtbl.fold (fun instr (c, f) acc -> (instr, !c, !f, summarize p ~cycles:!c ~flops:!f) :: acc) tbl []
  |> List.sort (fun (_, c1, _, _) (_, c2, _, _) -> compare c2 c1)

let profile_report ?(top = 10) (p : Params.t) ctx =
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "profile: %d simulated cycles (%s context)\n" (Metrics.now ctx)
    (Metrics.label ctx);
  let hists = latency_histograms ctx in
  if hists <> [] then begin
    out "\nlatency (simulated cycles; log-bucketed, percentile error < 12.5%%):\n";
    out "  %-28s %10s %10s %10s %10s %10s %10s\n" "histogram" "count" "p50" "p95"
      "p99" "min" "max";
    List.iter
      (fun (h, (s : Metrics.hist_summary)) ->
        out "  %-28s %10d %10d %10d %10d %10d %10d\n" (Metrics.histogram_name h)
          s.Metrics.hcount s.Metrics.p50 s.Metrics.p95 s.Metrics.p99
          s.Metrics.hmin s.Metrics.hmax)
      hists
  end;
  (match hotspots p ctx with
  | [] -> out "\nno attributed cycles — was tracing enabled during the run?\n"
  | spots ->
      out "\nhotspots (per functional unit; peak %.0f MFLOPS/node):\n"
        (Params.peak_mflops p);
      out "  %-6s %-16s %12s %8s %12s %10s %8s\n" "instr" "unit" "cycles"
        "cyc%" "flops" "MFLOPS" "peak%";
      let shown = ref 0 in
      List.iter
        (fun h ->
          if !shown < top then begin
            incr shown;
            out "  %-6s %-16s %12d %7.1f%% %12d %10.1f %7.1f%%\n" h.hs_instr
              h.hs_unit h.hs_share_cycles h.hs_cycle_pct h.hs_flops h.hs_mflops
              h.hs_peak_pct
          end)
        spots;
      let n = List.length spots in
      if n > top then out "  ... %d more unit(s); --top raises the cut\n" (n - top));
  (match instruction_rollup p ctx with
  | [] -> ()
  | rolled ->
      out "\nper-instruction totals:\n";
      out "  %-6s %12s %12s %10s %8s\n" "instr" "cycles" "flops" "MFLOPS" "peak%";
      List.iter
        (fun (instr, cycles, flops, (s : summary)) ->
          out "  %-6s %12d %12d %10.1f %7.1f%%\n" instr cycles flops s.mflops
            (100.0 *. s.utilization))
        rolled);
  (match Metrics.node_attribution ctx with
  | [] | [ _ ] -> ()
  | nodes ->
      out "\nper-node utilization:\n";
      out "  %-6s %12s %12s %10s %8s\n" "node" "cycles" "flops" "MFLOPS" "peak%";
      List.iter
        (fun (node, cycles, flops) ->
          let s = summarize p ~cycles ~flops in
          out "  %-6d %12d %12d %10.1f %7.1f%%\n" node cycles flops s.mflops
            (100.0 *. s.utilization))
        nodes);
  Buffer.contents buf

let profile_json (p : Params.t) ctx =
  let module J = Nsc_metrics.Json in
  let num i = J.Num (float_of_int i) in
  J.Obj
    [
      ("label", J.Str (Metrics.label ctx));
      ("clock_cycles", num (Metrics.now ctx));
      ("peak_mflops_per_node", J.Num (Params.peak_mflops p));
      ( "latency",
        J.Obj
          (List.map
             (fun (h, s) ->
               (Metrics.histogram_name h, Metrics.hist_summary_to_json s))
             (latency_histograms ctx)) );
      ( "hotspots",
        J.List
          (List.map
             (fun h ->
               J.Obj
                 [
                   ("instr", J.Str h.hs_instr);
                   ("unit", J.Str h.hs_unit);
                   ("cycles", num h.hs_share_cycles);
                   ("cycle_pct", J.Num h.hs_cycle_pct);
                   ("busy_cycles", num h.hs_busy_cycles);
                   ("flops", num h.hs_flops);
                   ("mflops", J.Num h.hs_mflops);
                   ("peak_pct", J.Num h.hs_peak_pct);
                 ])
             (hotspots p ctx)) );
      ( "instructions",
        J.List
          (List.map
             (fun (instr, cycles, flops, (s : summary)) ->
               J.Obj
                 [
                   ("instr", J.Str instr);
                   ("cycles", num cycles);
                   ("flops", num flops);
                   ("mflops", J.Num s.mflops);
                   ("peak_pct", J.Num (100.0 *. s.utilization));
                 ])
             (instruction_rollup p ctx)) );
      ( "nodes",
        J.List
          (List.map
             (fun (node, cycles, flops) ->
               let s = summarize p ~cycles ~flops in
               J.Obj
                 [
                   ("node", num node);
                   ("cycles", num cycles);
                   ("flops", num flops);
                   ("mflops", J.Num s.mflops);
                   ("peak_pct", J.Num (100.0 *. s.utilization));
                 ])
             (Metrics.node_attribution ctx)) );
      ( "counters",
        J.Obj
          (List.filter_map
             (fun c ->
               let v = Metrics.value ctx c in
               if v = 0 then None else Some (Metrics.counter_name c, num v))
             (Metrics.registered_counters ())) );
      ("events_recorded", num (List.length (Metrics.events ctx)));
      ("events_dropped", num (Metrics.dropped ctx));
    ]

(* Brendan Gregg folded-stacks: one "frame1;frame2 weight" line per
   stack, here instruction;unit with the apportioned cycles as weight —
   pipe through flamegraph.pl (or paste into a viewer) for a cycle
   flamegraph of the run. *)
let profile_folded ctx =
  let buf = Buffer.create 512 in
  List.iter
    (fun (r : Metrics.attr_row) ->
      if r.share_cycles > 0 then
        Buffer.add_string buf
          (Printf.sprintf "%s;%s %d\n" r.a_instr r.a_unit r.share_cycles))
    (Metrics.attribution ctx);
  Buffer.contents buf
