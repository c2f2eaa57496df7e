(* The repository benchmark: one seeded workload per invocation, timed
   through the public calls of lib/lang, lib/microcode, lib/apps,
   lib/sim and the [nscvp serve] wire protocol, every answer checked.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --nscvp PATH --out DIR
     bench.exe --selftest --nscvp PATH --out DIR

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer metrics of a traced run (and a
   Chrome trace is written under DIR).  See README.md. *)

module Json = Nsc_metrics.Json
module Metrics = Nsc_metrics.Metrics
module Sim = Nsc_sim

let t_process = Unix.gettimeofday ()
let now = Unix.gettimeofday

(* Set-ups per run; setup_s is their median.  A hypercube set-up is a
   whole 8-node solve, so it gets fewer. *)
let setups w = if w = "hypercube-n9" then 3 else 5

(* --- statistics ----------------------------------------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile l q =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* --- answer tally ---------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable first_error : string option }

let count tk r =
  tk.attempted <- tk.attempted + 1;
  match r with
  | Ok () -> ()
  | Error e ->
      tk.failed <- tk.failed + 1;
      if tk.first_error = None then tk.first_error <- Some e

(* The share of attempted ops that answered correctly: failed_frac is
   1 - ok_frac, reported this way round because a metric may not be 0. *)
let ok_frac tk = 1.0 -. (float_of_int tk.failed /. float_of_int (max 1 tk.attempted))

(* --- exact accounting over the first pass --------------------------------- *)

(* Simulated cost and host allocation of the first [Gen.pass_len] ops of
   the measured window (run just ahead of it on a sampled workload, see
   [samples_within]): one whole pass, whose totals are seed-invariant
   (see gen.ml), summed in integers so the order of the ops cannot move
   the last bit. *)
type pass = {
  mutable n : int;
  mutable cycles : int;
  mutable flops : int;
  mutable words : float;  (* exact: minor words are whole numbers *)
  mutable node_mflops : float option;
}

let new_pass () = { n = 0; cycles = 0; flops = 0; words = 0.0; node_mflops = None }

let pass_metrics (p : pass) =
  let ops = float_of_int (max 1 p.n) in
  let mflops =
    match p.node_mflops with
    | Some m -> m
    | None -> Sim.Stats.mflops Work.params ~cycles:p.cycles ~flops:p.flops
  in
  [ ("sim_cycles_per_op", float_of_int p.cycles /. ops);
    ("sim_mflops", mflops);
    ("alloc_mwords_per_op", p.words /. ops /. 1e6) ]

(* --- host speed --------------------------------------------------------------- *)

(* The 2-core virtual host this benchmark was built on changes speed by up
   to 1.7x from one 50 ms stretch to the next, and CPU time per op moves
   with it.  A short fixed loop is timed between every two ops (between
   every two batches on serve-mix), and on workloads whose ops last over
   a second also every 50 ms within an op; each op's time, net of the
   loops within it, is scaled by [ref_nominal_ms] over the median of the
   loop times just before, within and just after it, so timing metrics
   read "ms on a host where the loop takes [ref_nominal_ms]".
   [host.ref_ms] reports the median loop time. *)
let ref_nominal_ms = 0.25

let ref_a = Array.make 32768 1.0
let ref_b = Array.make 32768 0.0

let sweep a b =
  for i = 1 to Array.length a - 2 do
    b.(i) <- ((a.(i - 1) +. a.(i + 1)) *. 0.25) +. (a.(i) *. 0.5)
  done

(* Short-lived allocation (10 000 boxed floats in 1024-element lists) and
   two stencil sweeps over 256 KB, about 0.25 ms.  Returns ms. *)
let reference () =
  let t0 = now () in
  let l = ref [] in
  for i = 1 to 10_000 do
    l := float_of_int i :: !l;
    if i land 1023 = 0 then l := []
  done;
  ignore (Sys.opaque_identity !l);
  sweep ref_a ref_b;
  sweep ref_b ref_a;
  (now () -. t0) *. 1e3

(* Loops timed within ops, from a timer signal.  An 8-node hypercube op
   lasts over a second, across several changes of host speed: in the
   host's two speed states the loop takes about 0.15 and 0.25 ms, and
   ops that begin and end in one state can spend most of their time in
   the other, so the loops at its ends alone left a ten-seed spread of
   0.23 in its median. *)
let samples_within w = w = "hypercube-n9"

let sample_period = 0.05

type sampler = {
  mutable on : bool;
  mutable spent : float;  (* seconds in the loop since the last [take] *)
  mutable words : float;  (* minor words it allocated *)
  mutable loops : float list;  (* its times, ms *)
}

let sampler = { on = false; spent = 0.0; words = 0.0; loops = [] }

let sample _ =
  if sampler.on then begin
    let w0 = Gc.minor_words () in
    let r = reference () in
    sampler.loops <- r :: sampler.loops;
    sampler.spent <- sampler.spent +. (r /. 1e3);
    sampler.words <- sampler.words +. (Gc.minor_words () -. w0)
  end

let sampling on =
  if on <> sampler.on then begin
    sampler.on <- on;
    let period = if on then sample_period else 0.0 in
    if on then Sys.set_signal Sys.sigalrm (Sys.Signal_handle sample);
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })
  end

(* The loops sampled since the last call: seconds spent, words, times. *)
let take () =
  let t = (sampler.spent, sampler.words, sampler.loops) in
  sampler.spent <- 0.0;
  sampler.words <- 0.0;
  sampler.loops <- [];
  t

(* Scale a set-up time that has just ended. *)
let scaled_setup s =
  let spent, _, within = take () in
  (s -. spent) *. ref_nominal_ms /. median (List.init 3 (fun _ -> reference ()) @ within)

(* --- windows ---------------------------------------------------------------- *)

type window = {
  lat : float list;  (* ms per op, scaled *)
  ops : int;
  wall : float;  (* seconds, net of the loop *)
  scaled_wall : float;  (* the same, each stretch between two loops scaled *)
  cpu : float;  (* seconds of this process's CPU, net of the loop *)
  refs : float list;  (* loop times, ms *)
  minor : float;  (* minor words allocated over the window, net of the loop *)
  majors : int;
}

(* Books ops as they complete and times the loop between them. *)
type recorder = {
  mutable r_prev : float;  (* the loop time just before the pending ops *)
  mutable t_mark : float;  (* when that loop ended *)
  mutable lats : float list;
  mutable n : int;
  mutable wall_s : float;
  mutable swall_s : float;
  mutable ref_s : float;
  mutable ref_words : float;
  mutable ref_times : float list;
  c0 : float;
  g0 : Gc.stat;
}

let timed_reference g =
  let w0 = Gc.minor_words () in
  let r = reference () in
  g.ref_words <- g.ref_words +. (Gc.minor_words () -. w0);
  g.ref_s <- g.ref_s +. (r /. 1e3);
  g.ref_times <- r :: g.ref_times;
  r

let recorder () =
  let g =
    {
      r_prev = 0.0;
      t_mark = 0.0;
      lats = [];
      n = 0;
      wall_s = 0.0;
      swall_s = 0.0;
      ref_s = 0.0;
      ref_words = 0.0;
      ref_times = [];
      c0 = cpu_self ();
      g0 = Gc.quick_stat ();
    }
  in
  g.r_prev <- timed_reference g;
  g.t_mark <- now ();
  g

(* Book the raw latencies (ms) of the ops run since the last call; loops
   sampled within them are taken out of them and of the wall time. *)
let book g lats =
  let t = now () in
  let spent, words, within = take () in
  let r = timed_reference g in
  let s = ref_nominal_ms /. median ((g.r_prev :: r :: within)) in
  let n = float_of_int (List.length lats) in
  let stretch = t -. g.t_mark -. spent in
  g.ref_s <- g.ref_s +. spent;
  g.ref_words <- g.ref_words +. words;
  g.ref_times <- within @ g.ref_times;
  g.wall_s <- g.wall_s +. stretch;
  g.swall_s <- g.swall_s +. (stretch *. s);
  g.lats <- List.rev_append (List.map (fun l -> (l -. (spent *. 1e3 /. n)) *. s) lats) g.lats;
  g.n <- g.n + List.length lats;
  g.r_prev <- r;
  g.t_mark <- now ()

let finish g =
  let g1 = Gc.quick_stat () in
  {
    lat = g.lats;
    ops = g.n;
    wall = g.wall_s;
    scaled_wall = g.swall_s;
    cpu = cpu_self () -. g.c0 -. g.ref_s;
    refs = g.ref_times;
    minor = g1.Gc.minor_words -. g.g0.Gc.minor_words -. g.ref_words;
    majors = g1.Gc.major_collections - g.g0.Gc.major_collections;
  }

(* Run [op] (which returns one op's latency in seconds) until both
   [min_ops] ops and [seconds] have passed, sampling loops within the ops
   if [sample]. *)
let window ?(sample = false) ~seconds ~min_ops op =
  let g = recorder () in
  let t_end = now () +. seconds in
  sampling sample;
  while g.n < min_ops || now () < t_end do
    book g [ op () *. 1e3 ]
  done;
  sampling false;
  ignore (take ());
  finish g

(* The window's mean speed factor, weighted by time. *)
let speed wd = wd.scaled_wall /. wd.wall

let p50 wd = median wd.lat
let ref_ms wd = ("host.ref_ms", median wd.refs)

(* Traced against untraced median op time, in percent. *)
let overhead ~base ~traced = ("trace.overhead_pct", 100.0 *. (p50 traced -. p50 base) /. p50 base)

(* [cpu_per_op], when given, replaces this process's CPU per op (the
   serve client measures its daemon's CPU only once, at the end). *)
let latency_metrics ?cpu_per_op wd =
  let ops = float_of_int (max 1 wd.ops) in
  [ ("op_p50_ms", p50 wd);
    ("op_p99_ms", percentile wd.lat 0.99);
    ("ops_per_s", ops /. wd.scaled_wall);
    ( "cpu_ms_per_op",
      speed wd *. 1e3 *. match cpu_per_op with Some c -> c | None -> wd.cpu /. ops );
    ref_ms wd ]

let gc_metrics wd =
  let ops = float_of_int (max 1 wd.ops) in
  [ ("gc.minor_words_per_op", wd.minor /. ops);
    ("gc.major_collections_per_op", float_of_int wd.majors /. ops) ]

(* --- the traced layer split --------------------------------------------- *)

let ctx_counter ctx name =
  match Metrics.find_counter name with Some c -> float_of_int (Metrics.value ctx c) | None -> 0.0

(* Host-side compile and pool counters are process-wide atomics; the
   traced window reads their growth. *)
type host_counts = { pc : int; ph : int; kc : int; kh : int; poh : int; pom : int; ev : int }

let host_counts () =
  {
    pc = Sim.Plan.compile_count ();
    ph = Sim.Plan.cache_hit_count ();
    kc = Sim.Kernel.compile_count ();
    kh = Sim.Kernel.cache_hit_count ();
    poh = Sim.Kernel.pool_hit_count ();
    pom = Sim.Kernel.pool_miss_count ();
    ev = Sim.Stats.cache_evictions ();
  }

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

let sim_counters =
  [ "sim.elements"; "sim.flops"; "dma.read_words"; "dma.write_words"; "sim.instructions";
    "sim.reconfig_cycles"; "switch.reconfigurations"; "switch.routes_programmed";
    "kernel.fallbacks"; "machine.steps"; "machine.exchanges"; "router.words"; "router.hops";
    "router.contention_cycles"; "fault.injected"; "fault.backoff_cycles" ]

(* Per-op self times of the span names, in ms. *)
let span_metrics sp ~ops =
  let per name = Spans.self_s sp name *. 1e3 /. float_of_int (max 1 ops) in
  let op_total = Spans.total_s sp "op" in
  [ ("lang.compile_ms", per "lang.compile");
    ("codegen.compile_ms", per "codegen.compile");
    ("apps.build_ms", per "apps.build");
    ("apps.load_ms", per "apps.load");
    ("plan.compile_ms", per "plan.compile");
    ("kernel.compile_ms", per "kernel.compile");
    ("engine.exec_ms", per "engine.exec");
    ("sequencer.run_ms", Spans.total_s sp "sequencer.run" *. 1e3 /. float_of_int (max 1 ops));
    ("sequencer.overhead_ms", per "sequencer.run");
    ("multinode.solve_ms", per "multinode.solve");
    ("serve.wait_ms", per "serve.wait");
    ("serve.service_ms", per "serve.service");
    ("serve.transport_ms", per "serve.transport");
    ( "trace.unattributed_pct",
      if op_total > 0.0 then 100.0 *. Spans.self_s sp "op" /. op_total else 0.0 ) ]

(* --- in-process workloads --------------------------------------------------- *)

type result = {
  tally : tally;
  metrics : (string * float) list;
  domains : int;
  trace_file : string option;
}

let run_inprocess w ~seed ~seconds ~trace ~out =
  let tk = { attempted = 0; failed = 0; first_error = None } in
  let pass_len = Gen.pass_len w in
  (* set-up: generate the inputs, compile cold, first correct result *)
  let setup t0 =
    let inputs = Work.make_inputs w in
    let stream = Gen.stream w ~seed in
    let caches = Work.fresh_caches () in
    let o = (Work.exec inputs caches (Gen.first_job w)) () in
    count tk o.Work.ok;
    (scaled_setup (now () -. t0), (inputs, stream, caches))
  in
  sampling (samples_within w);
  let runs = List.init (setups w) (fun i -> setup (if i = 0 then t_process else now ())) in
  sampling false;
  ignore (take ());
  let setup_s = median (List.map fst runs) in
  let inputs, stream, persistent = snd (List.nth runs (setups w - 1)) in
  (* solve-n9 keeps its plan and kernel caches across solves; the other
     workloads compile cold on every op *)
  let caches () = if w = "solve-n9" then persistent else Work.fresh_caches () in
  (* one untimed pass of another seed fills the kernel buffer pool *)
  if pass_len > 1 then begin
    let warm = Gen.stream w ~seed:(seed + 1_000_003) in
    for _ = 1 to pass_len do
      count tk ((Work.exec inputs (caches ()) (Gen.next warm)) ()).Work.ok
    done
  end;
  let p = new_pass () in
  let op exec () =
    let job = Gen.next stream in
    let c = caches () in
    let w0 = Gc.minor_words () in
    let s0 = now () in
    let finish = exec c job in
    let s1 = now () in
    let w1 = Gc.minor_words () in
    let o = finish () in
    count tk o.Work.ok;
    if p.n < pass_len then begin
      p.n <- p.n + 1;
      p.cycles <- p.cycles + o.Work.cycles;
      p.flops <- p.flops + o.Work.flops;
      p.words <- p.words +. (w1 -. w0);
      p.node_mflops <- o.Work.node_mflops
    end;
    s1 -. s0
  in
  (* loops sampled within an op would count in its allocation, so a
     sampled workload makes its exact first pass ahead of the window *)
  let sample = samples_within w in
  let untraced seconds =
    if sample then for _ = p.n + 1 to pass_len do ignore (op (Work.exec inputs) ()) done;
    window ~sample ~seconds ~min_ops:pass_len (op (Work.exec inputs))
  in
  if not trace then begin
    let wd = untraced seconds in
    {
      tally = tk;
      metrics =
        latency_metrics wd @ [ ("setup_s", setup_s) ] @ pass_metrics p @ [ ("ok_frac", ok_frac tk) ];
      domains = 1;
      trace_file = None;
    }
  end
  else begin
    let base = untraced (seconds /. 2.0) in
    let sp = Spans.create () in
    let traced_op c job =
      Spans.next_op sp;
      Spans.span sp "op" (fun () -> Work.exec_traced sp inputs c job)
    in
    let traced = window ~seconds:(seconds /. 2.0) ~min_ops:1 (op traced_op) in
    (* the counters come from one more pass under an enabled metric
       context, untimed: counting inside the library costs more than the
       spans do, and would inflate every layer's time *)
    let ctx = Metrics.create ~label:w () in
    let h0 = host_counts () in
    let counted = Gen.stream w ~seed in
    let comm = ref 0 and cycles = ref 0 in
    Metrics.enable ctx;
    Metrics.with_ctx ctx (fun () ->
        for _ = 1 to pass_len do
          let o = (Work.exec inputs (caches ()) (Gen.next counted)) () in
          count tk o.Work.ok;
          cycles := !cycles + o.Work.cycles;
          comm := !comm + o.Work.comm_cycles
        done);
    Metrics.disable ctx;
    let h1 = host_counts () in
    let ops = float_of_int pass_len in
    let per x = float_of_int x /. ops in
    let elements = ctx_counter ctx "sim.elements" /. ops in
    let path = Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" w seed) in
    Spans.write_chrome sp ~path ~label:w;
    let iters = if w = "hypercube-n9" then float_of_int Work.hypercube_iterations else 0.0 in
    let engine_s = Spans.self_s sp "engine.exec" /. float_of_int traced.ops in
    {
      tally = tk;
      metrics =
        span_metrics sp ~ops:traced.ops
        @ List.map (fun n -> (n, ctx_counter ctx n /. ops)) sim_counters
        @ [ ("plan.compiles", per (h1.pc - h0.pc));
            ("plan.hit_ratio", ratio (h1.ph - h0.ph) (h1.pc - h0.pc));
            ("kernel.compiles", per (h1.kc - h0.kc));
            ("kernel.hit_ratio", ratio (h1.kh - h0.kh) (h1.kc - h0.kc));
            ("kernel.pool_hit_ratio", ratio (h1.poh - h0.poh) (h1.pom - h0.pom));
            ("cache.evictions", per (h1.ev - h0.ev));
            ("engine.ns_per_element", if elements > 0.0 then engine_s *. 1e9 /. elements else 0.0);
            ("sim.cycles_per_iter", if iters > 0.0 then float_of_int !cycles /. ops /. iters else 0.0);
            ("comm.cycles_per_iter", if iters > 0.0 then float_of_int !comm /. ops /. iters else 0.0);
            overhead ~base ~traced; ref_ms base ]
        @ gc_metrics base;
      domains = 1;
      trace_file = Some path;
    }
  end

(* --- serve-mix -------------------------------------------------------------- *)

let batch_size = Gen.serve_batch
let serve_counters = sim_counters @ [ "kernel.compiles"; "kernel.cache_hits"; "cache.evictions" ]

(* Every served job of the traced window up to this many is re-run solo
   to split its client-observed time; more would only lengthen the run. *)
let split_cap = 400

let resp_num (s : Client.served) k = Option.value ~default:0.0 (Client.field s.Client.resp k)

let run_serve ~nscvp ~seed ~seconds ~trace ~out =
  let tk = { attempted = 0; failed = 0; first_error = None } in
  let w = "serve-mix" and pass_len = Gen.pass_len "serve-mix" in
  let domains = min 2 (Domain.recommended_domain_count ()) in
  let sock = Filename.concat out (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let checks = ref [] in
  let next_id = ref 0 in
  let batch d jobs =
    let r = Client.batch d ~first_id:!next_id jobs in
    next_id := !next_id + Array.length jobs;
    checks := Array.to_list r @ !checks;
    r
  in
  (* set-up: generate the workload, spawn the daemon, first pong, first
     job compiled cold and answered *)
  let setup t0 =
    let stream = Gen.stream w ~seed in
    let d = Client.spawn ~nscvp ~sock ~domains in
    Client.ping d;
    ignore (batch d [| Gen.first_job w |]);
    (scaled_setup (now () -. t0), (stream, d))
  in
  (* the last set-up's daemon serves the run; its CPU and the client's
     are counted from its spawn *)
  let cpu0 = ref 0.0 and served_before = ref 0 in
  let times = ref [] and last = ref None in
  let setups = setups w in
  for i = 1 to setups do
    if i = setups then begin
      cpu0 := cpu_self () +. cpu_children ();
      served_before := !next_id
    end;
    let s, (stream, d) = setup (if i = 1 then t_process else now ()) in
    times := s :: !times;
    if i < setups then Client.shutdown d else last := Some (stream, d)
  done;
  let stream, d = Option.get !last in
  (* one untimed pass of another seed warms the daemon *)
  let warm = Gen.stream w ~seed:(seed + 1_000_003) in
  for _ = 1 to pass_len / batch_size do
    ignore (batch d (Array.init batch_size (fun _ -> Gen.next warm)))
  done;
  let p = new_pass () in
  let serve_window seconds =
    let g = recorder () in
    let all = ref [] and waves = ref 0 in
    let t_end = now () +. seconds in
    while !waves * batch_size < pass_len || now () < t_end do
      let r = batch d (Array.init batch_size (fun _ -> Gen.next stream)) in
      incr waves;
      Array.iter
        (fun (s : Client.served) ->
          if p.n < pass_len then begin
            p.n <- p.n + 1;
            p.cycles <- p.cycles + int_of_float (resp_num s "cycles");
            p.flops <- p.flops + int_of_float (resp_num s "flops")
          end)
        r;
      book g
        (Array.to_list (Array.map (fun (s : Client.served) -> (s.Client.got -. s.Client.sent) *. 1e3) r));
      all := List.rev_append (Array.to_list r) !all
    done;
    let wd = finish g in
    let jobs = List.rev !all in
    (jobs, wd, !waves)
  in
  let jobs, base, _ = serve_window (if trace then seconds /. 2.0 else seconds) in
  let traced = if trace then Some (serve_window (seconds /. 2.0)) else None in
  let served_total = !next_id - !served_before in
  Client.shutdown d;
  let cpu = cpu_self () +. cpu_children () -. !cpu0 in
  (* answers, against solo runs of the same jobs *)
  List.iter (fun s -> count tk (Client.check s)) !checks;
  match traced with
  | None ->
      (* host allocation per job: the job's own solve, re-run solo (the
         daemon is another process); a first solo pass warms the pool *)
      let pass_jobs = List.filteri (fun i _ -> i < pass_len) jobs in
      List.iter (fun (s : Client.served) -> ignore (Work.solo s.Client.job)) pass_jobs;
      List.iter
        (fun (s : Client.served) ->
          let w0 = Gc.minor_words () in
          ignore (Work.solo s.Client.job);
          p.words <- p.words +. (Gc.minor_words () -. w0))
        pass_jobs;
      (* CPU of this client and of the daemon over the daemon's whole
         life, per job it served *)
      {
        tally = tk;
        metrics =
          latency_metrics base ~cpu_per_op:(cpu /. float_of_int (max 1 served_total))
          @ [ ("setup_s", median !times) ]
          @ pass_metrics p
          @ [ ("ok_frac", ok_frac tk) ];
        domains;
        trace_file = None;
      }
  | Some (tjobs, twd, waves) ->
      let sp = Spans.create () in
      let split = List.filteri (fun i _ -> i < split_cap) tjobs in
      List.iter
        (fun (s : Client.served) ->
          let t0 = now () in
          ignore (Work.solo s.Client.job);
          let service = now () -. t0 in
          let latency = resp_num s "latency_usec" /. 1e6 in
          let total = s.Client.got -. s.Client.sent in
          let wait = Float.max 0.0 (latency -. service) in
          Spans.next_op sp;
          Spans.enter_at sp "op" s.Client.sent;
          Spans.interval sp "serve.wait" ~t0:s.Client.sent ~t1:(s.Client.sent +. wait);
          Spans.interval sp "serve.service" ~t0:(s.Client.sent +. wait)
            ~t1:(s.Client.sent +. wait +. service);
          Spans.interval sp "serve.transport" ~t0:(s.Client.got -. (total -. latency))
            ~t1:s.Client.got;
          Spans.leave_at sp s.Client.got)
        split;
      let parse_us =
        let t0 = now () in
        List.iter (fun (s : Client.served) -> ignore (Nsc_serve.Protocol.parse_request s.Client.line)) tjobs;
        (now () -. t0) *. 1e6 /. float_of_int (max 1 (List.length tjobs))
      in
      let tn = float_of_int (List.length tjobs) in
      let csum name =
        List.fold_left
          (fun acc (s : Client.served) ->
            acc
            +. Option.value ~default:0.0
                 (Option.bind (Nsc_metrics.Json.member "counters" s.Client.resp) (fun c ->
                      Client.field c name)))
          0.0 tjobs
      in
      let path = Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" w seed) in
      Spans.write_chrome sp ~path ~label:w;
        {
        tally = tk;
        metrics =
          span_metrics sp ~ops:(List.length split)
          @ List.map (fun name -> (name, csum name /. tn)) serve_counters
          @ [ ("kernel.hit_ratio",
               let h = csum "kernel.cache_hits" and c = csum "kernel.compiles" in
               if h +. c > 0.0 then h /. (h +. c) else 0.0);
              ("kernel.pool_hit_ratio",
               let h = csum "kernel.pool_hits" and m = csum "kernel.pool_misses" in
               if h +. m > 0.0 then h /. (h +. m) else 0.0);
              ("protocol.parse_us", parse_us);
              ("serve.waves", float_of_int waves);
              ("serve.jobs_per_wave", tn /. float_of_int (max 1 waves));
              overhead ~base ~traced:twd; ref_ms base ]
          @ gc_metrics base;
        domains;
        trace_file = Some path;
      }

(* --- the metric catalogue ---------------------------------------------------- *)

let end_to_end =
  [ ("op_p50_ms", "ms"); ("op_p99_ms", "ms"); ("ops_per_s", "ops/s"); ("cpu_ms_per_op", "ms");
    ("setup_s", "s"); ("sim_cycles_per_op", "cycles"); ("sim_mflops", "MFLOPS");
    ("alloc_mwords_per_op", "Mwords"); ("ok_frac", "ratio") ]

let per_layer =
  [ ("lang.compile_ms", "ms"); ("codegen.compile_ms", "ms"); ("apps.build_ms", "ms");
    ("apps.load_ms", "ms"); ("plan.compile_ms", "ms"); ("plan.compiles", "count");
    ("plan.hit_ratio", "ratio"); ("kernel.compile_ms", "ms"); ("kernel.compiles", "count");
    ("kernel.hit_ratio", "ratio"); ("kernel.pool_hit_ratio", "ratio");
    ("kernel.fallbacks", "count"); ("cache.evictions", "count"); ("engine.exec_ms", "ms");
    ("engine.ns_per_element", "ns"); ("sim.elements", "count"); ("sim.flops", "count");
    ("dma.read_words", "words"); ("dma.write_words", "words"); ("sequencer.run_ms", "ms");
    ("sequencer.overhead_ms", "ms"); ("sim.instructions", "count");
    ("sim.reconfig_cycles", "cycles"); ("switch.reconfigurations", "count");
    ("switch.routes_programmed", "count"); ("multinode.solve_ms", "ms");
    ("machine.steps", "count"); ("machine.exchanges", "count"); ("router.words", "words");
    ("router.hops", "count"); ("router.contention_cycles", "cycles");
    ("comm.cycles_per_iter", "cycles"); ("sim.cycles_per_iter", "cycles");
    ("protocol.parse_us", "us"); ("serve.wait_ms", "ms"); ("serve.service_ms", "ms");
    ("serve.transport_ms", "ms"); ("serve.waves", "count"); ("serve.jobs_per_wave", "count");
    ("fault.injected", "count"); ("fault.backoff_cycles", "cycles");
    ("gc.minor_words_per_op", "words"); ("gc.major_collections_per_op", "count");
    ("trace.overhead_pct", "%"); ("trace.unattributed_pct", "%"); ("host.ref_ms", "ms") ]

let run ~nscvp ~out ~workload ~seed ~seconds ~trace =
  if workload = "serve-mix" then run_serve ~nscvp ~seed ~seconds ~trace ~out
  else run_inprocess workload ~seed ~seconds ~trace ~out

let value r name = Option.value ~default:0.0 (List.assoc_opt name r.metrics)

let report ~workload ~seed ~seconds ~trace r =
  let catalogue = if trace then per_layer else end_to_end in
  Printf.printf
    "host: nproc=%d ocaml=%s domains_requested=%d domains_available=%d ref_loop_ms=%.4f\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version r.domains
    (Domain.recommended_domain_count ()) (value r "host.ref_ms");
  Printf.printf "run: workload=%s seed=%d seconds=%g trace=%d\n" workload seed seconds
    (if trace then 1 else 0);
  List.iter (fun (name, unit) -> Printf.printf "  %-28s %16.6g %s\n" name (value r name) unit) catalogue;
  Option.iter (fun p -> Printf.printf "trace: %s (open in https://ui.perfetto.dev)\n" p) r.trace_file;
  if trace && (workload = "solve-n9" || workload = "serve-mix") then begin
    let u = value r "trace.unattributed_pct" in
    Printf.printf "layer check: unattributed %.2f%% of traced op time (limit 5%%): %s\n" u
      (if Float.abs u <= 5.0 then "ok" else "FAILED")
  end;
  Printf.printf "answers: %d attempted, %d failed%s\n" r.tally.attempted r.tally.failed
    (match r.tally.first_error with Some e -> " (first: " ^ e ^ ")" | None -> "");
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (r.tally.failed = 0));
            ("attempted", Json.Num (float_of_int r.tally.attempted));
            ("failed", Json.Num (float_of_int r.tally.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit) ->
                     (name, Json.Obj [ ("value", Json.Num (value r name)); ("unit", Json.Str unit) ]))
                   catalogue) ) ]))

(* --- self-test --------------------------------------------------------------- *)

let exact = [ "sim_cycles_per_op"; "sim_mflops"; "alloc_mwords_per_op"; "ok_frac" ]

let selftest ~nscvp ~out =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "%-60s %s\n%!" what (if ok then "ok" else "FAILED");
    if not ok then incr failures
  in
  (* the generator: same seed, same bytes; another seed, same mix *)
  List.iter
    (fun w ->
      let passes seed =
        let s = Gen.stream w ~seed in
        List.init 3 (fun _ -> List.init (Gen.pass_len w) (fun _ -> Gen.next s))
      in
      let text ps = String.concat "\n" (List.concat_map (List.map Gen.to_string) ps) in
      let mix ps = List.map (fun p -> List.sort compare (List.map Gen.kind p)) ps in
      expect (w ^ ": same seed, identical job sequence") (text (passes 11) = text (passes 11));
      if Gen.pass_len w > 1 then begin
        expect (w ^ ": another seed, other jobs") (text (passes 11) <> text (passes 12));
        expect (w ^ ": another seed, same mix per pass") (mix (passes 11) = mix (passes 12))
      end)
    Gen.workloads;
  (* the exact metrics: identical across two runs of one seed, and
     across seeds *)
  List.iter
    (fun w ->
      let r seed = run ~nscvp ~out ~workload:w ~seed ~seconds:0.0 ~trace:false in
      let a = r 7 and b = r 7 and c = r 8 in
      List.iter
        (fun m ->
          expect
            (Printf.sprintf "%s: %s = %.17g on every run" w m (value a m))
            (value a m = value b m && value a m = value c m && value a m <> 0.0))
        exact)
    Gen.workloads;
  !failures = 0

(* --- command line ------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nscvp = ref "" and out = ref "." and self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Gen.workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or a traced per-layer run");
      ("--nscvp", Arg.Set_string nscvp, "PATH the nscvp executable (for serve-mix)");
      ("--out", Arg.Set_string out, "DIR where sockets and traces go");
      ("--selftest", Arg.Set self, " check the generator and the exact metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --nscvp PATH --out DIR";
  if !self then exit (if selftest ~nscvp:!nscvp ~out:!out then 0 else 1);
  if not (List.mem !workload Gen.workloads) then begin
    prerr_endline ("--workload must be one of " ^ String.concat ", " Gen.workloads);
    exit 2
  end;
  let trace = !trace = 1 in
  let r = run ~nscvp:!nscvp ~out:!out ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace in
  report ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace r
