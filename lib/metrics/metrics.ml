(** Scoped metric contexts: the one counter registry of the simulator.

    The registry is split in two:

    - a {e global descriptor catalogue} — counter and histogram names,
      units and descriptions, registered once per process by the module
      that owns each resource and assigned a dense id;
    - {e per-context state} — the counter values, histogram buckets,
      span ring, simulated clock and cycle-attribution tables for one
      run, held in a {!ctx} record.

    The {e ambient} context is domain-local ({!current}/{!with_ctx});
    the process starts in {!default}.  Worker domains spawned by the
    simulator's pools inherit the caller's context (the pool captures it
    when a job is published).  Instrumentation sites call {!bump} and
    {!tracing}, which target the ambient context.

    A counter is either {e gated} (it counts only into an enabled
    context) or {e always-on} (it also keeps a process-wide total that
    counts whether or not any context is enabled) — the host-side
    compile, cache and pool accounting is always-on.

    On top of the counters this adds the profiling layer: log-bucketed
    latency histograms with percentile estimates, per-instruction and
    per-unit cycle/FLOP attribution, per-node utilization for
    multi-node runs, and snapshot/diff for comparing two contexts.
    Everything is documented in [docs/OBSERVABILITY.md]. *)

(* ====================================================================== *)
(* The global descriptor catalogue                                        *)
(* ====================================================================== *)

(* [total] is the process-wide count of an always-on counter; a gated
   counter never touches it. *)
type counter = {
  cid : int;
  c_name : string;
  c_units : string;
  c_desc : string;
  always : bool;
  total : int Atomic.t;
}

type histogram = { hid : int; h_name : string; h_units : string; h_desc : string }

let catalogue_mu = Mutex.create ()
let counters_by_name : (string, counter) Hashtbl.t = Hashtbl.create 64
let counter_order : counter list ref = ref []  (* newest first *)
let n_counters = ref 0
let histograms_by_name : (string, histogram) Hashtbl.t = Hashtbl.create 16
let histogram_order : histogram list ref = ref []
let n_histograms = ref 0

let register ~always ~name ~units ~desc =
  Mutex.protect catalogue_mu (fun () ->
      match Hashtbl.find_opt counters_by_name name with
      | Some c -> c
      | None ->
          let c =
            { cid = !n_counters; c_name = name; c_units = units; c_desc = desc;
              always; total = Atomic.make 0 }
          in
          incr n_counters;
          Hashtbl.add counters_by_name name c;
          counter_order := c :: !counter_order;
          c)

let counter ~name ~units ~desc = register ~always:false ~name ~units ~desc
let always_counter ~name ~units ~desc = register ~always:true ~name ~units ~desc

let histogram ~name ~units ~desc =
  Mutex.protect catalogue_mu (fun () ->
      match Hashtbl.find_opt histograms_by_name name with
      | Some h -> h
      | None ->
          let h = { hid = !n_histograms; h_name = name; h_units = units; h_desc = desc } in
          incr n_histograms;
          Hashtbl.add histograms_by_name name h;
          histogram_order := h :: !histogram_order;
          h)

let counter_name c = c.c_name
let counter_units c = c.c_units
let counter_desc c = c.c_desc
let is_always c = c.always
let total c = Atomic.get c.total
let histogram_name h = h.h_name
let histogram_units h = h.h_units
let histogram_desc h = h.h_desc

let registered_counters () =
  Mutex.protect catalogue_mu (fun () ->
      List.sort (fun a b -> compare a.c_name b.c_name) !counter_order)

let registered_histograms () =
  Mutex.protect catalogue_mu (fun () ->
      List.sort (fun a b -> compare a.h_name b.h_name) !histogram_order)

let find_counter name =
  Mutex.protect catalogue_mu (fun () -> Hashtbl.find_opt counters_by_name name)

let find_histogram name =
  Mutex.protect catalogue_mu (fun () -> Hashtbl.find_opt histograms_by_name name)

(* ====================================================================== *)
(* Log-bucketed histogram geometry                                        *)
(* ====================================================================== *)

(* Values 0..31 get one exact bucket each; above that, each power-of-two
   octave [2^m, 2^(m+1)) splits into 8 equal sub-buckets of width
   2^(m-3).  A bucket's lower bound therefore underestimates any value
   it holds by less than 1/8 of the value — the percentile error bound
   documented in docs/OBSERVABILITY.md.  With 63-bit OCaml ints the
   octave index m ranges over 5..62. *)
let linear_buckets = 32
let sub_buckets = 8
let max_octave = 62
let n_buckets = linear_buckets + ((max_octave - 5 + 1) * sub_buckets)

let bucket_of_value v =
  if v < linear_buckets then max 0 v
  else begin
    let m = ref 5 in
    while v lsr (!m + 1) <> 0 do
      incr m
    done;
    let sub = (v lsr (!m - 3)) land (sub_buckets - 1) in
    linear_buckets + ((!m - 5) * sub_buckets) + sub
  end

let bucket_lower_bound i =
  if i < linear_buckets then max 0 i
  else begin
    let oct = (i - linear_buckets) / sub_buckets
    and sub = (i - linear_buckets) mod sub_buckets in
    let m = oct + 5 in
    (1 lsl m) + (sub * (1 lsl (m - 3)))
  end

(* ====================================================================== *)
(* Per-context state                                                      *)
(* ====================================================================== *)

type arg = Int of int | Float of float | Str of string

type event = {
  ev_name : string;
  cat : string;
  phase : char;  (** 'X' complete span, 'i' instant, 'C' counter sample *)
  ts : int;      (** simulated cycles *)
  dur : int;     (** simulated cycles; 0 for instants *)
  tid : int;     (** 0 = node engine/sequencer, 1 = multi-node machine *)
  args : (string * arg) list;
}

(* One histogram's state: atomic bucket counts plus running count, sum
   and exact min/max, so concurrent observers (pool worker domains) need
   no lock. *)
type hstate = {
  buckets : int Atomic.t array;
  hs_n : int Atomic.t;
  hs_total : int Atomic.t;
  hs_lo : int Atomic.t;  (* max_int while empty *)
  hs_hi : int Atomic.t;
}

(* Cycle/FLOP attribution for one (instruction, unit) pair.  [share] is
   the instruction's cycles apportioned across its engaged units (the
   shares of one instruction sum exactly to its cycle count, so the
   hotspot table and the folded stacks partition [sim.cycles]); [busy]
   is the full engaged duration (every unit of a systolic pipeline runs
   for the whole instruction), the denominator for the per-unit
   sustained rate. *)
type attr_cell = { mutable share : int; mutable busy : int; mutable aflops : int }

type ctx = {
  ctx_label : string;
  enabled_flag : bool Atomic.t;
  clock : int Atomic.t;
  grow_mu : Mutex.t;
  mutable cvals : int Atomic.t array;   (* by counter id *)
  mutable cbumps : int Atomic.t array;
  mutable hists : hstate option array;  (* by histogram id *)
  observations : int Atomic.t;  (** histogram/attribution sites crossed —
                                    folded into the bench's disabled-path
                                    overhead projection *)
  ring_mu : Mutex.t;
  mutable capacity : int;
  mutable ring : event option array;
  mutable ring_total : int;
  attr_mu : Mutex.t;
  attr : (string * string, attr_cell) Hashtbl.t;  (* (instr, unit) *)
  node_attr : (int, attr_cell) Hashtbl.t;         (* per-node; share unused *)
}

let default_capacity = 65_536

let create ?(label = "ctx") ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Metrics.create: capacity must be positive";
  let n = Mutex.protect catalogue_mu (fun () -> !n_counters) in
  {
    ctx_label = label;
    enabled_flag = Atomic.make false;
    clock = Atomic.make 0;
    grow_mu = Mutex.create ();
    cvals = Array.init n (fun _ -> Atomic.make 0);
    cbumps = Array.init n (fun _ -> Atomic.make 0);
    hists = Array.make (max 1 (Mutex.protect catalogue_mu (fun () -> !n_histograms))) None;
    observations = Atomic.make 0;
    ring_mu = Mutex.create ();
    capacity;
    ring = Array.make capacity None;
    ring_total = 0;
    attr_mu = Mutex.create ();
    attr = Hashtbl.create 32;
    node_attr = Hashtbl.create 8;
  }

let label ctx = ctx.ctx_label

(* --- the ambient context ------------------------------------------------ *)

let default = create ~label:"default" ()
let dls_key : ctx Domain.DLS.key = Domain.DLS.new_key (fun () -> default)
let current () = Domain.DLS.get dls_key

let with_ctx ctx f =
  let prev = Domain.DLS.get dls_key in
  Domain.DLS.set dls_key ctx;
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls_key prev) f

(* --- the switch and the clock ------------------------------------------- *)

(* How many contexts are currently enabled, process-wide.  The ambient
   gates ({!tracing}, {!bump}) read this single atomic instead of doing a
   DLS lookup per instrumentation site: with zero contexts enabled a gate
   costs one load and a branch (the OVERHEAD section of bench/main.ml
   holds every gated site of a solve under 2%). *)
let n_enabled = Atomic.make 0

let enabled ctx = Atomic.get ctx.enabled_flag

let enable ctx =
  if Atomic.compare_and_set ctx.enabled_flag false true then
    ignore (Atomic.fetch_and_add n_enabled 1)

let disable ctx =
  if Atomic.compare_and_set ctx.enabled_flag true false then
    ignore (Atomic.fetch_and_add n_enabled (-1))

let any_enabled () = Atomic.get n_enabled > 0
let now ctx = Atomic.get ctx.clock
let advance ctx cycles = if cycles > 0 then ignore (Atomic.fetch_and_add ctx.clock cycles)

(* --- counter cells ------------------------------------------------------ *)

(* Contexts created before a counter was registered grow their value
   arrays on first touch.  Growth replaces the arrays but copies the
   atomic cells by reference, so a reader racing the growth still lands
   on the same cell. *)
let grow_counters ctx cid =
  Mutex.protect ctx.grow_mu (fun () ->
      if cid >= Array.length ctx.cvals then begin
        let n = Mutex.protect catalogue_mu (fun () -> !n_counters) in
        let extend (old : int Atomic.t array) =
          Array.init (max n (cid + 1)) (fun i ->
              if i < Array.length old then old.(i) else Atomic.make 0)
        in
        ctx.cvals <- extend ctx.cvals;
        ctx.cbumps <- extend ctx.cbumps
      end)

let value_cell ctx (c : counter) =
  if c.cid >= Array.length ctx.cvals then grow_counters ctx c.cid;
  ctx.cvals.(c.cid)

let bump_cell ctx (c : counter) =
  if c.cid >= Array.length ctx.cbumps then grow_counters ctx c.cid;
  ctx.cbumps.(c.cid)

let add ctx c n =
  if n > 0 && Atomic.get ctx.enabled_flag then begin
    ignore (Atomic.fetch_and_add (value_cell ctx c) n);
    ignore (Atomic.fetch_and_add (bump_cell ctx c) 1)
  end

let value ctx c = Atomic.get (value_cell ctx c)

(* --- the ambient gates -------------------------------------------------- *)

let tracing () = Atomic.get n_enabled > 0 && Atomic.get (current ()).enabled_flag

let bump c n =
  if c.always && n > 0 then ignore (Atomic.fetch_and_add c.total n);
  if Atomic.get n_enabled > 0 then add (current ()) c n

let total_bumps ctx =
  Mutex.protect ctx.grow_mu (fun () ->
      Array.fold_left (fun acc b -> acc + Atomic.get b) 0 ctx.cbumps)

(* --- histogram cells ---------------------------------------------------- *)

let hstate_create () =
  {
    buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    hs_n = Atomic.make 0;
    hs_total = Atomic.make 0;
    hs_lo = Atomic.make max_int;
    hs_hi = Atomic.make min_int;
  }

let grow_hists ctx hid =
  Mutex.protect ctx.grow_mu (fun () ->
      if hid >= Array.length ctx.hists then begin
        let n = Mutex.protect catalogue_mu (fun () -> !n_histograms) in
        let old = ctx.hists in
        ctx.hists <-
          Array.init (max n (hid + 1)) (fun i ->
              if i < Array.length old then old.(i) else None)
      end)

let hstate ctx (h : histogram) =
  if h.hid >= Array.length ctx.hists then grow_hists ctx h.hid;
  match ctx.hists.(h.hid) with
  | Some s -> s
  | None ->
      Mutex.protect ctx.grow_mu (fun () ->
          match ctx.hists.(h.hid) with
          | Some s -> s
          | None ->
              let s = hstate_create () in
              ctx.hists.(h.hid) <- Some s;
              s)

let rec atomic_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then atomic_min cell v

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let observe ctx h v =
  if v >= 0 && Atomic.get ctx.enabled_flag then begin
    let s = hstate ctx h in
    ignore (Atomic.fetch_and_add s.buckets.(bucket_of_value v) 1);
    ignore (Atomic.fetch_and_add s.hs_n 1);
    ignore (Atomic.fetch_and_add s.hs_total v);
    atomic_min s.hs_lo v;
    atomic_max s.hs_hi v;
    ignore (Atomic.fetch_and_add ctx.observations 1)
  end

type hist_summary = {
  hcount : int;
  hsum : int;
  hmin : int;   (** 0 when empty *)
  hmax : int;   (** 0 when empty *)
  p50 : int;
  p95 : int;
  p99 : int;
}

let empty_summary =
  { hcount = 0; hsum = 0; hmin = 0; hmax = 0; p50 = 0; p95 = 0; p99 = 0 }

(* Nearest-rank percentile over the bucket counts: the lower bound of
   the bucket holding the ceil(p/100 * n)-th smallest observation —
   exact below 32, within 12.5% above. *)
let percentile_of_buckets counts total p =
  if total <= 0 then 0
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int total)) in
    let rank = max 1 (min total rank) in
    let acc = ref 0 and result = ref 0 and i = ref 0 in
    (try
       while !i < n_buckets do
         acc := !acc + counts.(!i);
         if !acc >= rank then begin
           result := bucket_lower_bound !i;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    !result
  end

let percentile ctx h p =
  match (if h.hid < Array.length ctx.hists then ctx.hists.(h.hid) else None) with
  | None -> 0
  | Some s ->
      let counts = Array.map Atomic.get s.buckets in
      percentile_of_buckets counts (Atomic.get s.hs_n) p

let hist_summary ctx h =
  match (if h.hid < Array.length ctx.hists then ctx.hists.(h.hid) else None) with
  | None -> empty_summary
  | Some s ->
      let n = Atomic.get s.hs_n in
      if n = 0 then empty_summary
      else begin
        let counts = Array.map Atomic.get s.buckets in
        {
          hcount = n;
          hsum = Atomic.get s.hs_total;
          hmin = Atomic.get s.hs_lo;
          hmax = Atomic.get s.hs_hi;
          p50 = percentile_of_buckets counts n 50.0;
          p95 = percentile_of_buckets counts n 95.0;
          p99 = percentile_of_buckets counts n 99.0;
        }
      end

(* --- attribution -------------------------------------------------------- *)

let attr_bump table mu key ~share ~busy ~flops =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt table key with
      | Some cell ->
          cell.share <- cell.share + share;
          cell.busy <- cell.busy + busy;
          cell.aflops <- cell.aflops + flops
      | None -> Hashtbl.add table key { share; busy; aflops = flops })

let attribute ctx ~instr ~unit_label ~share_cycles ~busy_cycles ~flops =
  if Atomic.get ctx.enabled_flag then begin
    attr_bump ctx.attr ctx.attr_mu (instr, unit_label) ~share:share_cycles
      ~busy:busy_cycles ~flops;
    ignore (Atomic.fetch_and_add ctx.observations 1)
  end

let attribute_node ctx ~node ~cycles ~flops =
  if Atomic.get ctx.enabled_flag then begin
    attr_bump ctx.node_attr ctx.attr_mu node ~share:0 ~busy:cycles ~flops;
    ignore (Atomic.fetch_and_add ctx.observations 1)
  end

type attr_row = {
  a_instr : string;
  a_unit : string;
  share_cycles : int;  (** instruction cycles apportioned to this unit *)
  busy_cycles : int;   (** full engaged duration *)
  flops : int;
}

let attribution ctx =
  let rows =
    Mutex.protect ctx.attr_mu (fun () ->
        Hashtbl.fold
          (fun (instr, u) cell acc ->
            {
              a_instr = instr;
              a_unit = u;
              share_cycles = cell.share;
              busy_cycles = cell.busy;
              flops = cell.aflops;
            }
            :: acc)
          ctx.attr [])
  in
  List.sort
    (fun a b ->
      match compare b.share_cycles a.share_cycles with
      | 0 -> compare (a.a_instr, a.a_unit) (b.a_instr, b.a_unit)
      | c -> c)
    rows

let node_attribution ctx =
  let rows =
    Mutex.protect ctx.attr_mu (fun () ->
        Hashtbl.fold (fun n cell acc -> (n, cell.busy, cell.aflops) :: acc)
          ctx.node_attr [])
  in
  List.sort compare rows

let total_observations ctx = Atomic.get ctx.observations

(* --- the span ring ------------------------------------------------------ *)

let set_capacity ctx n =
  if n < 1 then invalid_arg "Metrics.set_capacity";
  Mutex.protect ctx.ring_mu (fun () ->
      ctx.capacity <- n;
      ctx.ring <- Array.make n None;
      ctx.ring_total <- 0)

let record ctx ev =
  Mutex.protect ctx.ring_mu (fun () ->
      ctx.ring.(ctx.ring_total mod ctx.capacity) <- Some ev;
      ctx.ring_total <- ctx.ring_total + 1)

let span ctx ?(tid = 0) ?(args = []) ~cat ~name ~ts ~dur () =
  if Atomic.get ctx.enabled_flag then
    record ctx { ev_name = name; cat; phase = 'X'; ts; dur = max dur 0; tid; args }

let instant ctx ?(tid = 0) ?(args = []) ~cat ~name ~ts () =
  if Atomic.get ctx.enabled_flag then
    record ctx { ev_name = name; cat; phase = 'i'; ts; dur = 0; tid; args }

let events ctx =
  Mutex.protect ctx.ring_mu (fun () ->
      let cap = ctx.capacity and t = ctx.ring_total in
      let n = min t cap in
      List.init n (fun i ->
          match ctx.ring.((t - n + i) mod cap) with
          | Some ev -> ev
          | None -> assert false))

let dropped ctx =
  Mutex.protect ctx.ring_mu (fun () -> max 0 (ctx.ring_total - ctx.capacity))

(* --- reset -------------------------------------------------------------- *)

let reset ctx =
  Mutex.protect ctx.grow_mu (fun () ->
      Array.iter (fun a -> Atomic.set a 0) ctx.cvals;
      Array.iter (fun a -> Atomic.set a 0) ctx.cbumps;
      Array.iter
        (function
          | None -> ()
          | Some s ->
              Array.iter (fun b -> Atomic.set b 0) s.buckets;
              Atomic.set s.hs_n 0;
              Atomic.set s.hs_total 0;
              Atomic.set s.hs_lo max_int;
              Atomic.set s.hs_hi min_int)
        ctx.hists);
  Atomic.set ctx.observations 0;
  Mutex.protect ctx.ring_mu (fun () ->
      Array.fill ctx.ring 0 (Array.length ctx.ring) None;
      ctx.ring_total <- 0);
  Mutex.protect ctx.attr_mu (fun () ->
      Hashtbl.reset ctx.attr;
      Hashtbl.reset ctx.node_attr);
  Atomic.set ctx.clock 0

(* ====================================================================== *)
(* Snapshot and diff                                                      *)
(* ====================================================================== *)

type snapshot = {
  snap_label : string;
  snap_clock : int;
  snap_counters : (string * int) list;           (** non-zero, sorted by name *)
  snap_hists : (string * hist_summary) list;     (** non-empty, sorted by name *)
  snap_attr : attr_row list;
  snap_nodes : (int * int * int) list;           (** (node, cycles, flops) *)
  snap_events : int;
  snap_dropped : int;
}

let snapshot ctx =
  {
    snap_label = ctx.ctx_label;
    snap_clock = now ctx;
    snap_counters =
      List.filter_map
        (fun c ->
          let v = value ctx c in
          if v = 0 then None else Some (c.c_name, v))
        (registered_counters ());
    snap_hists =
      List.filter_map
        (fun h ->
          let s = hist_summary ctx h in
          if s.hcount = 0 then None else Some (h.h_name, s))
        (registered_histograms ());
    snap_attr = attribution ctx;
    snap_nodes = node_attribution ctx;
    snap_events = List.length (events ctx);
    snap_dropped = dropped ctx;
  }

(* Counter-wise difference [b - a] (negative entries kept — a diff is a
   comparison, not a monotonic registry).  Histogram percentiles are not
   subtractive, so a diffed histogram carries [b]'s distribution with
   [a]'s count/sum subtracted; attribution rows subtract pairwise. *)
let diff a b =
  let sub_assoc la lb =
    let names =
      List.sort_uniq compare (List.map fst la @ List.map fst lb)
    in
    List.filter_map
      (fun n ->
        let va = Option.value ~default:0 (List.assoc_opt n la)
        and vb = Option.value ~default:0 (List.assoc_opt n lb) in
        if vb - va = 0 then None else Some (n, vb - va))
      names
  in
  let hists =
    List.filter_map
      (fun (n, sb) ->
        let sa =
          Option.value ~default:empty_summary (List.assoc_opt n a.snap_hists)
        in
        let s = { sb with hcount = sb.hcount - sa.hcount; hsum = sb.hsum - sa.hsum } in
        if s.hcount = 0 && s.hsum = 0 then None else Some (n, s))
      b.snap_hists
  in
  let attr_key r = (r.a_instr, r.a_unit) in
  let attr =
    List.filter_map
      (fun rb ->
        let ra = List.find_opt (fun r -> attr_key r = attr_key rb) a.snap_attr in
        let sub f = f rb - Option.value ~default:0 (Option.map f ra) in
        let row =
          {
            rb with
            share_cycles = sub (fun r -> r.share_cycles);
            busy_cycles = sub (fun r -> r.busy_cycles);
            flops = sub (fun r -> r.flops);
          }
        in
        if row.share_cycles = 0 && row.busy_cycles = 0 && row.flops = 0 then None
        else Some row)
      b.snap_attr
  in
  let nodes =
    List.filter_map
      (fun (n, cb, fb) ->
        let ca, fa =
          match List.find_opt (fun (m, _, _) -> m = n) a.snap_nodes with
          | Some (_, c, f) -> (c, f)
          | None -> (0, 0)
        in
        if cb - ca = 0 && fb - fa = 0 then None else Some (n, cb - ca, fb - fa))
      b.snap_nodes
  in
  {
    snap_label = Printf.sprintf "%s - %s" b.snap_label a.snap_label;
    snap_clock = b.snap_clock - a.snap_clock;
    snap_counters = sub_assoc a.snap_counters b.snap_counters;
    snap_hists = hists;
    snap_attr = attr;
    snap_nodes = nodes;
    snap_events = b.snap_events - a.snap_events;
    snap_dropped = b.snap_dropped - a.snap_dropped;
  }

(* ====================================================================== *)
(* JSON encoding                                                          *)
(* ====================================================================== *)

let num i = Json.Num (float_of_int i)

let hist_summary_to_json s =
  Json.Obj
    [
      ("count", num s.hcount);
      ("sum", num s.hsum);
      ("min", num s.hmin);
      ("max", num s.hmax);
      ("p50", num s.p50);
      ("p95", num s.p95);
      ("p99", num s.p99);
    ]

let snapshot_to_json s =
  Json.Obj
    [
      ("label", Json.Str s.snap_label);
      ("clock_cycles", num s.snap_clock);
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, num v)) s.snap_counters));
      ( "histograms",
        Json.Obj (List.map (fun (n, h) -> (n, hist_summary_to_json h)) s.snap_hists) );
      ( "attribution",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("instr", Json.Str r.a_instr);
                   ("unit", Json.Str r.a_unit);
                   ("cycles", num r.share_cycles);
                   ("busy_cycles", num r.busy_cycles);
                   ("flops", num r.flops);
                 ])
             s.snap_attr) );
      ( "nodes",
        Json.List
          (List.map
             (fun (n, c, f) ->
               Json.Obj [ ("node", num n); ("cycles", num c); ("flops", num f) ])
             s.snap_nodes) );
      ("events", num s.snap_events);
      ("dropped_events", num s.snap_dropped);
    ]

(* ====================================================================== *)
(* Chrome trace-event export and the plain-text summary                   *)
(* ====================================================================== *)

let arg_to_json = function
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f
  | Str s -> Json.Str s

let event_to_json ev =
  let base =
    [
      ("name", Json.Str ev.ev_name);
      ("cat", Json.Str ev.cat);
      ("ph", Json.Str (String.make 1 ev.phase));
      ("ts", Json.Num (float_of_int ev.ts));
      ("pid", Json.Num 0.0);
      ("tid", Json.Num (float_of_int ev.tid));
    ]
  in
  let dur = if ev.phase = 'X' then [ ("dur", Json.Num (float_of_int ev.dur)) ] else [] in
  let args =
    if ev.args = [] then []
    else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) ev.args)) ]
  in
  Json.Obj (base @ dur @ args)

(* One final 'C' sample per non-zero counter, stamped at the clock's end,
   so counter totals are visible inside the trace viewer itself. *)
let counter_samples_json ctx ts =
  List.filter_map
    (fun c ->
      let v = value ctx c in
      if v = 0 then None
      else
        Some
          (Json.Obj
             [
               ("name", Json.Str c.c_name);
               ("cat", Json.Str "counter");
               ("ph", Json.Str "C");
               ("ts", Json.Num (float_of_int ts));
               ("pid", Json.Num 0.0);
               ("args", Json.Obj [ ("value", Json.Num (float_of_int v)) ]);
             ]))
    (registered_counters ())

let to_chrome ctx =
  let evs = events ctx in
  let ts_end = now ctx in
  let doc =
    Json.Obj
      [
        ( "traceEvents",
          Json.List (List.map event_to_json evs @ counter_samples_json ctx ts_end) );
        ("displayTimeUnit", Json.Str "ms");
        ( "otherData",
          Json.Obj
            [
              ("clock", Json.Str "simulated-cycles (1 us = 1 cycle)");
              ("dropped_events", Json.Num (float_of_int (dropped ctx)));
            ] );
        ( "counters",
          Json.Obj
            (List.filter_map
               (fun c ->
                 let v = value ctx c in
                 if v = 0 then None else Some (c.c_name, Json.Num (float_of_int v)))
               (registered_counters ())) );
      ]
  in
  Json.to_string doc

let summary ctx =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let evs = events ctx in
  out "trace summary: %d simulated cycles; %d event(s) recorded, %d dropped\n"
    (now ctx) (List.length evs) (dropped ctx);
  (* spans aggregated per (category, name): the per-phase view *)
  let agg : (string * string, int ref * int ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun ev ->
      if ev.phase = 'X' then begin
        let key = (ev.cat, ev.ev_name) in
        match Hashtbl.find_opt agg key with
        | Some (count, cycles) ->
            incr count;
            cycles := !cycles + ev.dur
        | None ->
            Hashtbl.add agg key (ref 1, ref ev.dur);
            order := key :: !order
      end)
    evs;
  if !order <> [] then begin
    out "spans (aggregated by phase):\n";
    out "  %-32s %10s %14s\n" "phase" "count" "cycles";
    List.iter
      (fun (cat, name) ->
        let count, cycles = Hashtbl.find agg (cat, name) in
        out "  %-32s %10d %14d\n" (cat ^ ":" ^ name) !count !cycles)
      (List.rev !order)
  end;
  let live_hists =
    List.filter_map
      (fun h ->
        let s = hist_summary ctx h in
        if s.hcount = 0 then None else Some (h, s))
      (registered_histograms ())
  in
  if live_hists <> [] then begin
    out "latency histograms (log-bucketed %s):\n"
      (match live_hists with (h, _) :: _ -> h.h_units | [] -> "cycles");
    out "  %-28s %10s %10s %10s %10s %10s %10s\n" "histogram" "count" "p50" "p95"
      "p99" "min" "max";
    List.iter
      (fun (h, s) ->
        out "  %-28s %10d %10d %10d %10d %10d %10d\n" h.h_name s.hcount s.p50
          s.p95 s.p99 s.hmin s.hmax)
      live_hists
  end;
  let live =
    List.filter (fun c -> value ctx c > 0) (registered_counters ())
  in
  if live <> [] then begin
    out "counters:\n";
    out "  %-28s %14s  %-10s %s\n" "counter" "value" "unit" "meaning";
    List.iter
      (fun c -> out "  %-28s %14d  %-10s %s\n" c.c_name (value ctx c) c.c_units c.c_desc)
      live
  end;
  Buffer.contents buf
