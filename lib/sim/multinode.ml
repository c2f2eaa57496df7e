(** The multi-node machine: a hypercube of nodes joined by the hyperspace
    router.

    The paper scopes its environment to single-node internals and quotes the
    machine-level figures (64 nodes, 128 Gbytes, 40 GFLOPS); this module
    provides the machine so those figures can be exercised: per-node
    simulation plus dimension-ordered message transfers whose cycle cost
    follows {!Nsc_arch.Router.transfer_cycles}.  Compute across nodes is
    synchronous-parallel: a step's cycle cost is the maximum over nodes. *)

open Nsc_arch

(* Observability: machine-level phases appear on trace timeline tid 1,
   leaving tid 0 to the per-node engine/sequencer spans. *)
module Metrics = Nsc_metrics.Metrics
module Fault = Nsc_fault.Fault

let machine_tid = 1

let h_exchange_cycles =
  Metrics.histogram ~name:"hist.exchange_cycles" ~units:"cycles"
    ~desc:"per-phase hypercube exchange latency"

let c_steps =
  Metrics.counter ~name:"machine.steps" ~units:"steps"
    ~desc:"synchronous compute steps across the hypercube"

let c_exchanges =
  Metrics.counter ~name:"machine.exchanges" ~units:"phases"
    ~desc:"communication phases executed between compute steps"

let c_overlap =
  Metrics.counter ~name:"comm.overlap_cycles" ~units:"cycles"
    ~desc:"exchange cycles hidden behind overlapped compute at completion"

let c_coalesced =
  Metrics.counter ~name:"comm.coalesced_messages" ~units:"messages"
    ~desc:"messages folded into a shared (src, dst) routed transfer"

(* --- the persistent domain pool ----------------------------------------- *)

(* A machine-lifetime pool of worker domains, so a solve that runs
   hundreds of compute steps pays domain spawn/join once, not per step.
   Workers park on a condition variable between steps; a step publishes a
   job and an epoch under the mutex, wakes the workers, runs its own
   stripe on the calling domain, then waits for the fan-in.  The mutex
   acquire/release around each step gives the happens-before edges that
   make the workers' result writes visible to the caller. *)
type pool = {
  size : int;  (** worker domains, excluding the calling domain *)
  mu : Mutex.t;
  work : Condition.t;  (** signalled when a job is published or on shutdown *)
  idle : Condition.t;  (** signalled when the last worker finishes a job *)
  mutable job : (int -> unit) option;  (** workers call [job w], [w] in 1..size *)
  mutable epoch : int;
  mutable pending : int;
  mutable stop : bool;
  mutable error : exn option;  (** first exception raised by a worker *)
  mutable workers : unit Domain.t list;
}

(* Pools whose workers are still parked; drained by [at_exit] so the
   runtime never shuts down under a blocked domain. *)
let live_pools : pool list ref = ref []
let live_mu = Mutex.create ()

let pool_shutdown (p : pool) =
  Mutex.protect p.mu (fun () ->
      p.stop <- true;
      Condition.broadcast p.work);
  List.iter Domain.join p.workers;
  p.workers <- [];
  Mutex.protect live_mu (fun () ->
      live_pools := List.filter (fun q -> q != p) !live_pools)

let () = at_exit (fun () -> List.iter pool_shutdown !live_pools)

let rec pool_worker (p : pool) w seen =
  Mutex.lock p.mu;
  while (not p.stop) && p.epoch = seen do
    Condition.wait p.work p.mu
  done;
  if p.stop then Mutex.unlock p.mu
  else begin
    let epoch = p.epoch in
    let job = Option.value ~default:(fun _ -> ()) p.job in
    Mutex.unlock p.mu;
    (try job w
     with exn ->
       Mutex.protect p.mu (fun () -> if p.error = None then p.error <- Some exn));
    Mutex.protect p.mu (fun () ->
        p.pending <- p.pending - 1;
        if p.pending = 0 then Condition.broadcast p.idle);
    pool_worker p w epoch
  end

let pool_create size =
  let p =
    {
      size;
      mu = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      job = None;
      epoch = 0;
      pending = 0;
      stop = false;
      error = None;
      workers = [];
    }
  in
  p.workers <- List.init size (fun w -> Domain.spawn (fun () -> pool_worker p (w + 1) 0));
  Mutex.protect live_mu (fun () -> live_pools := p :: !live_pools);
  p

(* Run one job across the pool: workers take stripes 1..size while the
   calling domain takes stripe 0, and the call returns only after every
   worker has finished.  Exceptions (the caller's own stripe first, then
   the first worker failure) are re-raised after the fan-in so the pool
   stays consistent. *)
let pool_run (p : pool) (job : int -> unit) =
  (* Worker domains park between jobs, so their domain-local ambient
     metric context is whatever the last job left; re-point them at the
     caller's context for this job, so an instrumented parallel step
     lands its counters where a sequential one would. *)
  let ctx = Metrics.current () in
  let job w = Metrics.with_ctx ctx (fun () -> job w) in
  Mutex.protect p.mu (fun () ->
      p.job <- Some job;
      p.error <- None;
      p.pending <- p.size;
      p.epoch <- p.epoch + 1;
      Condition.broadcast p.work);
  let caller_error = (try job 0; None with exn -> Some exn) in
  Mutex.lock p.mu;
  while p.pending > 0 do
    Condition.wait p.idle p.mu
  done;
  p.job <- None;
  let worker_error = p.error in
  Mutex.unlock p.mu;
  (match caller_error with Some exn -> raise exn | None -> ());
  match worker_error with Some exn -> raise exn | None -> ()

type t = {
  params : Params.t;
  dim : int;
  nodes : Node.t array;
  mutable cycles : int;         (** machine time elapsed, in cycles *)
  mutable flops : int;          (** total useful flops across nodes *)
  mutable comm_cycles : int;    (** portion of [cycles] spent communicating *)
  mutable overlap_cycles : int; (** exchange cycles hidden behind compute *)
  mutable contention_cycles : int;  (** serialisation surplus on shared sources *)
  mutable words_moved : int;
  mutable pool : pool option;   (** persistent worker domains, grown on demand *)
  fault : Fault.t option;       (** the run's fault model, costing every message *)
}

let create ?(dim : int option) ?fault (p : Params.t) =
  let dim = Option.value ~default:p.hypercube_dim dim in
  (* Nodes are allocated eagerly, so the bound caps the machine at 1024
     nodes — 16x the paper's 64-node target, far below the 65,536 a
     dimension-16 cube would demand up front. *)
  if dim < 0 || dim > 10 then
    invalid_arg "Multinode.create: dimension must be between 0 and 10 (1..1024 nodes)";
  {
    params = { p with hypercube_dim = dim };
    dim;
    nodes = Array.init (Router.nodes_of_dim dim) (fun _ -> Node.create p);
    cycles = 0;
    flops = 0;
    comm_cycles = 0;
    overlap_cycles = 0;
    contention_cycles = 0;
    words_moved = 0;
    pool = None;
    fault;
  }

(** Join and release the machine's worker domains (no-op without a pool);
    a later parallel step recreates the pool on demand. *)
let shutdown t =
  match t.pool with
  | None -> ()
  | Some p ->
      pool_shutdown p;
      t.pool <- None

(* The machine's pool, created on first use and grown (by replacement)
   when a step asks for more workers than it was built with. *)
let ensure_pool t ~workers =
  match t.pool with
  | Some p when p.size >= workers -> p
  | prev ->
      (match prev with Some p -> pool_shutdown p | None -> ());
      let p = pool_create workers in
      t.pool <- Some p;
      p

let n_nodes t = Array.length t.nodes

let node t i =
  if i < 0 || i >= n_nodes t then invalid_arg "Multinode.node";
  t.nodes.(i)

(** Apply [f] to every node and collect the results in node order,
    optionally fanning the calls across [domains] OCaml domains drawn
    from the machine's persistent pool.  Node 0 runs first on the
    calling domain, seeding a pre-sized result buffer (no option boxing,
    no unwrap); stripes then cover the remaining nodes, each slot
    written exactly once by the stripe owning it.  [domains <= 1] (the
    default) runs sequentially. *)
let parallel_iter ?(domains = 1) t (f : int -> Node.t -> 'a) : 'a array =
  let n = Array.length t.nodes in
  if domains <= 1 || n <= 1 then Array.init n (fun i -> f i t.nodes.(i))
  else begin
    let d = min domains n in
    let r0 = f 0 t.nodes.(0) in
    let results = Array.make n r0 in
    let p = ensure_pool t ~workers:(d - 1) in
    (* a reused pool may be larger than this step needs: stripes beyond
       [d] would double-assign node owners, so excess workers idle *)
    pool_run p (fun w ->
        if w < d then begin
          let i = ref (if w = 0 then d else w) in
          while !i < n do
            results.(!i) <- f !i t.nodes.(!i);
            i := !i + d
          done
        end);
    results
  end

(* --- the shared pool ----------------------------------------------------- *)

(* A process-wide persistent pool for parallel work that is not tied to a
   machine — batched kernel execution fans replicas across it.  Created on
   first use, grown by replacement, drained by the same [at_exit] hook as
   the machine pools. *)
let shared_pool : pool option ref = ref None
let shared_mu = Mutex.create ()

let ensure_shared ~workers =
  Mutex.protect shared_mu (fun () ->
      match !shared_pool with
      | Some p when p.size >= workers -> p
      | prev ->
          (match prev with Some p -> pool_shutdown p | None -> ());
          let p = pool_create workers in
          shared_pool := Some p;
          p)

(** Apply [f] to every index in [0, n), fanning the calls across the
    process-wide persistent domain pool ([domains <= 1] runs sequentially
    on the caller, which also takes a stripe otherwise).  The determinism
    contract of {!parallel_iter} applies: [f i] must touch only state
    owned by index [i], so scheduling reorders execution but never any
    index's inputs or outputs.  One caller at a time: the shared pool
    runs a single job, so nested or concurrent calls must keep
    [domains = 1]. *)
let parallel_for ?(domains = 1) ~n (f : int -> unit) =
  if n > 0 then begin
    if domains <= 1 || n = 1 then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let d = min domains n in
      let p = ensure_shared ~workers:(d - 1) in
      pool_run p (fun w ->
          if w < d then begin
            let i = ref w in
            while !i < n do
              f !i;
              i := !i + d
            done
          end)
    end
  end

(** Run one synchronous compute step: [f] produces per-node (cycles, flops)
    — typically from {!Sequencer.run} on each node — and the machine
    advances by the slowest node's cycles.  [domains] fans the per-node
    work across OCaml domains; counters are accumulated in node order
    after the fan-in, so results are identical to a sequential step. *)
let compute_step ?domains t (f : int -> Node.t -> int * int) =
  let ts = if Metrics.tracing () then Metrics.now (Metrics.current ()) else 0 in
  let per_node = parallel_iter ?domains t f in
  let worst = ref 0 in
  Array.iter
    (fun (cycles, flops) ->
      t.flops <- t.flops + flops;
      if cycles > !worst then worst := cycles)
    per_node;
  t.cycles <- t.cycles + !worst;
  if Metrics.tracing () then begin
    let ctx = Metrics.current () in
    Array.iteri
      (fun node (cycles, flops) -> Metrics.attribute_node ctx ~node ~cycles ~flops)
      per_node;
    Metrics.add ctx c_steps 1;
    Metrics.span ctx ~tid:machine_tid ~cat:"machine" ~name:"compute_step" ~ts
      ~dur:!worst
      ~args:
        [ ("nodes", Metrics.Int (Array.length t.nodes));
          ("worst_cycles", Metrics.Int !worst) ]
      ()
  end

(** One message of a communication phase. *)
type message = { src : Router.node_id; dst : Router.node_id; words : int }

(* Cost one message now, defer its ledger bookkeeping.  The parts that
   must stay in deterministic stream order — the seeded retry draw and a
   retry-exhaustion [kill_link] escalation — run immediately, at post
   time; the returned thunk carries only the recovery-ledger notes, so an
   asynchronous exchange can resolve its bookkeeping at completion
   without perturbing the draw stream. *)
let message_cost_deferred t (m : message) : int * bool * (unit -> unit) =
  if m.src = m.dst then (0, true, ignore)
  else
    match t.fault with
    | None ->
        (Router.transfer_cycles t.params ~src:m.src ~dst:m.dst ~words:m.words, true, ignore)
    | Some f -> (
        let link_ok a b = not (Fault.link_dead f a b) in
        match Router.route_fault_aware ~dim:t.dim ~src:m.src ~dst:m.dst ~link_ok with
        | None ->
            ( 0,
              false,
              fun () ->
                Fault.note_dead_link_hit f;
                Fault.note_unrecovered f 1 )
        | Some (path, detoured) -> (
            let detour_notes =
              if detoured then (fun () ->
                Fault.note_dead_link_hit f;
                Fault.note_rerouted f
                  ~extra_hops:(List.length path - Router.distance m.src m.dst);
                Fault.note_recovered f 1)
              else ignore
            in
            let { Fault.failures; backoff; exhausted } = Fault.draw_link_failures f in
            if not exhausted then
              ( backoff
                + Router.transfer_cycles_hops t.params ~hops:(List.length path)
                    ~words:m.words,
                true,
                fun () ->
                  detour_notes ();
                  Fault.note_recovered f failures )
            else begin
              (* The first hop kept failing through the whole retry budget:
                 declare that link dead and detour around it. *)
              Fault.kill_link f m.src (List.hd path);
              match Router.route_avoiding ~dim:t.dim ~src:m.src ~dst:m.dst ~link_ok with
              | Some path' ->
                  ( backoff
                    + Router.transfer_cycles_hops t.params ~hops:(List.length path')
                        ~words:m.words,
                    true,
                    fun () ->
                      detour_notes ();
                      Fault.note_rerouted f
                        ~extra_hops:(List.length path' - Router.distance m.src m.dst);
                      Fault.note_recovered f failures )
              | None ->
                  ( backoff,
                    false,
                    fun () ->
                      detour_notes ();
                      Fault.note_unrecovered f failures )
            end))

(** Cycle cost of one message and whether it is delivered.

    Clean machine: the dimension-ordered transfer cost.  Under the
    machine's fault model the message runs the recovery ladder:
    dead links on the e-cube route force an adaptive detour
    ({!Router.route_fault_aware}); transient glitches are retried with
    exponential backoff up to the retry budget; retry exhaustion
    escalates by declaring the first-hop link dead and detouring around
    it.  A message is undelivered only when the surviving links
    disconnect the pair — booked as unrecovered, never dropped
    silently. *)
let message_cost t (m : message) : int * bool =
  let cycles, delivered, notes = message_cost_deferred t m in
  notes ();
  (cycles, delivered)

(* Coalesce messages per (src, dst) pair, preserving first-appearance
   order: one routed transfer carries the pair's summed words, amortising
   the per-message hop latency; each member still remembers where its own
   payload lands.  Order determines the seeded fault draw consumed per
   transfer, so it must be (and is) deterministic in the input order. *)
let coalesce (msgs : (message * 'a) list) : (message * (message * 'a) list) list =
  let tbl : (int * int, (message * 'a) list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun ((m : message), payload) ->
      let key = (m.src, m.dst) in
      match Hashtbl.find_opt tbl key with
      | None ->
          Hashtbl.add tbl key (ref [ (m, payload) ]);
          order := key :: !order
      | Some members -> members := (m, payload) :: !members)
    msgs;
  List.rev_map
    (fun key ->
      let members = List.rev !(Hashtbl.find tbl key) in
      let words = List.fold_left (fun acc ((m : message), _) -> acc + m.words) 0 members in
      let m0 = fst (List.hd members) in
      ({ m0 with words }, members))
    !order

(** An exchange posted by {!exchange_start} and not yet completed by
    {!exchange_finish}. *)
type in_flight = {
  fl_cycles : int;       (** full serialised phase cost *)
  fl_contention : int;   (** serialisation surplus on shared sources *)
  fl_messages : int;     (** messages posted *)
  fl_transfers : int;    (** coalesced routed transfers *)
  fl_words : int;        (** payload words delivered *)
  fl_notes : (unit -> unit) list;  (** deferred recovery-ledger notes *)
  mutable fl_done : bool;
}

(** Post a communication phase without blocking machine time: messages are
    coalesced per (src, dst) pair into single routed transfers, costed
    through the recovery ladder (the seeded fault draws — and any
    retry-exhaustion link kill — are consumed here, once per transfer, in
    message order), and delivered payloads land in the destination planes
    immediately, double-buffered boundary style: the simulator moves the
    data eagerly so an overlapped compute step can run, and defers the
    machine-time charge and the ledger bookkeeping to
    {!exchange_finish}.  Undeliverable payloads never land. *)
let exchange_start t (msgs : (message * (float array * int * int)) list) : in_flight =
  let groups = coalesce msgs in
  let costed =
    List.map
      (fun ((cm : message), members) ->
        let cycles, delivered, notes = message_cost_deferred t cm in
        (cm, members, cycles, delivered, notes))
      groups
  in
  let cycles, contention =
    Router.phase_cost
      (List.map (fun ((cm : message), _, c, _, _) -> (cm.src, cm.dst, c)) costed)
  in
  let words = ref 0 in
  List.iter
    (fun ((cm : message), members, _, delivered, _) ->
      if cm.src <> cm.dst && delivered then
        List.iter
          (fun ((m : message), (payload, dst_plane, dst_base)) ->
            Node.load_array t.nodes.(m.dst) ~plane:dst_plane ~base:dst_base payload;
            words := !words + Array.length payload)
          members)
    costed;
  t.words_moved <- t.words_moved + !words;
  {
    fl_cycles = cycles;
    fl_contention = contention;
    fl_messages = List.length msgs;
    fl_transfers = List.length groups;
    fl_words = !words;
    fl_notes = List.map (fun (_, _, _, _, notes) -> notes) costed;
    fl_done = false;
  }

(** Complete a posted exchange: resolve the deferred recovery-ledger
    bookkeeping and advance machine time by the phase cost *minus*
    [overlapped_cycles] of compute the caller ran while the messages were
    in flight — so a step costs [max (compute, comm)], never
    [compute + comm].  The hidden portion is booked on
    [t.overlap_cycles] (and the [comm.overlap_cycles] counter); the
    serialisation surplus goes to [t.contention_cycles] and
    [router.contention_cycles] as in the synchronous path.  Completing
    the same handle twice raises [Invalid_argument]. *)
let exchange_finish ?(overlapped_cycles = 0) t (h : in_flight) =
  if h.fl_done then invalid_arg "Multinode.exchange_finish: handle already completed";
  h.fl_done <- true;
  List.iter (fun notes -> notes ()) h.fl_notes;
  let hidden = min h.fl_cycles (max 0 overlapped_cycles) in
  let visible = h.fl_cycles - hidden in
  t.cycles <- t.cycles + visible;
  t.comm_cycles <- t.comm_cycles + visible;
  t.overlap_cycles <- t.overlap_cycles + hidden;
  t.contention_cycles <- t.contention_cycles + h.fl_contention;
  if Metrics.tracing () then begin
    let ctx = Metrics.current () in
    let ts = Metrics.now ctx in
    Metrics.advance ctx visible;
    Metrics.add ctx c_exchanges 1;
    Metrics.add ctx Router.c_contention h.fl_contention;
    Metrics.add ctx c_overlap hidden;
    Metrics.add ctx c_coalesced (h.fl_messages - h.fl_transfers);
    Metrics.observe ctx h_exchange_cycles h.fl_cycles;
    Metrics.span ctx ~tid:machine_tid ~cat:"machine" ~name:"exchange" ~ts ~dur:visible
      ~args:
        [ ("messages", Metrics.Int h.fl_messages);
          ("transfers", Metrics.Int h.fl_transfers);
          ("words", Metrics.Int h.fl_words);
          ("overlapped", Metrics.Int hidden) ]
      ()
  end

(** Execute a communication phase synchronously: move the payloads between
    plane stores and advance machine time by the full phase cost —
    exactly {!exchange_start} followed by an immediate {!exchange_finish}
    with no overlap credit, so the synchronous and asynchronous paths
    coalesce, cost, draw and deliver identically.  Messages whose
    recovery ladder fails (the surviving links disconnect src from dst)
    are not delivered; they are booked on the fault ledger as
    unrecovered. *)
let exchange t (msgs : (message * (float array * int * int)) list) =
  exchange_finish t (exchange_start t msgs)

(** Aggregate sustained GFLOPS of the machine so far (0.0 on a machine
    that has advanced zero cycles — never a division by zero). *)
let gflops t =
  if t.cycles = 0 then 0.0
  else float_of_int t.flops *. t.params.clock_mhz /. float_of_int t.cycles /. 1000.0

(** Fraction of total exchange cycles hidden behind overlapped compute:
    [overlap / (comm + overlap)], or 0.0 when the machine has exchanged
    nothing. *)
let overlap_ratio t =
  let total = t.comm_cycles + t.overlap_cycles in
  if total = 0 then 0.0 else float_of_int t.overlap_cycles /. float_of_int total

let reset_counters t =
  t.cycles <- 0;
  t.flops <- 0;
  t.comm_cycles <- 0;
  t.overlap_cycles <- 0;
  t.contention_cycles <- 0;
  t.words_moved <- 0
