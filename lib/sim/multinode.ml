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
    fault;
  }

let n_nodes t = Array.length t.nodes

let node t i =
  if i < 0 || i >= n_nodes t then invalid_arg "Multinode.node";
  t.nodes.(i)

(** Run one synchronous compute step: [f] produces per-node (cycles, flops)
    — typically from {!Sequencer.run} on each node — and the machine
    advances by the slowest node's cycles.  Nodes run in node order on
    the calling domain. *)
let compute_step t (f : int -> Node.t -> int * int) =
  let tracing = Metrics.tracing () in
  let ctx = Metrics.current () in
  let ts = if tracing then Metrics.now ctx else 0 in
  let worst = ref 0 in
  for node = 0 to Array.length t.nodes - 1 do
    let cycles, flops = f node t.nodes.(node) in
    t.flops <- t.flops + flops;
    if cycles > !worst then worst := cycles;
    if tracing then Metrics.attribute_node ctx ~node ~cycles ~flops
  done;
  t.cycles <- t.cycles + !worst;
  if tracing then begin
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

(** One message with its addresses: [msg.words] words from plane
    [src_plane] at [src_base] on node [msg.src] to plane [dst_plane] at
    [dst_base] on node [msg.dst]. *)
type route = {
  msg : message;
  src_plane : int;
  src_base : int;
  dst_plane : int;
  dst_base : int;
}

(** A store-to-store copy of [count] consecutive words. *)
type copy = {
  from_store : Memory.store;
  from_base : int;
  to_store : Memory.store;
  to_base : int;
  count : int;
}

let copy (c : copy) =
  Memory.copy_words ~src:c.from_store ~src_base:c.from_base ~dst:c.to_store
    ~dst_base:c.to_base ~count:c.count

(* One routed transfer of a plan: a (src, dst) pair's coalesced message
   (the members' summed words) and its members' copies, in message
   order, with what the current exchange made of it. *)
type group = {
  transfer : message;
  members : copy array;
  mutable cost : int;
  mutable delivered : bool;
  mutable notes : unit -> unit;  (** deferred recovery-ledger notes *)
}

(* A communication phase compiled once: everything an exchange needs
   that does not change between exchanges, plus the state of the one
   exchange of it in flight.  See multinode.mli. *)
type plan = {
  owner : Node.t array;  (** the nodes of the machine it was compiled for *)
  groups : group array;  (** first-appearance order of the pairs *)
  messages : int;
  clean_cycles : int;  (** the phase cost on a clean machine *)
  clean_contention : int;
  source_sum : int array;  (** per-node scratch of the phase costing *)
  source_longest : int array;
  mutable phase : int;  (** the exchange in flight: its phase cost, *)
  mutable contention : int;  (** its serialisation surplus, *)
  mutable delivered_words : int;  (** the words it delivered *)
  mutable posted : bool;  (** and whether it awaits completion *)
}

type in_flight = plan

(* The phase cost of the groups' current costs: transfers between
   distinct pairs proceed in parallel, transfers leaving one source
   queue on its links, so the phase costs the slowest source's
   serialised total; the contention is each source's total minus its
   longest single transfer, summed over sources.  Self-transfers and
   zero-cost transfers are free. *)
let cost_phase (pl : plan) =
  Array.fill pl.source_sum 0 (Array.length pl.source_sum) 0;
  Array.fill pl.source_longest 0 (Array.length pl.source_longest) 0;
  for i = 0 to Array.length pl.groups - 1 do
    let g = pl.groups.(i) in
    let src = g.transfer.src in
    if src <> g.transfer.dst && g.cost > 0 then begin
      pl.source_sum.(src) <- pl.source_sum.(src) + g.cost;
      pl.source_longest.(src) <- max pl.source_longest.(src) g.cost
    end
  done;
  let phase = ref 0 and contention = ref 0 in
  for src = 0 to Array.length pl.source_sum - 1 do
    phase := max !phase pl.source_sum.(src);
    contention := !contention + (pl.source_sum.(src) - pl.source_longest.(src))
  done;
  pl.phase <- !phase;
  pl.contention <- !contention

(** Compile a communication phase.  Messages are coalesced per (src, dst)
    pair, in first-appearance order: one routed transfer carries the
    pair's summed words, amortising the per-message hop latency, and
    each member becomes a store-to-store copy between the two nodes'
    planes.  On a clean machine the phase cost is computed here, once. *)
let plan (t : t) (routes : route list) : plan =
  let n = n_nodes t in
  let pairs : (int * int, route list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (r : route) ->
      let src = r.msg.src and dst = r.msg.dst in
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg "Multinode.plan: a message names a node outside the machine";
      match Hashtbl.find_opt pairs (src, dst) with
      | None ->
          Hashtbl.add pairs (src, dst) (ref [ r ]);
          order := (src, dst) :: !order
      | Some members -> members := r :: !members)
    routes;
  let group (src, dst) =
    let members = List.rev !(Hashtbl.find pairs (src, dst)) in
    let words = List.fold_left (fun acc (r : route) -> acc + r.msg.words) 0 members in
    let copy_of (r : route) =
      {
        from_store = Node.plane t.nodes.(src) r.src_plane;
        from_base = r.src_base;
        to_store = Node.plane t.nodes.(dst) r.dst_plane;
        to_base = r.dst_base;
        count = r.msg.words;
      }
    in
    {
      transfer = { src; dst; words };
      members = Array.of_list (List.map copy_of members);
      cost = Router.transfer_cost t.params ~hops:(Router.distance src dst) ~words;
      delivered = true;
      notes = ignore;
    }
  in
  let pl =
    {
      owner = t.nodes;
      groups = Array.of_list (List.rev_map group !order);
      messages = List.length routes;
      clean_cycles = 0;
      clean_contention = 0;
      source_sum = Array.make n 0;
      source_longest = Array.make n 0;
      phase = 0;
      contention = 0;
      delivered_words = 0;
      posted = false;
    }
  in
  cost_phase pl;
  { pl with clean_cycles = pl.phase; clean_contention = pl.contention }

(** Post a compiled communication phase without blocking machine time.
    Clean machine: the phase costs what {!plan} computed.  Under the
    machine's fault model every transfer is costed through the recovery
    ladder, in plan order, so the seeded fault draws — and any
    retry-exhaustion link kill — are consumed here, once per transfer.
    Delivered members are copied into the destination planes
    immediately, double-buffered boundary style: the simulator moves the
    data eagerly so an overlapped compute step can run, and defers the
    machine-time charge and the ledger bookkeeping to
    {!exchange_finish}.  Undeliverable members never land. *)
let exchange_start (t : t) (pl : plan) : in_flight =
  if pl.owner != t.nodes then invalid_arg "Multinode.exchange_start: a plan of another machine";
  if pl.posted then invalid_arg "Multinode.exchange_start: the plan is already in flight";
  (match t.fault with
  | None ->
      pl.phase <- pl.clean_cycles;
      pl.contention <- pl.clean_contention;
      (* the router's counters book every transfer of every exchange *)
      if Metrics.tracing () then
        for i = 0 to Array.length pl.groups - 1 do
          let m = pl.groups.(i).transfer in
          Router.note_transfer ~hops:(Router.distance m.src m.dst) ~words:m.words
        done
  | Some _ ->
      for i = 0 to Array.length pl.groups - 1 do
        let g = pl.groups.(i) in
        let cost, delivered, notes = message_cost_deferred t g.transfer in
        g.cost <- cost;
        g.delivered <- delivered;
        g.notes <- notes
      done;
      cost_phase pl);
  let words = ref 0 in
  for i = 0 to Array.length pl.groups - 1 do
    let g = pl.groups.(i) in
    if g.transfer.src <> g.transfer.dst && g.delivered then
      for j = 0 to Array.length g.members - 1 do
        let c = g.members.(j) in
        copy c;
        words := !words + c.count
      done
  done;
  t.words_moved <- t.words_moved + !words;
  pl.delivered_words <- !words;
  pl.posted <- true;
  pl

(** Complete a posted exchange: resolve the deferred recovery-ledger
    bookkeeping and advance machine time by the phase cost *minus*
    [overlapped_cycles] of compute the caller ran while the messages were
    in flight — so a step costs [max (compute, comm)], never
    [compute + comm].  The hidden portion is booked on
    [t.overlap_cycles] (and the [comm.overlap_cycles] counter); the
    serialisation surplus goes to [t.contention_cycles] and
    [router.contention_cycles] as in the synchronous path.  Completing
    the same handle twice raises [Invalid_argument]. *)
let exchange_finish ?(overlapped_cycles = 0) (t : t) (h : in_flight) =
  if not h.posted then invalid_arg "Multinode.exchange_finish: handle already completed";
  h.posted <- false;
  if Option.is_some t.fault then
    for i = 0 to Array.length h.groups - 1 do
      let g = h.groups.(i) in
      g.notes ();
      g.notes <- ignore
    done;
  let hidden = min h.phase (max 0 overlapped_cycles) in
  let visible = h.phase - hidden in
  t.cycles <- t.cycles + visible;
  t.comm_cycles <- t.comm_cycles + visible;
  t.overlap_cycles <- t.overlap_cycles + hidden;
  t.contention_cycles <- t.contention_cycles + h.contention;
  if Metrics.tracing () then begin
    let ctx = Metrics.current () in
    let ts = Metrics.now ctx in
    let transfers = Array.length h.groups in
    Metrics.advance ctx visible;
    Metrics.add ctx c_exchanges 1;
    Metrics.add ctx Router.c_contention h.contention;
    Metrics.add ctx c_overlap hidden;
    Metrics.add ctx c_coalesced (h.messages - transfers);
    Metrics.observe ctx h_exchange_cycles h.phase;
    Metrics.span ctx ~tid:machine_tid ~cat:"machine" ~name:"exchange" ~ts ~dur:visible
      ~args:
        [ ("messages", Metrics.Int h.messages);
          ("transfers", Metrics.Int transfers);
          ("words", Metrics.Int h.delivered_words);
          ("overlapped", Metrics.Int hidden) ]
      ()
  end

(** Execute a communication phase synchronously: move the words between
    plane stores and advance machine time by the full phase cost —
    exactly {!exchange_start} followed by an immediate {!exchange_finish}
    with no overlap credit, so the synchronous and asynchronous paths
    cost, draw and deliver identically.  Messages whose recovery ladder
    fails (the surviving links disconnect src from dst) are not
    delivered; they are booked on the fault ledger as unrecovered. *)
let exchange t (pl : plan) = exchange_finish t (exchange_start t pl)

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
