(** The deterministic fault model and its recovery ledger.

    The NSC is a 64-node machine; at that scale transient hardware faults
    are an operating condition, not an anomaly — the paper's own
    "elaborate interrupt scheme" exists to trap runtime exceptions.  This
    module is the single source of faults for the whole simulator: a
    seeded splitmix64 stream ({!Prng}) drives every injection decision, so
    one [--fault-seed] reproduces a whole machine run's fault schedule
    bit-for-bit.

    The model is a value: a run carries it (or [None]) in its run state,
    the engine, multi-node exchange and checkpointed solvers consult that
    value at their injection points, and a clean run's every site costs
    one match on [None].  Two runs with two models share nothing, so
    faulted runs may proceed on several domains at once.

    Accounting is double-entry: every injected fault must end up either
    recovered or unrecovered ({!outstanding} reports the difference, and
    the CLI refuses to let it stay non-zero).  Each model carries its own
    ledger, which counts always (it is the fault report's data source);
    every entry also counts into the ambient metric context's [fault.*]
    counter when that context is enabled, so fault activity appears in
    trace digests and Chrome exports alongside the rest of the machine's
    counters. *)

module Metrics = Nsc_metrics.Metrics

(* --- the fault specification ------------------------------------------- *)

(** What to inject, with per-event probabilities.  The unit of a "draw"
    differs per kind: transient link faults and DMA stalls are drawn per
    executed transfer (a DMA stream or an inter-node message), FU faults
    once per executed pipeline instruction, and memory corruption once per
    solver sweep attempt. *)
type spec = {
  transient_link_p : float;  (** per-transfer transient link glitch *)
  dead_links : (int * int) list;  (** permanently dead links, as (lo, hi) node pairs *)
  mem_corrupt_p : float;     (** per-sweep memory word corruption *)
  dma_stall_p : float;       (** per-transfer DMA engine stall *)
  dma_stall_cycles : int;    (** cycles lost per stall *)
  fu_fault_p : float;        (** per-instruction FU arithmetic fault *)
  max_retries : int;         (** transient-fault retry budget per transfer *)
  backoff_cycles : int;      (** first retry's backoff; doubles per retry *)
}

let none =
  {
    transient_link_p = 0.0;
    dead_links = [];
    mem_corrupt_p = 0.0;
    dma_stall_p = 0.0;
    dma_stall_cycles = 64;
    fu_fault_p = 0.0;
    max_retries = 4;
    backoff_cycles = 16;
  }

let is_none s =
  s.transient_link_p = 0.0 && s.dead_links = [] && s.mem_corrupt_p = 0.0
  && s.dma_stall_p = 0.0 && s.fu_fault_p = 0.0

let link_key a b = (min a b, max a b)

(* Grammar (documented in docs/FAULTS.md): clauses separated by commas,
   each clause a kind followed by colon-separated parameters —
     transient-link:p=0.01[:retries=4][:backoff=16]
     dead-link:A-B
     mem-corrupt:p=0.001
     dma-stall:p=0.001[:cycles=64]
     fu-fault:p=1e-6                                                     *)
let parse str : (spec, string) result =
  let ( let* ) = Result.bind in
  let kv_of tok =
    match String.index_opt tok '=' with
    | Some i ->
        Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
    | None -> None
  in
  let prob kvs clause =
    match List.assoc_opt "p" kvs with
    | None -> Error (Printf.sprintf "%s needs p=PROB" clause)
    | Some v -> (
        match float_of_string_opt v with
        | Some p when p >= 0.0 && p <= 1.0 -> Ok p
        | _ -> Error (Printf.sprintf "%s: bad probability '%s' (want 0..1)" clause v))
  in
  let pos_int kvs key default clause =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> Ok n
        | _ -> Error (Printf.sprintf "%s: bad %s '%s' (want a positive integer)" clause key v))
  in
  let clause acc c =
    let* acc = acc in
    match String.split_on_char ':' (String.trim c) with
    | [] | [ "" ] -> Ok acc
    | kind :: params -> (
        let kvs = List.filter_map kv_of params in
        match kind with
        | "transient-link" ->
            let* p = prob kvs "transient-link" in
            let* retries = pos_int kvs "retries" acc.max_retries "transient-link" in
            let* backoff = pos_int kvs "backoff" acc.backoff_cycles "transient-link" in
            Ok { acc with transient_link_p = p; max_retries = retries; backoff_cycles = backoff }
        | "dead-link" -> (
            match params with
            | [ pair ] -> (
                match String.split_on_char '-' pair with
                | [ a; b ] -> (
                    match (int_of_string_opt a, int_of_string_opt b) with
                    | Some a, Some b when a >= 0 && b >= 0 && a <> b ->
                        Ok { acc with dead_links = link_key a b :: acc.dead_links }
                    | _ -> Error (Printf.sprintf "dead-link: bad node pair '%s'" pair))
                | _ -> Error (Printf.sprintf "dead-link: bad node pair '%s' (want A-B)" pair))
            | _ -> Error "dead-link needs one A-B node pair")
        | "mem-corrupt" ->
            let* p = prob kvs "mem-corrupt" in
            Ok { acc with mem_corrupt_p = p }
        | "dma-stall" ->
            let* p = prob kvs "dma-stall" in
            let* cycles = pos_int kvs "cycles" acc.dma_stall_cycles "dma-stall" in
            Ok { acc with dma_stall_p = p; dma_stall_cycles = cycles }
        | "fu-fault" ->
            let* p = prob kvs "fu-fault" in
            Ok { acc with fu_fault_p = p }
        | other -> Error (Printf.sprintf "unknown fault kind '%s'" other))
  in
  let* s = List.fold_left clause (Ok none) (String.split_on_char ',' str) in
  Ok { s with dead_links = List.sort_uniq compare s.dead_links }

let spec_to_string s =
  let clauses =
    (if s.transient_link_p > 0.0 then
       [ Printf.sprintf "transient-link:p=%g:retries=%d:backoff=%d" s.transient_link_p
           s.max_retries s.backoff_cycles ]
     else [])
    @ List.map (fun (a, b) -> Printf.sprintf "dead-link:%d-%d" a b) s.dead_links
    @ (if s.mem_corrupt_p > 0.0 then [ Printf.sprintf "mem-corrupt:p=%g" s.mem_corrupt_p ] else [])
    @ (if s.dma_stall_p > 0.0 then
         [ Printf.sprintf "dma-stall:p=%g:cycles=%d" s.dma_stall_p s.dma_stall_cycles ]
       else [])
    @ if s.fu_fault_p > 0.0 then [ Printf.sprintf "fu-fault:p=%g" s.fu_fault_p ] else []
  in
  if clauses = [] then "none" else String.concat "," clauses

(* --- the ledger --------------------------------------------------------- *)

(* One [fault.*] counter per ledger entry.  The values live in the model
   ([t.ledger], indexed by [slot]); [Metrics.bump] mirrors each entry onto
   the ambient context. *)
type cell = { counter : Metrics.counter; slot : int }

let cells : cell list ref = ref []

let cell ~name ~units ~desc =
  let c = { counter = Metrics.counter ~name ~units ~desc; slot = List.length !cells } in
  cells := c :: !cells;
  c

let c_injected =
  cell ~name:"fault.injected" ~units:"faults"
    ~desc:"faults injected by the seeded fault model"

let c_detected =
  cell ~name:"fault.detected" ~units:"faults"
    ~desc:"injected faults detected (link CRC, parity scrub, FU trap)"

let c_recovered =
  cell ~name:"fault.recovered" ~units:"faults"
    ~desc:"injected faults recovered by retry, reroute or rollback"

let c_unrecovered =
  cell ~name:"fault.unrecovered" ~units:"faults"
    ~desc:"injected faults reported as unrecoverable"

let c_retries =
  cell ~name:"fault.retries" ~units:"attempts"
    ~desc:"transfer retransmissions after transient link faults"

let c_rerouted =
  cell ~name:"fault.rerouted" ~units:"messages"
    ~desc:"messages adaptively detoured around dead links"

let c_rollbacks =
  cell ~name:"fault.rollbacks" ~units:"restores"
    ~desc:"checkpoint restores after detected corruption"

let c_link_transients =
  cell ~name:"fault.link_transients" ~units:"faults"
    ~desc:"transient link glitches injected into transfers"

let c_dead_link_hits =
  cell ~name:"fault.dead_link_hits" ~units:"messages"
    ~desc:"messages whose dimension-ordered route crossed a dead link"

let c_mem_corruptions =
  cell ~name:"fault.mem_corruptions" ~units:"words"
    ~desc:"memory words corrupted (parity marked bad)"

let c_dma_stalls =
  cell ~name:"fault.dma_stalls" ~units:"stalls"
    ~desc:"DMA engine stalls injected into transfers"

let c_fu_faults =
  cell ~name:"fault.fu_faults" ~units:"faults"
    ~desc:"FU arithmetic faults injected (NaN at the output latch)"

let c_backoff_cycles =
  cell ~name:"fault.backoff_cycles" ~units:"cycles"
    ~desc:"cycles spent backing off before retransmissions"

let c_stall_cycles =
  cell ~name:"fault.stall_cycles" ~units:"cycles"
    ~desc:"cycles lost to injected DMA stalls"

let c_detour_hops =
  cell ~name:"fault.detour_hops" ~units:"hops"
    ~desc:"extra hops taken by adaptive detours over e-cube routes"

(* --- the model ---------------------------------------------------------- *)

type t = {
  spec : spec;
  rng : Prng.t;
  dead : (int * int, unit) Hashtbl.t;
      (** configured dead links plus links killed by retry exhaustion *)
  ledger : int Atomic.t array;  (** by [cell.slot] *)
}

let make ~seed spec =
  let dead = Hashtbl.create 8 in
  List.iter (fun l -> Hashtbl.replace dead l ()) spec.dead_links;
  let ledger = Array.init (List.length !cells) (fun _ -> Atomic.make 0) in
  { spec; rng = Prng.create ~seed; dead; ledger }

let bump m c n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add m.ledger.(c.slot) n);
    Metrics.bump c.counter n
  end

let value m c = Atomic.get m.ledger.(c.slot)

(** The model's ledger as (name, value), sorted by name — the fault
    report's data source, live whether or not tracing is enabled. *)
let ledger m =
  List.sort compare (List.map (fun c -> (Metrics.counter_name c.counter, value m c)) !cells)

(** Injected faults not yet claimed by recovery or reported unrecoverable.
    The balance invariant is [outstanding m = 0] at the end of a run. *)
let outstanding m = value m c_injected - value m c_recovered - value m c_unrecovered

(** Settle the ledger at end of run: any outstanding faults (injected,
    never claimed by a recovery layer) are booked as unrecovered so none
    disappear silently.  Returns the number settled. *)
let settle m =
  let n = outstanding m in
  bump m c_unrecovered n;
  n

(* --- draws -------------------------------------------------------------- *)

let rand m bound = Prng.int m.rng bound
let link_dead m a b = Hashtbl.mem m.dead (link_key a b)

(** Declare a link permanently dead (retry-exhaustion escalation). *)
let kill_link m a b = Hashtbl.replace m.dead (link_key a b) ()

(** Outcome of the transient-fault draw sequence for one transfer. *)
type link_outcome = {
  failures : int;       (** transient faults drawn, capped at the budget *)
  backoff : int;        (** backoff cycles accumulated by the retries *)
  exhausted : bool;     (** the retry budget was spent without a clean send *)
}

(** Draw consecutive transient link faults for one transfer, up to the
    retry budget, with exponential backoff.  Books the faults as injected,
    detected (link CRC) and retried; the {e resolution} — recovered by the
    retry, by a reroute, or unrecovered — is the caller's entry, since it
    depends on what the recovery layer manages next. *)
let draw_link_failures m =
  let p = m.spec.transient_link_p in
  if p <= 0.0 then { failures = 0; backoff = 0; exhausted = false }
  else begin
    let failures = ref 0 and backoff = ref 0 in
    while !failures < m.spec.max_retries && Prng.float m.rng < p do
      incr failures;
      backoff := !backoff + (m.spec.backoff_cycles * (1 lsl (!failures - 1)))
    done;
    if !failures > 0 then begin
      bump m c_injected !failures;
      bump m c_link_transients !failures;
      bump m c_detected !failures;
      bump m c_retries !failures;
      bump m c_backoff_cycles !backoff
    end;
    { failures = !failures; backoff = !backoff; exhausted = !failures >= m.spec.max_retries }
  end

(** Extra cycles injected into one intra-node DMA stream execution:
    transient FLONET-link glitches (each retried, recovered by the
    retransmission) and DMA stalls (absorbed in place).  On retry
    exhaustion the stream falls back to a slow retransmit that always
    succeeds, costing one more doubled backoff — intra-node streams have
    no alternative route, but they also never lose data. *)
let stream_overhead m =
  let { failures; backoff; exhausted } = draw_link_failures m in
  let extra = ref backoff in
  if failures > 0 then begin
    bump m c_recovered failures;
    if exhausted then extra := !extra + (m.spec.backoff_cycles * (1 lsl m.spec.max_retries))
  end;
  if m.spec.dma_stall_p > 0.0 && Prng.float m.rng < m.spec.dma_stall_p then begin
    bump m c_injected 1;
    bump m c_dma_stalls 1;
    bump m c_detected 1;
    bump m c_recovered 1;
    bump m c_stall_cycles m.spec.dma_stall_cycles;
    extra := !extra + m.spec.dma_stall_cycles
  end;
  !extra

(** Total stream overhead for [streams] executed transfers of one
    instruction (one draw sequence per stream, in stream order). *)
let streams_overhead m ~streams =
  let extra = ref 0 in
  for _ = 1 to streams do
    extra := !extra + stream_overhead m
  done;
  !extra

(** Draw the per-instruction FU arithmetic fault: [Some (unit, element)]
    when a fault lands.  Booked as injected and detected: both engines
    trap the NaN it latches on the interrupt stream. *)
let draw_fu_fault m ~vlen ~units =
  if m.spec.fu_fault_p <= 0.0 || vlen <= 0 || units <= 0 then None
  else if Prng.float m.rng < m.spec.fu_fault_p then begin
    bump m c_injected 1;
    bump m c_fu_faults 1;
    bump m c_detected 1;
    Some (Prng.int m.rng units, Prng.int m.rng vlen)
  end
  else None

(** Draw the per-sweep memory-corruption event (the caller picks the
    victim word with {!rand} and books it with {!note_mem_corrupt}). *)
let draw_mem_corrupt m =
  m.spec.mem_corrupt_p > 0.0 && Prng.float m.rng < m.spec.mem_corrupt_p

(* --- recovery bookkeeping ----------------------------------------------- *)

let note_recovered m n = bump m c_recovered n
let note_unrecovered m n = bump m c_unrecovered n

let note_rerouted m ~extra_hops =
  bump m c_rerouted 1;
  bump m c_detour_hops extra_hops

(** A message's dimension-ordered route crossed a dead link: one injected,
    detected fault (the caller books its resolution). *)
let note_dead_link_hit m =
  bump m c_injected 1;
  bump m c_dead_link_hits 1;
  bump m c_detected 1

let note_rollback m = bump m c_rollbacks 1

let note_mem_corrupt m n =
  bump m c_injected n;
  bump m c_mem_corruptions n

let note_mem_detected m n = bump m c_detected n

(* --- nscbench compatibility — delete when nscbench moves to Run.t ------- *)

(* One slot standing in for the retired ambient model: [install] and
   [clear] set it, [reconcile] settles it, and only [Sequencer.run]'s
   compatibility path reads it ({!compat_model}). *)
let compat_slot : t option Atomic.t = Atomic.make None

let install m =
  Array.iter (fun a -> Atomic.set a 0) m.ledger;
  Atomic.set compat_slot (Some m)

let clear () = Atomic.set compat_slot None
let reconcile () = match Atomic.get compat_slot with Some m -> settle m | None -> 0
let compat_model () = Atomic.get compat_slot
