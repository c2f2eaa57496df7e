(** The deterministic fault model and its recovery ledger.

    A seeded splitmix64 stream drives every injection decision, so one
    [--fault-seed] reproduces a whole run's fault schedule bit-for-bit.
    The model is a value that a run carries in its run state: the
    engine, multi-node exchange and checkpointed solvers consult the
    run's model at their injection points, and a clean run carries
    [None].  Models share no state, so faulted runs may proceed on
    several domains at once.

    Accounting is double-entry: every injected fault must end up either
    recovered or unrecovered; {!outstanding} reports the difference and
    {!reconcile} books the remainder as unrecovered at end of run.  Each
    model value carries its own ledger, which counts always (it backs
    the CLI fault report); every entry also counts into the ambient
    metric context's [fault.*] counter when that context is enabled. *)

(** {1 Specification} *)

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

val none : spec
val is_none : spec -> bool

(** Parse a [--faults] specification: comma-separated clauses
    [transient-link:p=F[:retries=N][:backoff=N]], [dead-link:A-B],
    [mem-corrupt:p=F], [dma-stall:p=F[:cycles=N]], [fu-fault:p=F]. *)
val parse : string -> (spec, string) result

val spec_to_string : spec -> string

(** {1 Model lifecycle} *)

type t

(** A fresh model with a zero ledger. *)
val make : seed:int -> spec -> t

(** A uniform draw in [0, bound) from the model's stream. *)
val rand : t -> int -> int

(** {1 Link state} *)

val link_dead : t -> int -> int -> bool

(** Declare a link permanently dead (retry-exhaustion escalation). *)
val kill_link : t -> int -> int -> unit

(** {1 Draws}

    Each draw advances the seeded stream and books what it injects; the
    caller books the resolution (recovered / unrecovered) where noted. *)

type link_outcome = {
  failures : int;       (** transient faults drawn, capped at the budget *)
  backoff : int;        (** backoff cycles accumulated by the retries *)
  exhausted : bool;     (** the retry budget was spent without a clean send *)
}

(** Draw consecutive transient link faults for one transfer (booked as
    injected/detected/retried; resolution is the caller's entry). *)
val draw_link_failures : t -> link_outcome

(** Extra cycles injected into one intra-node DMA stream execution
    (transient glitches and DMA stalls, all recovered in place). *)
val stream_overhead : t -> int

(** Total {!stream_overhead} for [streams] executed transfers. *)
val streams_overhead : t -> streams:int -> int

(** Per-instruction FU arithmetic fault: [Some (unit, element)] when one
    lands (booked as injected and detected: the engine traps it). *)
val draw_fu_fault : t -> vlen:int -> units:int -> (int * int) option

(** Per-sweep memory-corruption draw (the caller picks the victim word
    with {!rand} and books it with {!note_mem_corrupt}). *)
val draw_mem_corrupt : t -> bool

(** {1 Recovery bookkeeping}

    Entries booked against the model's ledger. *)

val note_recovered : t -> int -> unit
val note_unrecovered : t -> int -> unit
val note_rerouted : t -> extra_hops:int -> unit

(** A dimension-ordered route crossed a dead link: one injected, detected
    fault (the caller books its resolution). *)
val note_dead_link_hit : t -> unit

val note_rollback : t -> unit
val note_mem_corrupt : t -> int -> unit
val note_mem_detected : t -> int -> unit

(** {1 Ledger} *)

(** The model's ledger as (name, value), sorted by name — live whether
    or not tracing is enabled. *)
val ledger : t -> (string * int) list

(** Injected faults not yet claimed by recovery or reported unrecoverable. *)
val outstanding : t -> int

(** Book any outstanding faults as unrecovered; returns the number. *)
val settle : t -> int

(** {1 nscbench compatibility — delete when nscbench moves to [Run.t]}

    One slot standing in for the retired ambient model.  Nothing in the
    library, the CLI, the bench or the tests calls these; only
    [Nsc_sim.Sequencer.run] reads the slot, when given nscbench's
    [?kernel_cache] and no run. *)

(** Put [m] in the slot and zero its ledger. *)
val install : t -> unit

val clear : unit -> unit

(** {!settle} the slot's model; 0 with the slot empty. *)
val reconcile : unit -> int

val compat_model : unit -> t option
