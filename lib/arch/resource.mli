(** Identifiers for the hardware resources of a node.

    All higher layers (diagrams, checker, microcode, simulator) refer to
    hardware through these identifiers, so the naming scheme is fixed here
    once: ALSs are numbered with singlets first, then doublets, then
    triplets; functional units are addressed as (ALS, slot). *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type als_id = int
val pp_als_id :
  Format.formatter ->
  als_id -> unit
val show_als_id : als_id -> string
val equal_als_id : als_id -> als_id -> bool
val compare_als_id : als_id -> als_id -> int
type plane_id = int
val pp_plane_id :
  Format.formatter ->
  plane_id -> unit
val show_plane_id : plane_id -> string
val equal_plane_id : plane_id -> plane_id -> bool
val compare_plane_id : plane_id -> plane_id -> int
type cache_id = int
val pp_cache_id :
  Format.formatter ->
  cache_id -> unit
val show_cache_id : cache_id -> string
val equal_cache_id : cache_id -> cache_id -> bool
val compare_cache_id : cache_id -> cache_id -> int
type sd_id = int
val pp_sd_id :
  Format.formatter -> sd_id -> unit
val show_sd_id : sd_id -> string
val equal_sd_id : sd_id -> sd_id -> bool
val compare_sd_id : sd_id -> sd_id -> int
type fu_id = { als : als_id; slot : int; }
val pp_fu_id :
  Format.formatter -> fu_id -> unit
val show_fu_id : fu_id -> string
val equal_fu_id : fu_id -> fu_id -> bool
val compare_fu_id : fu_id -> fu_id -> int
type port = A | B
val pp_port :
  Format.formatter -> port -> unit
val show_port : port -> string
val equal_port : port -> port -> bool
val compare_port : port -> port -> int
val port_to_string : port -> string
type source =
    Src_fu of fu_id
  | Src_memory of plane_id * int
  | Src_cache of cache_id * int
  | Src_shift_delay of sd_id
val show_source : source -> string
val equal_source : source -> source -> bool
val compare_source : source -> source -> int
type sink =
    Snk_fu of fu_id * port
  | Snk_memory of plane_id * int
  | Snk_cache of cache_id * int
  | Snk_shift_delay of sd_id
val show_sink : sink -> string
val equal_sink : sink -> sink -> bool
val compare_sink : sink -> sink -> int
val fu_to_string : fu_id -> string
val source_to_string : source -> string
val sink_to_string : sink -> string
val pp_source : Format.formatter -> source -> unit
val pp_sink : Format.formatter -> sink -> unit
(** Number of functional-unit slots in an ALS (1, 2 or 3). *)
val als_size : Params.t -> als_id -> int
val fu_valid : Params.t -> fu_id -> bool
(** Dense global index of a unit (ALS by ALS, slot by slot) — the
    numbering the microcode layout uses. *)
val fu_global_index : Params.t -> fu_id -> int
(** Inverse of {!fu_global_index}. *)
val fu_of_global_index : Params.t -> int -> fu_id
val all_als : Params.t -> int list
(** All functional units of a node, in global-index order. *)
val all_fus : Params.t -> fu_id list
(** Capabilities of a unit.  The knowledge-base convention mirrors the
    paper's asymmetries: every unit computes in floating point; in
    multi-unit ALSs the head slot carries the integer/logical circuitry
    (the "double box") and the tail slot the min/max circuitry. *)
val fu_capabilities :
  Params.t -> fu_id -> Capability.t list
val fu_has_capability :
  Params.t -> fu_id -> Capability.t -> bool
(** Stable integer encoding of a source for the microcode switch fields;
    0 is reserved for "unrouted". *)
val source_code : Params.t -> source -> int
(** Inverse of {!source_code}; [None] for 0 or out-of-range codes. *)
val source_of_code : Params.t -> int -> source option
