(** Identifiers for the hardware resources of a node.

    All higher layers (diagrams, checker, microcode, simulator) refer to
    hardware through these identifiers, so the naming scheme is fixed here
    once: ALSs are numbered with singlets first, then doublets, then
    triplets; functional units are addressed as (ALS, slot). *)

type als_id = int [@@deriving show, eq, ord]
type plane_id = int [@@deriving show, eq, ord]
type cache_id = int [@@deriving show, eq, ord]
type sd_id = int [@@deriving show, eq, ord]

(** A functional unit: slot [0] is the head of the ALS's internal chain. *)
type fu_id = { als : als_id; slot : int } [@@deriving show { with_path = false }, eq, ord]

(** Operand ports of a functional unit. *)
type port = A | B [@@deriving show { with_path = false }, eq, ord]

let port_to_string = function A -> "a" | B -> "b"

(** Data producers the switch network can route from.  Memory and cache
    streams are identified by their DMA engine slot, not just the device: a
    plane pumping two differently-strided streams does so through two
    engines, and the switch routes each engine's output separately. *)
type source =
  | Src_fu of fu_id                 (** tapped output of a functional unit *)
  | Src_memory of plane_id * int    (** plane read stream: (plane, engine) *)
  | Src_cache of cache_id * int     (** cache read stream: (cache, engine) *)
  | Src_shift_delay of sd_id
[@@deriving show { with_path = false }, eq, ord]

(** Data consumers the switch network can route to. *)
type sink =
  | Snk_fu of fu_id * port
  | Snk_memory of plane_id * int    (** plane write stream: (plane, engine) *)
  | Snk_cache of cache_id * int
  | Snk_shift_delay of sd_id
[@@deriving show { with_path = false }, eq, ord]

let fu_to_string { als; slot } = Printf.sprintf "als%d.u%d" als slot

let source_to_string = function
  | Src_fu fu -> fu_to_string fu
  | Src_memory (p, e) -> Printf.sprintf "mem%d.e%d" p e
  | Src_cache (c, e) -> Printf.sprintf "cache%d.e%d" c e
  | Src_shift_delay s -> Printf.sprintf "sd%d" s

let sink_to_string = function
  | Snk_fu (fu, p) -> Printf.sprintf "%s.%s" (fu_to_string fu) (port_to_string p)
  | Snk_memory (p, e) -> Printf.sprintf "mem%d.e%d" p e
  | Snk_cache (c, e) -> Printf.sprintf "cache%d.e%d" c e
  | Snk_shift_delay s -> Printf.sprintf "sd%d" s

let pp_source ppf s = Fmt.string ppf (source_to_string s)
let pp_sink ppf s = Fmt.string ppf (sink_to_string s)

(** Number of functional-unit slots in ALS [a] under parameters [p]. *)
let als_size (p : Params.t) (a : als_id) =
  if a < 0 then invalid_arg "Resource.als_size: negative ALS id"
  else if a < p.n_singlets then 1
  else if a < p.n_singlets + p.n_doublets then 2
  else if a < Params.n_als p then 3
  else invalid_arg "Resource.als_size: ALS id out of range"

(** Is [fu] a valid functional-unit id under parameters [p]? *)
let fu_valid (p : Params.t) (fu : fu_id) =
  fu.als >= 0 && fu.als < Params.n_als p && fu.slot >= 0
  && fu.slot < als_size p fu.als

(** Dense global index of a functional unit, used by the microcode layout.
    Units are numbered ALS by ALS, slot by slot: in closed form, the
    singlets' units come first, then two per doublet, then three per
    triplet. *)
let fu_global_index (p : Params.t) (fu : fu_id) =
  if not (fu_valid p fu) then invalid_arg "Resource.fu_global_index";
  let s = p.n_singlets and d = p.n_doublets in
  if fu.als < s then fu.als
  else if fu.als < s + d then s + (2 * (fu.als - s)) + fu.slot
  else s + (2 * d) + (3 * (fu.als - s - d)) + fu.slot

(** Inverse of [fu_global_index], in closed form. *)
let fu_of_global_index (p : Params.t) idx =
  if idx < 0 || idx >= Params.n_functional_units p then
    invalid_arg "Resource.fu_of_global_index";
  let s = p.n_singlets and d = p.n_doublets in
  if idx < s then { als = idx; slot = 0 }
  else if idx < s + (2 * d) then { als = s + ((idx - s) / 2); slot = (idx - s) mod 2 }
  else
    let k = idx - s - (2 * d) in
    { als = s + d + (k / 3); slot = k mod 3 }

(** All ALS ids of a node, in order. *)
let all_als (p : Params.t) = List.init (Params.n_als p) (fun a -> a)

(** All functional units of a node, in global-index order. *)
let all_fus (p : Params.t) =
  List.concat_map
    (fun a -> List.init (als_size p a) (fun slot -> { als = a; slot }))
    (all_als p)

(** Capabilities of a functional unit.  The knowledge-base convention,
    mirroring the paper's asymmetries: every unit computes in floating
    point; in multi-unit ALSs the head slot carries the integer/logical
    circuitry ("double box") and the tail slot the min/max circuitry; a
    singlet's lone unit carries only floating point. *)
let fu_capabilities (p : Params.t) (fu : fu_id) : Capability.t list =
  let sz = als_size p fu.als in
  let caps = [ Capability.Float ] in
  let caps = if sz > 1 && fu.slot = 0 then Capability.Int_logical :: caps else caps in
  let caps = if sz > 1 && fu.slot = sz - 1 then Capability.Min_max :: caps else caps in
  caps

let fu_has_capability p fu cap =
  List.exists (Capability.equal cap) (fu_capabilities p fu)

(** Stable integer encodings of sources and sinks for the microcode switch
    fields.  0 is reserved for "unrouted". *)
let source_code (p : Params.t) = function
  | Src_fu fu -> 1 + fu_global_index p fu
  | Src_memory (pl, e) ->
      1 + Params.n_functional_units p + (pl * p.plane_dma_slots) + e
  | Src_cache (c, e) ->
      1 + Params.n_functional_units p
      + (p.n_memory_planes * p.plane_dma_slots)
      + (c * p.cache_dma_slots) + e
  | Src_shift_delay s ->
      1 + Params.n_functional_units p
      + (p.n_memory_planes * p.plane_dma_slots)
      + (p.n_caches * p.cache_dma_slots)
      + s

let source_of_code (p : Params.t) code =
  let nfu = Params.n_functional_units p in
  let n_plane_eng = p.n_memory_planes * p.plane_dma_slots in
  let n_cache_eng = p.n_caches * p.cache_dma_slots in
  if code <= 0 then None
  else
    let c = code - 1 in
    if c < nfu then Some (Src_fu (fu_of_global_index p c))
    else if c < nfu + n_plane_eng then
      let k = c - nfu in
      Some (Src_memory (k / p.plane_dma_slots, k mod p.plane_dma_slots))
    else if c < nfu + n_plane_eng + n_cache_eng then
      let k = c - nfu - n_plane_eng in
      Some (Src_cache (k / p.cache_dma_slots, k mod p.cache_dma_slots))
    else if c < nfu + n_plane_eng + n_cache_eng + p.n_shift_delay then
      Some (Src_shift_delay (c - nfu - n_plane_eng - n_cache_eng))
    else None
