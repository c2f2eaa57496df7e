(** Double-buffered data caches.

    Each node carries 16 double-buffered caches used to stage vector data
    between memory planes and pipelines.  Double buffering means one buffer
    can be filled or drained by DMA while the other feeds a pipeline; a
    buffer swap occurs between instructions. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type buffer = Front | Back
val pp_buffer :
  Format.formatter ->
  buffer -> unit
val show_buffer : buffer -> string
val equal_buffer : buffer -> buffer -> bool
val other : buffer -> buffer
(** One cache's dynamic state.  Buffers are allocated lazily: a cache
    that has not been written since {!make} or {!clear} holds no storage,
    and every read of an untouched buffer returns the priming 0.0. *)
type t

(** An untouched cache; raises [Invalid_argument] on a bad id. *)
val make : Params.t -> Resource.cache_id -> t

(** Raises [Invalid_argument] for an address outside the buffer. *)
val check_addr : t -> int -> unit

val read_pipeline : t -> int -> float
val write_pipeline : t -> int -> float -> unit

(** Bulk strided pipeline-side access: one bounds check per run. *)
val read_pipeline_strided :
  t -> base:int -> stride:int -> count:int -> float array
val write_pipeline_strided :
  t -> base:int -> stride:int -> float array -> unit

(** Bigarray-direct bulk strided pipeline-side access: the same transfers
    without the intermediate array (see {!Memory.vec}). *)
val read_pipeline_strided_into :
  t -> base:int -> stride:int -> count:int -> Memory.vec -> pos:int -> unit
val write_pipeline_strided_from :
  t -> base:int -> stride:int -> Memory.vec -> pos:int -> count:int -> unit
val read_dma : t -> int -> float
val write_dma : t -> int -> float -> unit
val swap : t -> unit

(** Return both buffers to untouched and the pipeline side to the front
    buffer. *)
val clear : t -> unit

(** A deep copy of both buffers, staging bitmaps and the pipeline side;
    an untouched buffer stays empty and is restored as untouched. *)
type snapshot

val snapshot : t -> snapshot

(** Restore a snapshot; rejects one taken from a cache of a different
    word count with [Invalid_argument]. *)
val restore : t -> snapshot -> unit
