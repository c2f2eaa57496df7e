(** Memory planes.

    A node's memory is organised into independent planes (16 x 128 MB by
    default).  The planar organisation is the architectural feature the
    paper singles out as hardest on compilers: during one instruction a
    functional unit may stream from or to only a single plane, and multiple
    units working in one plane contend for its ports.

    Addresses are 64-bit-word indices within a plane. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type extent = { plane : Resource.plane_id; lo : int; hi : int; }
val pp_extent :
  Format.formatter ->
  extent -> unit
val show_extent : extent -> string
val equal_extent : extent -> extent -> bool
val extents_overlap : extent -> extent -> bool
val validate_extent : Params.t -> extent -> string list
val strided_extent :
  plane:Resource.plane_id ->
  base:int -> stride:int -> count:int -> extent
(** Unboxed float64 vector (c_layout): the representation of both plane
    pages and the kernel executor's buffers, so page<->buffer transfers
    are single [memmove] calls and the native steps ({!Native}) read the
    data pointer directly. *)
type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type store = {
  words : int;
  page_words : int;
  mutable pages : vec array;
      (** the page table, indexed by page number, {!no_page} where no
          write has touched the page.  It grows, doubling, to cover the
          highest page touched, and never past the plane's last page *)
  parity_bad : (int, unit) Hashtbl.t;
      (** per-word parity/ECC check bits: marked by {!corrupt}, scrubbed
          by a rewrite of the word *)
}
val make_store : ?page_words:int -> int -> store
val check_addr : store -> int -> unit
val read : store -> int -> float
val write : store -> int -> float -> unit

(** Corrupt the word at [addr]: flip a stored mantissa bit and mark its
    parity bad; returns the corrupted value. *)
val corrupt : store -> int -> float

(** Addresses whose parity is currently bad, sorted; empty when healthy. *)
val parity_errors : store -> int list

(** Bulk strided read: [count] words from [base] stepping by [stride],
    touching each backing page once per page crossing instead of once per
    word.  Untouched words read as 0.0. *)
val read_strided : store -> base:int -> stride:int -> count:int -> float array

(** {!read_strided} into an existing array: fills all of [out]
    ([count = Array.length out]; untouched words store 0.0). *)
val read_strided_to : store -> base:int -> stride:int -> float array -> unit

(** Bulk strided write of a whole array, one page lookup per page
    crossing. *)
val write_strided : store -> base:int -> stride:int -> float array -> unit

(** Validate that [pos, pos + count) lies inside the vector; raises
    [Invalid_argument] naming the caller otherwise. *)
val check_vec_range : vec -> pos:int -> count:int -> string -> unit

(** Bulk strided read directly into [dst] at [pos]: {!read_strided}
    without the intermediate array.  Writes every element of the
    destination range (untouched words store 0.0). *)
val read_strided_into :
  store -> base:int -> stride:int -> count:int -> vec -> pos:int -> unit

(** A vector of length 0: the page table's entry, and what
    {!read_window} returns, for a page no write has touched. *)
val no_page : vec

(** The page holding the [count] words from [base] (stride 1), which
    must lie inside one page, for reading in place at offset
    [base mod page_words]; {!no_page} when the page is untouched (its
    words read as 0.0).  Checks the range and books [mem.reads] as
    {!read_strided_into} does; copies nothing. *)
val read_window : store -> base:int -> count:int -> vec

(** Bulk strided write of [count] words taken from [src] at [pos]:
    {!write_strided} without the intermediate array. *)
val write_strided_from :
  store -> base:int -> stride:int -> vec -> pos:int -> count:int -> unit

(** Copy [count] consecutive words from [src] at [src_base] to [dst] at
    [dst_base] without an intermediate array: one native [memmove] (or a
    [memset], from a never-touched source page) per span that crosses no
    page boundary in either store.  Destination pages are materialised
    and the destination's parity marks over the range are scrubbed, as
    by a write.  Raises [Invalid_argument] if either range leaves its
    store, [count] is negative, or a same-store copy overlaps. *)
val copy_words :
  src:store -> src_base:int -> dst:store -> dst_base:int -> count:int -> unit

(** Pages ever materialised; each spans [page_words] words. *)
val touched_pages : store -> int

(** Resident footprint in words (pages × page size) — an upper bound on
    distinct words ever written. *)
val touched_words : store -> int

val clear : store -> unit

(** A deep copy of a plane's contents and parity state, geometry-stamped. *)
type snapshot

val snapshot : store -> snapshot

(** Restore a snapshot; rejects a geometry mismatch with [Invalid_argument]. *)
val restore : store -> snapshot -> unit
