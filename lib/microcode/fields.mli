(** The microinstruction field layout.

    The layout is derived from the machine parameters, so a revised machine
    design regenerates it automatically.  An instruction completely
    specifies "the pipeline configuration and function unit operations for
    the entire machine":

    - a header (magic, instruction number, vector length);
    - per-ALS bypass configuration;
    - per-functional-unit control: opcode, operand-source selectors,
      alignment-queue depths, feedback-queue depths, one inline constant;
    - the switch section: one source selector per network sink;
    - the DMA section: one engine per memory plane and per cache;
    - the shift/delay section.

    With the default machine this comes to several thousand bits in several
    hundred field instances of two dozen distinct kinds — the scale the
    paper quotes as making hand-written microprograms impractical. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type field = { name : string; offset : int; width : int; }

(** The layout resolved into one typed table per section, built in the
    same pass as the named fields: the encoder and decoder index these
    directly, with no name formatting or hashing per instruction. *)
type header = { magic : field; index : field; vlen : field; }
type unit_fields = {
  fu : Nsc_arch.Resource.fu_id;
  op : field;
  src_a : field;
  src_b : field;
  delay_a : field;
  delay_b : field;
  fb_a : field;
  fb_b : field;
  const_port : field;
  const_val : field;
}
type dma_fields = {
  channel : Nsc_arch.Dma.channel;
  slot : int;
  active : field;
  dir : field;
  base : field;
  stride : field;
  count : field;
}
type sd_fields = { mode : field; amount : field; }
type t = {
  params : Nsc_arch.Params.t;
  total_bits : int;
  fields : field list;  (** in layout order *)
  by_name : (string, field) Hashtbl.t;
  header : header;
  bypass : field array;  (** by ALS id *)
  units : unit_fields array;  (** by global unit index *)
  sinks : (Nsc_arch.Resource.sink * field) array;
      (** in {!Nsc_arch.Knowledge.all_sinks} order *)
  plane_dma : dma_fields array array;  (** by plane, then engine slot *)
  cache_dma : dma_fields array array;  (** by cache, then engine slot *)
  sds : sd_fields array;  (** by shift/delay unit *)
}
val src_unbound : int
val src_switch : int
val src_chain : int
val src_const : int
val src_feedback : int
val const_none : int
val const_a : int
val const_b : int
val sd_off : int
val sd_delay : int
val sd_shift : int
val bypass_code : Nsc_arch.Als.bypass -> int
val bypass_of_code : int -> Nsc_arch.Als.bypass option
val bits_for : int -> int
(** Build the field layout for a machine — several thousand bits in
    hundreds of field instances of ~30 kinds, derived entirely from the
    parameters. *)
val make : Nsc_arch.Params.t -> t
(** The selector field of a switch sink; raises [Invalid_argument] for a
    sink the machine does not have. *)
val sink_field : t -> Nsc_arch.Resource.sink -> field
val find : t -> string -> field
val mem : t -> string -> bool
(** Number of field instances in the layout. *)
val field_count : t -> int
(** Number of distinct field kinds (names with indices stripped) — the
    paper's "dozens of separate fields". *)
val kind_count : t -> int
(** Field access through a resolved table entry. *)
val read : Word.t -> field -> int
val write : Word.t -> field -> int -> unit
val read_signed : Word.t -> field -> int
val write_signed : Word.t -> field -> int -> unit
val read_float : Word.t -> field -> float
val write_float : Word.t -> field -> float -> unit
(** Field access by name, for listings, disassembly and tests. *)
val get : t -> Word.t -> string -> int
val set : t -> Word.t -> string -> int -> unit
val get_signed : t -> Word.t -> string -> int
val set_signed : t -> Word.t -> string -> int -> unit
val get_float : t -> Word.t -> string -> float
val set_float : t -> Word.t -> string -> float -> unit
(** A zeroed word of the layout's width. *)
val fresh_word : t -> Word.t
