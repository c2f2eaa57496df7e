(** Wide microinstruction words.

    An NSC instruction "requires a few thousand bits of information ...
    encoded in dozens of separate fields".  This module implements the raw
    bit container: a fixed-width bit vector with arbitrary-offset field
    access of up to 64 bits, plus hex dumps for listings. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type t = { bits : int; bytes : Bytes.t; }
val create : int -> t
val width : t -> int
val copy : t -> t
val equal : t -> t -> bool
val get_bit : t -> int -> int
val set_bit : t -> int -> bool -> unit
(** Read up to 64 bits at an arbitrary offset (little-endian bit order). *)
val get : t -> offset:int -> width:int -> int64
(** Write a field; excess high bits of the value must be zero. *)
val set : t -> offset:int -> width:int -> int64 -> unit
val get_int : t -> offset:int -> width:int -> int
val set_int : t -> offset:int -> width:int -> int -> unit
(** Signed access with excess-2^(w-1) bias (strides and offsets). *)
val get_signed : t -> offset:int -> width:int -> int
val set_signed : t -> offset:int -> width:int -> int -> unit
(** 64-bit IEEE double stored bit-exactly. *)
val get_float : t -> offset:int -> float
val set_float : t -> offset:int -> float -> unit
(** Count of live bits — how much of the word an instruction uses. *)
val popcount : t -> int
(** Hex dump, 32 bytes per line, as used in listings. *)
val to_hex : t -> string
(** [of_hex bits s] parses a {!to_hex} dump of a [bits]-wide word;
    whitespace is ignored, and a non-hex character or a digit count other
    than the word's is an [Error]. *)
val of_hex : int -> string -> (t, string) result
