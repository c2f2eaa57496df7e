(** Wide microinstruction words.

    An NSC instruction "requires a few thousand bits of information ...
    encoded in dozens of separate fields".  This module implements the raw
    bit container: a fixed-width bit vector with arbitrary-offset field
    access of up to 64 bits, plus hex dumps for listings. *)

type t = { bits : int; bytes : Bytes.t }

let create bits =
  if bits <= 0 then invalid_arg "Word.create";
  { bits; bytes = Bytes.make ((bits + 7) / 8) '\000' }

let width t = t.bits
let copy t = { t with bytes = Bytes.copy t.bytes }

let equal a b = a.bits = b.bits && Bytes.equal a.bytes b.bytes

let get_bit t i =
  if i < 0 || i >= t.bits then invalid_arg "Word.get_bit";
  Char.code (Bytes.get t.bytes (i lsr 3)) lsr (i land 7) land 1

let set_bit t i v =
  if i < 0 || i >= t.bits then invalid_arg "Word.set_bit";
  let byte = Char.code (Bytes.get t.bytes (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.bytes (i lsr 3) (Char.chr byte)

(* Fields of up to [small] bits are read and written as one native int:
   the bytes spanning the field (at most 7, since the field may start 7
   bits into its first byte) are gathered little-endian, shifted and
   masked.  Wider fields go through two halves of at most 32 bits. *)
let small = 48

let check name t ~offset ~width =
  if width < 1 || width > 64 then invalid_arg (name ^ ": width");
  if offset < 0 || offset + width > t.bits then invalid_arg (name ^ ": range")

let get_small t ~offset ~width =
  let first = offset lsr 3 in
  let v = ref 0 in
  for b = (offset + width - 1) lsr 3 downto first do
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get t.bytes b)
  done;
  (!v lsr (offset land 7)) land ((1 lsl width) - 1)

let set_small t ~offset ~width v =
  let shift = offset land 7 and first = offset lsr 3 in
  let mask = ((1 lsl width) - 1) lsl shift and v = v lsl shift in
  for b = first to (offset + width - 1) lsr 3 do
    let k = (b - first) * 8 in
    let m = (mask lsr k) land 0xff in
    let old = Char.code (Bytes.unsafe_get t.bytes b) in
    Bytes.unsafe_set t.bytes b
      (Char.unsafe_chr ((old land lnot m) lor ((v lsr k) land m)))
  done

(** Read [width] bits starting at [offset] as an unsigned Int64
    (little-endian bit order within the word). *)
let get t ~offset ~width : int64 =
  check "Word.get" t ~offset ~width;
  if width <= small then Int64.of_int (get_small t ~offset ~width)
  else
    let lo = get_small t ~offset ~width:32 in
    let hi = get_small t ~offset:(offset + 32) ~width:(width - 32) in
    Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

(** Write [width] bits of [v] at [offset]; excess high bits of [v] must be
    zero. *)
let set t ~offset ~width (v : int64) =
  check "Word.set" t ~offset ~width;
  if width < 64 && Int64.shift_right_logical v width <> 0L then
    invalid_arg
      (Printf.sprintf "Word.set: value %Ld does not fit in %d bits" v width);
  if width <= small then set_small t ~offset ~width (Int64.to_int v)
  else begin
    set_small t ~offset ~width:32 (Int64.to_int (Int64.logand v 0xFFFF_FFFFL));
    set_small t ~offset:(offset + 32) ~width:(width - 32)
      (Int64.to_int (Int64.shift_right_logical v 32))
  end

let get_int t ~offset ~width =
  if width <= small then begin
    check "Word.get" t ~offset ~width;
    get_small t ~offset ~width
  end
  else Int64.to_int (get t ~offset ~width)

let set_int t ~offset ~width v =
  if v < 0 then invalid_arg "Word.set_int: negative";
  if width <= small then begin
    check "Word.set" t ~offset ~width;
    if v lsr width <> 0 then
      invalid_arg
        (Printf.sprintf "Word.set: value %d does not fit in %d bits" v width);
    set_small t ~offset ~width v
  end
  else set t ~offset ~width (Int64.of_int v)

(** Signed access with excess-2^(w-1) bias (used for strides/offsets). *)
let get_signed t ~offset ~width =
  get_int t ~offset ~width - (1 lsl (width - 1))

let set_signed t ~offset ~width v =
  let biased = v + (1 lsl (width - 1)) in
  if biased < 0 || biased >= 1 lsl width then
    invalid_arg
      (Printf.sprintf "Word.set_signed: %d does not fit in %d signed bits" v width);
  set_int t ~offset ~width biased

let get_float t ~offset = Int64.float_of_bits (get t ~offset ~width:64)
let set_float t ~offset v = set t ~offset ~width:64 (Int64.bits_of_float v)

(** Count of bits set — a cheap "how much of the word is live" metric. *)
let popcount t =
  let n = ref 0 in
  Bytes.iter
    (fun c ->
      let rec pc x acc = if x = 0 then acc else pc (x lsr 1) (acc + (x land 1)) in
      n := !n + pc (Char.code c) 0)
    t.bytes;
  !n

(** Hex dump, 32 bytes per line, as used in listings. *)
let to_hex t =
  let buf = Buffer.create (Bytes.length t.bytes * 3) in
  Bytes.iteri
    (fun i c ->
      if i > 0 then
        if i mod 32 = 0 then Buffer.add_char buf '\n' else Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
    t.bytes;
  Buffer.contents buf
