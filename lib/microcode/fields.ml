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

open Nsc_arch

type field = { name : string; offset : int; width : int }

(* The layout resolved into typed tables, one per section, so the encoder
   and decoder index fields directly instead of building names. *)
type header = { magic : field; index : field; vlen : field }

type unit_fields = {
  fu : Resource.fu_id;
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
  channel : Dma.channel;
  slot : int;
  active : field;
  dir : field;
  base : field;
  stride : field;
  count : field;
}

type sd_fields = { mode : field; amount : field }

type t = {
  params : Params.t;
  total_bits : int;
  fields : field list;  (** in layout order *)
  by_name : (string, field) Hashtbl.t;
  header : header;
  bypass : field array;  (** by ALS id *)
  units : unit_fields array;  (** by global unit index *)
  sinks : (Resource.sink * field) array;  (** in {!Knowledge.all_sinks} order *)
  plane_dma : dma_fields array array;  (** by plane, then engine slot *)
  cache_dma : dma_fields array array;  (** by cache, then engine slot *)
  sds : sd_fields array;  (** by shift/delay unit *)
}

(* Operand-source selector encodings (fields fu<i>.src_a / src_b). *)
let src_unbound = 0
let src_switch = 1
let src_chain = 2
let src_const = 3
let src_feedback = 4

(* Constant-port encodings (field fu<i>.const_port). *)
let const_none = 0
let const_a = 1
let const_b = 2

(* Shift/delay mode encodings. *)
let sd_off = 0
let sd_delay = 1
let sd_shift = 2

(* Bypass encodings. *)
let bypass_code = function
  | Als.No_bypass -> 0
  | Als.Keep_head -> 1
  | Als.Keep_tail -> 2

let bypass_of_code = function
  | 0 -> Some Als.No_bypass
  | 1 -> Some Als.Keep_head
  | 2 -> Some Als.Keep_tail
  | _ -> None

let bits_for n =
  (* bits needed to store values 0..n *)
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  go 1

(** Build the layout for machine [p], with its section tables. *)
let make (p : Params.t) : t =
  let fields = ref [] in
  let cursor = ref 0 in
  let field name width =
    let f = { name; offset = !cursor; width } in
    fields := f :: !fields;
    cursor := !cursor + width;
    f
  in
  let nfu = Params.n_functional_units p in
  (* a selector holds any {!Resource.source_code}: one code per unit, per
     plane and cache DMA engine, and per shift/delay unit, after 0 *)
  let src_width =
    bits_for
      (nfu + (p.n_memory_planes * p.plane_dma_slots) + (p.n_caches * p.cache_dma_slots)
     + p.n_shift_delay)
  in
  let delay_width = bits_for p.rf_max_delay in
  let addr_width = bits_for (max p.memory_plane_words p.cache_words) in
  let count_width = addr_width in
  (* header *)
  let magic = field "hdr.magic" 8 in
  let index = field "hdr.index" 16 in
  let vlen = field "hdr.vlen" 24 in
  (* per-ALS bypass *)
  let bypass =
    Array.init (Params.n_als p) (fun a -> field ("als" ^ string_of_int a ^ ".bypass") 2)
  in
  (* per-FU control *)
  let units =
    Array.init nfu (fun g ->
        let prefix = "fu" ^ string_of_int g ^ "." in
        let f name width = field (prefix ^ name) width in
        let op = f "op" 6 in
        let src_a = f "src_a" 3 in
        let src_b = f "src_b" 3 in
        let delay_a = f "delay_a" delay_width in
        let delay_b = f "delay_b" delay_width in
        let fb_a = f "fb_a" delay_width in
        let fb_b = f "fb_b" delay_width in
        let const_port = f "const_port" 2 in
        let const_val = f "const_val" 64 in
        {
          fu = Resource.fu_of_global_index p g;
          op;
          src_a;
          src_b;
          delay_a;
          delay_b;
          fb_a;
          fb_b;
          const_port;
          const_val;
        })
  in
  (* switch section: one source selector per sink *)
  let sinks =
    Array.map
      (fun snk -> (snk, field ("snk." ^ Resource.sink_to_string snk) src_width))
      (Array.of_list (Knowledge.all_sinks (Knowledge.make_exn p)))
  in
  (* DMA section: one engine per (channel, slot) *)
  let dma_channel_fields tag n slots channel =
    Array.init n (fun i ->
        Array.init slots (fun slot ->
            let prefix = "dma." ^ tag ^ string_of_int i ^ ".e" ^ string_of_int slot ^ "." in
            let f name width = field (prefix ^ name) width in
            let active = f "active" 1 in
            let dir = f "dir" 1 in
            let base = f "base" addr_width in
            let stride = f "stride" 17 in
            let count = f "count" count_width in
            { channel = channel i; slot; active; dir; base; stride; count }))
  in
  let plane_dma =
    dma_channel_fields "plane" p.n_memory_planes p.plane_dma_slots (fun i -> Dma.Plane i)
  in
  let cache_dma =
    dma_channel_fields "cache" p.n_caches p.cache_dma_slots (fun i -> Dma.Cache_chan i)
  in
  (* shift/delay section *)
  let sds =
    Array.init p.n_shift_delay (fun s ->
        let prefix = "sd" ^ string_of_int s ^ "." in
        let mode = field (prefix ^ "mode") 2 in
        let amount = field (prefix ^ "amount") 9 in
        { mode; amount })
  in
  let fields = List.rev !fields in
  let by_name = Hashtbl.create 512 in
  List.iter (fun f -> Hashtbl.replace by_name f.name f) fields;
  {
    params = p;
    total_bits = !cursor;
    fields;
    by_name;
    header = { magic; index; vlen };
    bypass;
    units;
    sinks;
    plane_dma;
    cache_dma;
    sds;
  }

(** The selector field of [snk].  Its position in [t.sinks] follows the
    {!Knowledge.all_sinks} order: two ports per unit, then the plane,
    cache and shift/delay engines.  The sink stored there is compared, so
    a sink the machine lacks raises instead of aliasing another's field. *)
let sink_field t (snk : Resource.sink) =
  let p = t.params in
  let nfu = Params.n_functional_units p in
  let planes = p.n_memory_planes * p.plane_dma_slots in
  let caches = p.n_caches * p.cache_dma_slots in
  let i =
    match snk with
    | Resource.Snk_fu (fu, Resource.A) -> 2 * Resource.fu_global_index p fu
    | Resource.Snk_fu (fu, Resource.B) -> (2 * Resource.fu_global_index p fu) + 1
    | Resource.Snk_memory (pl, e) -> (2 * nfu) + (pl * p.plane_dma_slots) + e
    | Resource.Snk_cache (c, e) -> (2 * nfu) + planes + (c * p.cache_dma_slots) + e
    | Resource.Snk_shift_delay s -> (2 * nfu) + planes + caches + s
  in
  if i >= 0 && i < Array.length t.sinks && Resource.equal_sink (fst t.sinks.(i)) snk
  then snd t.sinks.(i)
  else invalid_arg ("Fields.sink_field: no sink " ^ Resource.sink_to_string snk)

let find t name =
  match Hashtbl.find_opt t.by_name name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Fields.find: no field '%s'" name)

let mem t name = Hashtbl.mem t.by_name name

(** Number of field instances in the layout. *)
let field_count t = List.length t.fields

(** Number of distinct field kinds (names with indices stripped) — the
    "dozens of separate fields" of the paper. *)
let kind_count t =
  let strip name =
    String.to_seq name
    |> Seq.filter (fun c -> not (c >= '0' && c <= '9'))
    |> String.of_seq
  in
  List.map (fun f -> strip f.name) t.fields |> List.sort_uniq String.compare |> List.length

(* field accessors over a word *)
let read word f = Word.get_int word ~offset:f.offset ~width:f.width
let write word f v = Word.set_int word ~offset:f.offset ~width:f.width v
let read_signed word f = Word.get_signed word ~offset:f.offset ~width:f.width
let write_signed word f v = Word.set_signed word ~offset:f.offset ~width:f.width v

let read_float word f =
  if f.width <> 64 then invalid_arg "Fields.get_float: not a 64-bit field";
  Word.get_float word ~offset:f.offset

let write_float word f v =
  if f.width <> 64 then invalid_arg "Fields.set_float: not a 64-bit field";
  Word.set_float word ~offset:f.offset v

(* the same by name, for listings, disassembly and tests *)
let get t word name = read word (find t name)
let set t word name v = write word (find t name) v
let get_signed t word name = read_signed word (find t name)
let set_signed t word name v = write_signed word (find t name) v
let get_float t word name = read_float word (find t name)
let set_float t word name v = write_float word (find t name) v

let fresh_word t = Word.create t.total_bits
