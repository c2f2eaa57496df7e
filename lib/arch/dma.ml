(** DMA controllers.

    Independent DMA controllers associated with each memory plane and cache
    "pump data through the pipelines".  One transfer descriptor corresponds
    to the information the prototype collects in its popup subwindow for a
    cache or memory connection: plane/cache number, starting address (or a
    variable name resolved to one), stride, and element count. *)

type channel =
  | Plane of Resource.plane_id
  | Cache_chan of Resource.cache_id
[@@deriving show { with_path = false }, eq, ord]

type direction = Read | Write [@@deriving show { with_path = false }, eq, ord]

type transfer = {
  channel : channel;
  direction : direction;
  base : int;    (** starting word address within the plane or cache buffer *)
  stride : int;  (** word step between elements; may be negative *)
  count : int;   (** number of elements; 0 means "the instruction's vector
                     length", filled in at code-generation time *)
}
[@@deriving show { with_path = false }, eq]

module Metrics = Nsc_metrics.Metrics

(* Observability: words actually pumped through transfer descriptors.  The
   descriptors themselves are passive; the engine notes traffic here at the
   moment it executes a transfer, so the counters see exactly the words
   that crossed a DMA engine (not host-side loads/dumps, which appear only
   under [mem.*]). *)
let c_read_words =
  Metrics.counter ~name:"dma.read_words" ~units:"words"
    ~desc:"words streamed from planes/caches into pipelines"

let c_write_words =
  Metrics.counter ~name:"dma.write_words" ~units:"words"
    ~desc:"words streamed from pipelines into planes/caches"

let c_transfers =
  Metrics.counter ~name:"dma.transfers" ~units:"transfers"
    ~desc:"transfer descriptors executed (read and write streams)"

(** Note an executed read stream of [words] elements (tracing only). *)
let note_read ~words =
  if Metrics.tracing () then begin
    Metrics.bump c_transfers 1;
    Metrics.bump c_read_words words
  end

(** Note an executed write stream of [words] elements (tracing only). *)
let note_write ~words =
  if Metrics.tracing () then begin
    Metrics.bump c_transfers 1;
    Metrics.bump c_write_words words
  end

let channel_to_string = function
  | Plane p -> Printf.sprintf "mem%d" p
  | Cache_chan c -> Printf.sprintf "cache%d" c

let transfer_to_string t =
  Printf.sprintf "%s %s base=%d stride=%d count=%d"
    (channel_to_string t.channel)
    (match t.direction with Read -> "read" | Write -> "write")
    t.base t.stride t.count

(** Element count of a transfer for a vector of [vector_length] elements
    (a descriptor count of 0 means "the instruction's vector length"). *)
let effective_count t ~vector_length =
  if t.count = 0 then vector_length else t.count

(** Addresses generated by a transfer, in stream order. *)
let addresses t ~vector_length =
  List.init (effective_count t ~vector_length) (fun i -> t.base + (i * t.stride))

(** Validate a transfer against the machine parameters, for a vector of
    [vector_length] elements.  A message is formatted only when its check
    fails. *)
let validate (p : Params.t) (t : transfer) ~vector_length =
  let problems = ref [] in
  let fail msg = problems := msg :: !problems in
  let count = effective_count t ~vector_length in
  if count < 0 then fail "transfer count must be non-negative";
  (match t.channel with
  | Plane pl ->
      if pl < 0 || pl >= p.n_memory_planes then
        fail (Printf.sprintf "memory plane %d does not exist" pl)
      else if count > 0 then begin
        let e = Memory.strided_extent ~plane:pl ~base:t.base ~stride:t.stride ~count in
        List.iter fail (Memory.validate_extent p e)
      end
  | Cache_chan c ->
      if c < 0 || c >= p.n_caches then fail (Printf.sprintf "cache %d does not exist" c);
      if count > 0 then begin
        if t.base < 0 then fail "cache transfer base must be non-negative";
        let last = t.base + (t.stride * (count - 1)) in
        let lo = min t.base last and hi = max t.base last in
        if lo < 0 || hi >= p.cache_words then
          fail
            (Printf.sprintf "cache transfer [%d..%d] exceeds buffer of %d words" lo hi
               p.cache_words)
      end);
  List.rev !problems
