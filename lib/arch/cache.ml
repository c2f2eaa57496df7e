(** Double-buffered data caches.

    Each node carries 16 double-buffered caches used to stage vector data
    between memory planes and pipelines.  Double buffering means one buffer
    can be filled or drained by DMA while the other feeds a pipeline; a
    buffer swap occurs between instructions. *)

type buffer = Front | Back [@@deriving show { with_path = false }, eq]

let other = function Front -> Back | Back -> Front

module Metrics = Nsc_metrics.Metrics

(* Observability: staging effectiveness of the double-buffered caches.  A
   pipeline-side read of a word that was written (staged) since the buffer
   was last cleared is a hit; reading a never-staged word returns the
   priming zero — a miss.  Staleness is tracked in per-buffer bitmaps that
   are only maintained while tracing is enabled, so the disabled path costs
   one flag check per access (bulk paths: one per call). *)
let c_reads =
  Metrics.counter ~name:"cache.reads" ~units:"words"
    ~desc:"pipeline-side words read from cache buffers"

let c_writes =
  Metrics.counter ~name:"cache.writes" ~units:"words"
    ~desc:"pipeline-side words written to cache buffers"

let c_hits =
  Metrics.counter ~name:"cache.hits" ~units:"words"
    ~desc:"pipeline-side reads of previously staged words"

let c_misses =
  Metrics.counter ~name:"cache.misses" ~units:"words"
    ~desc:"pipeline-side reads of never-staged (priming-zero) words"

let c_swaps =
  Metrics.counter ~name:"cache.swaps" ~units:"swaps"
    ~desc:"double-buffer swaps between pipeline and DMA sides"

(** Dynamic cache state: two word-addressed buffers plus the identity of the
    buffer currently attached to the pipeline side.  Like {!Memory}'s pages,
    buffers and their staging bitmaps are allocated lazily: an untouched
    buffer is the empty array (bitmap: the empty bytes) and reads as the
    priming 0.0, so a node whose program never uses its caches allocates
    nothing for them, and {!clear} returns every buffer to untouched. *)
type t = {
  id : Resource.cache_id;
  words : int;
  mutable front : float array;  (** [[||]] until first written *)
  mutable back : float array;
  mutable staged_front : Bytes.t;  (** bitmap of staged words, tracing only *)
  mutable staged_back : Bytes.t;
  mutable pipeline_side : buffer;
}

let make (p : Params.t) id =
  if id < 0 || id >= p.n_caches then invalid_arg "Cache.make: bad cache id";
  {
    id;
    words = p.cache_words;
    front = [||];
    back = [||];
    staged_front = Bytes.empty;
    staged_back = Bytes.empty;
    pipeline_side = Front;
  }

(* The buffer as stored: empty while untouched.  Readers treat an empty
   buffer as all zeros; writers go through [materialise]. *)
let buf t = function Front -> t.front | Back -> t.back

let materialise t side =
  match buf t side with
  | [||] ->
      let b = Array.make t.words 0.0 in
      (match side with Front -> t.front <- b | Back -> t.back <- b);
      b
  | b -> b

let staged t = function Front -> t.staged_front | Back -> t.staged_back

let staged_for_write t side =
  let bm = staged t side in
  if Bytes.length bm > 0 then bm
  else begin
    let bm = Bytes.make ((t.words + 7) / 8) '\000' in
    (match side with Front -> t.staged_front <- bm | Back -> t.staged_back <- bm);
    bm
  end

let mark_staged bm addr =
  let i = addr lsr 3 and bit = addr land 7 in
  Bytes.set bm i (Char.chr (Char.code (Bytes.get bm i) lor (1 lsl bit)))

let is_staged bm addr =
  Bytes.length bm > 0 && Char.code (Bytes.get bm (addr lsr 3)) land (1 lsl (addr land 7)) <> 0

let check_addr t addr =
  if addr < 0 || addr >= t.words then
    invalid_arg
      (Printf.sprintf "Cache %d: address %d outside buffer of %d words" t.id addr t.words)

(* One word of a buffer as stored; an untouched buffer reads 0.0. *)
let get t side addr =
  match buf t side with [||] -> 0.0 | b -> b.(addr)

let set t side addr v = (materialise t side).(addr) <- v

(** Pipeline-side access (the buffer currently wired into the datapath). *)
let read_pipeline t addr =
  check_addr t addr;
  if Metrics.tracing () then begin
    Metrics.bump c_reads 1;
    if is_staged (staged t t.pipeline_side) addr then Metrics.bump c_hits 1
    else Metrics.bump c_misses 1
  end;
  get t t.pipeline_side addr

let write_pipeline t addr v =
  check_addr t addr;
  if Metrics.tracing () then begin
    Metrics.bump c_writes 1;
    mark_staged (staged_for_write t t.pipeline_side) addr
  end;
  set t t.pipeline_side addr v

(** DMA-side access (the buffer being staged behind the pipeline's back). *)
let read_dma t addr =
  check_addr t addr;
  get t (other t.pipeline_side) addr

let write_dma t addr v =
  check_addr t addr;
  if Metrics.tracing () then mark_staged (staged_for_write t (other t.pipeline_side)) addr;
  set t (other t.pipeline_side) addr v

(* --- bulk pipeline-side paths ------------------------------------------ *)

(* One bounds check per strided run; the extremes are the endpoints. *)
let check_strided t ~base ~stride ~count =
  if count > 0 then begin
    check_addr t base;
    check_addr t (base + (stride * (count - 1)))
  end

(* Traced accounting of a bulk pipeline-side read of [count] words. *)
let note_strided_read t ~base ~stride ~count =
  Metrics.bump c_reads count;
  let bm = staged t t.pipeline_side in
  let hits = ref 0 in
  for i = 0 to count - 1 do
    if is_staged bm (base + (i * stride)) then incr hits
  done;
  Metrics.bump c_hits !hits;
  Metrics.bump c_misses (count - !hits)

(* Traced accounting of a bulk pipeline-side write of [count] words. *)
let note_strided_write t ~base ~stride ~count =
  Metrics.bump c_writes count;
  let bm = staged_for_write t t.pipeline_side in
  for i = 0 to count - 1 do
    mark_staged bm (base + (i * stride))
  done

(** Bulk strided read from the pipeline-side buffer: one bounds check for
    the whole run instead of one per word. *)
let read_pipeline_strided t ~base ~stride ~count =
  check_strided t ~base ~stride ~count;
  if count <= 0 then [||]
  else begin
    if Metrics.tracing () then note_strided_read t ~base ~stride ~count;
    match buf t t.pipeline_side with
    | [||] -> Array.make count 0.0
    | b -> Array.init count (fun i -> b.(base + (i * stride)))
  end

(** Bulk strided write to the pipeline-side buffer. *)
let write_pipeline_strided t ~base ~stride (xs : float array) =
  let count = Array.length xs in
  check_strided t ~base ~stride ~count;
  if count > 0 then begin
    if Metrics.tracing () then note_strided_write t ~base ~stride ~count;
    let b = materialise t t.pipeline_side in
    Array.iteri (fun i v -> b.(base + (i * stride)) <- v) xs
  end

(** Bulk strided read from the pipeline-side buffer directly into [dst]
    at [pos]: {!read_pipeline_strided} without the intermediate array.
    Every element of the destination range is written. *)
let read_pipeline_strided_into t ~base ~stride ~count (dst : Memory.vec) ~pos =
  check_strided t ~base ~stride ~count;
  Memory.check_vec_range dst ~pos ~count "Cache.read_pipeline_strided_into";
  if count > 0 then begin
    if Metrics.tracing () then note_strided_read t ~base ~stride ~count;
    match buf t t.pipeline_side with
    | [||] -> Native.unsafe_zero dst pos count
    | b ->
        for i = 0 to count - 1 do
          Bigarray.Array1.unsafe_set dst (pos + i) (Array.unsafe_get b (base + (i * stride)))
        done
  end

(** Bulk strided write of [count] words taken from [src] at [pos] to the
    pipeline-side buffer. *)
let write_pipeline_strided_from t ~base ~stride (src : Memory.vec) ~pos ~count =
  check_strided t ~base ~stride ~count;
  Memory.check_vec_range src ~pos ~count "Cache.write_pipeline_strided_from";
  if count > 0 then begin
    if Metrics.tracing () then note_strided_write t ~base ~stride ~count;
    let b = materialise t t.pipeline_side in
    for i = 0 to count - 1 do
      Array.unsafe_set b (base + (i * stride)) (Bigarray.Array1.unsafe_get src (pos + i))
    done
  end

(** Swap buffers between instructions. *)
let swap t =
  Metrics.bump c_swaps 1;
  t.pipeline_side <- other t.pipeline_side

(** Return both buffers and bitmaps to untouched (they read as the priming
    zeros again) and the pipeline side to the front buffer. *)
let clear t =
  t.front <- [||];
  t.back <- [||];
  t.staged_front <- Bytes.empty;
  t.staged_back <- Bytes.empty;
  t.pipeline_side <- Front

(* --- snapshots ----------------------------------------------------------- *)

(** A deep copy of both buffers, staging bitmaps and the pipeline side,
    taken by the checkpoint layer.  An untouched buffer or bitmap stays
    empty in the snapshot and is restored as untouched.  Geometry-stamped
    with the cache's word count so a restore into a different cache shape
    is rejected. *)
type snapshot = {
  s_words : int;
  s_front : float array;
  s_back : float array;
  s_staged_front : Bytes.t;
  s_staged_back : Bytes.t;
  s_side : buffer;
}

let snapshot t =
  {
    s_words = t.words;
    s_front = Array.copy t.front;
    s_back = Array.copy t.back;
    s_staged_front = Bytes.copy t.staged_front;
    s_staged_back = Bytes.copy t.staged_back;
    s_side = t.pipeline_side;
  }

let restore t snap =
  if snap.s_words <> t.words then
    invalid_arg "Cache.restore: snapshot geometry does not match cache";
  t.front <- Array.copy snap.s_front;
  t.back <- Array.copy snap.s_back;
  t.staged_front <- Bytes.copy snap.s_staged_front;
  t.staged_back <- Bytes.copy snap.s_staged_back;
  t.pipeline_side <- snap.s_side
