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
    buffer currently attached to the pipeline side. *)
type t = {
  id : Resource.cache_id;
  words : int;
  front : float array;
  back : float array;
  staged_front : Bytes.t;  (** bitmap of staged words, tracing only *)
  staged_back : Bytes.t;
  mutable pipeline_side : buffer;
}

let make (p : Params.t) id =
  if id < 0 || id >= p.n_caches then invalid_arg "Cache.make: bad cache id";
  let bitmap_bytes = (p.cache_words + 7) / 8 in
  {
    id;
    words = p.cache_words;
    front = Array.make p.cache_words 0.0;
    back = Array.make p.cache_words 0.0;
    staged_front = Bytes.make bitmap_bytes '\000';
    staged_back = Bytes.make bitmap_bytes '\000';
    pipeline_side = Front;
  }

let buf t = function Front -> t.front | Back -> t.back
let staged t = function Front -> t.staged_front | Back -> t.staged_back

let mark_staged bm addr =
  let i = addr lsr 3 and bit = addr land 7 in
  Bytes.set bm i (Char.chr (Char.code (Bytes.get bm i) lor (1 lsl bit)))

let is_staged bm addr =
  Char.code (Bytes.get bm (addr lsr 3)) land (1 lsl (addr land 7)) <> 0

let check_addr t addr =
  if addr < 0 || addr >= t.words then
    invalid_arg
      (Printf.sprintf "Cache %d: address %d outside buffer of %d words" t.id addr t.words)

(** Pipeline-side access (the buffer currently wired into the datapath). *)
let read_pipeline t addr =
  check_addr t addr;
  if Metrics.tracing () then begin
    Metrics.bump c_reads 1;
    if is_staged (staged t t.pipeline_side) addr then Metrics.bump c_hits 1
    else Metrics.bump c_misses 1
  end;
  (buf t t.pipeline_side).(addr)

let write_pipeline t addr v =
  check_addr t addr;
  if Metrics.tracing () then begin
    Metrics.bump c_writes 1;
    mark_staged (staged t t.pipeline_side) addr
  end;
  (buf t t.pipeline_side).(addr) <- v

(** DMA-side access (the buffer being staged behind the pipeline's back). *)
let read_dma t addr =
  check_addr t addr;
  (buf t (other t.pipeline_side)).(addr)

let write_dma t addr v =
  check_addr t addr;
  if Metrics.tracing () then mark_staged (staged t (other t.pipeline_side)) addr;
  (buf t (other t.pipeline_side)).(addr) <- v

(* --- bulk pipeline-side paths ------------------------------------------ *)

(* One bounds check per strided run; the extremes are the endpoints. *)
let check_strided t ~base ~stride ~count =
  if count > 0 then begin
    check_addr t base;
    check_addr t (base + (stride * (count - 1)))
  end

(** Bulk strided read from the pipeline-side buffer: one bounds check for
    the whole run instead of one per word. *)
let read_pipeline_strided t ~base ~stride ~count =
  check_strided t ~base ~stride ~count;
  if count <= 0 then [||]
  else begin
    (if Metrics.tracing () then begin
       Metrics.bump c_reads count;
       let bm = staged t t.pipeline_side in
       let hits = ref 0 in
       for i = 0 to count - 1 do
         if is_staged bm (base + (i * stride)) then incr hits
       done;
       Metrics.bump c_hits !hits;
       Metrics.bump c_misses (count - !hits)
     end);
    let b = buf t t.pipeline_side in
    Array.init count (fun i -> b.(base + (i * stride)))
  end

(** Bulk strided write to the pipeline-side buffer. *)
let write_pipeline_strided t ~base ~stride (xs : float array) =
  check_strided t ~base ~stride ~count:(Array.length xs);
  (if Metrics.tracing () then begin
     Metrics.bump c_writes (Array.length xs);
     let bm = staged t t.pipeline_side in
     Array.iteri (fun i _ -> mark_staged bm (base + (i * stride))) xs
   end);
  let b = buf t t.pipeline_side in
  Array.iteri (fun i v -> b.(base + (i * stride)) <- v) xs

(** Bulk strided read from the pipeline-side buffer directly into [dst]
    at [pos]: {!read_pipeline_strided} without the intermediate array.
    Every element of the destination range is written. *)
let read_pipeline_strided_into t ~base ~stride ~count (dst : Memory.vec) ~pos =
  check_strided t ~base ~stride ~count;
  Memory.check_vec_range dst ~pos ~count "Cache.read_pipeline_strided_into";
  if count > 0 then begin
    (if Metrics.tracing () then begin
       Metrics.bump c_reads count;
       let bm = staged t t.pipeline_side in
       let hits = ref 0 in
       for i = 0 to count - 1 do
         if is_staged bm (base + (i * stride)) then incr hits
       done;
       Metrics.bump c_hits !hits;
       Metrics.bump c_misses (count - !hits)
     end);
    let b = buf t t.pipeline_side in
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
    (if Metrics.tracing () then begin
       Metrics.bump c_writes count;
       let bm = staged t t.pipeline_side in
       for i = 0 to count - 1 do
         mark_staged bm (base + (i * stride))
       done
     end);
    let b = buf t t.pipeline_side in
    for i = 0 to count - 1 do
      Array.unsafe_set b (base + (i * stride)) (Bigarray.Array1.unsafe_get src (pos + i))
    done
  end

(** Swap buffers between instructions. *)
let swap t =
  Metrics.bump c_swaps 1;
  t.pipeline_side <- other t.pipeline_side

let clear t =
  Array.fill t.front 0 t.words 0.0;
  Array.fill t.back 0 t.words 0.0;
  Bytes.fill t.staged_front 0 (Bytes.length t.staged_front) '\000';
  Bytes.fill t.staged_back 0 (Bytes.length t.staged_back) '\000';
  t.pipeline_side <- Front

(* --- snapshots ----------------------------------------------------------- *)

(** A deep copy of both buffers, staging bitmaps and the pipeline side,
    taken by the checkpoint layer.  Geometry-stamped via the buffer
    length so a restore into a different cache shape is rejected. *)
type snapshot = {
  s_front : float array;
  s_back : float array;
  s_staged_front : Bytes.t;
  s_staged_back : Bytes.t;
  s_side : buffer;
}

let snapshot t =
  {
    s_front = Array.copy t.front;
    s_back = Array.copy t.back;
    s_staged_front = Bytes.copy t.staged_front;
    s_staged_back = Bytes.copy t.staged_back;
    s_side = t.pipeline_side;
  }

let restore t snap =
  if Array.length snap.s_front <> t.words then
    invalid_arg "Cache.restore: snapshot geometry does not match cache";
  Array.blit snap.s_front 0 t.front 0 t.words;
  Array.blit snap.s_back 0 t.back 0 t.words;
  Bytes.blit snap.s_staged_front 0 t.staged_front 0 (Bytes.length t.staged_front);
  Bytes.blit snap.s_staged_back 0 t.staged_back 0 (Bytes.length t.staged_back);
  t.pipeline_side <- snap.s_side
