(** Memory planes.

    A node's memory is organised into independent planes (16 x 128 MB by
    default).  The planar organisation is the architectural feature the
    paper singles out as hardest on compilers: during one instruction a
    functional unit may stream from or to only a single plane, and multiple
    units working in one plane contend for its ports.

    Addresses are 64-bit-word indices within a plane. *)

(** A half-open word range [lo, hi) within one plane. *)
type extent = { plane : Resource.plane_id; lo : int; hi : int }
[@@deriving show { with_path = false }, eq]

let extent_words e = e.hi - e.lo

let extents_overlap a b =
  a.plane = b.plane && a.lo < b.hi && b.lo < a.hi

(** Validate that an extent lies inside a plane. *)
let validate_extent (p : Params.t) (e : extent) =
  let problems = ref [] in
  let need cond msg = if not cond then problems := msg :: !problems in
  need (e.plane >= 0 && e.plane < p.n_memory_planes)
    (Printf.sprintf "plane %d does not exist (machine has %d planes)" e.plane
       p.n_memory_planes);
  need (e.lo >= 0) "extent start must be non-negative";
  need (e.lo <= e.hi) "extent must be non-descending";
  need (e.hi <= p.memory_plane_words)
    (Printf.sprintf "extent end %d exceeds plane size %d words" e.hi
       p.memory_plane_words);
  List.rev !problems

(** Word range touched by a strided access of [count] elements starting at
    [base] with step [stride] (stride may be negative). *)
let strided_extent ~plane ~base ~stride ~count =
  if count <= 0 then { plane; lo = base; hi = base }
  else
    let last = base + (stride * (count - 1)) in
    { plane; lo = min base last; hi = max base last + 1 }

module Metrics = Nsc_metrics.Metrics

(* Observability: word traffic through the planes and the resident-page
   footprint.  Counters accumulate only while tracing is enabled; every
   site is gated on one flag check (bulk paths check once per run). *)
let c_reads =
  Metrics.counter ~name:"mem.reads" ~units:"words"
    ~desc:"words read from memory planes (streams, scalars and host dumps)"

let c_writes =
  Metrics.counter ~name:"mem.writes" ~units:"words"
    ~desc:"words written to memory planes (streams, scalars and host loads)"

let c_pages =
  Metrics.counter ~name:"mem.pages_touched" ~units:"pages"
    ~desc:"sparse plane pages materialised by a first write"

(** Backing store for one plane: a paged sparse array so that 128 MB planes
    cost only what is touched.  Reads of untouched words return 0.0.

    [parity_bad] models the plane's per-word parity/ECC check bits: the
    fault model marks a word bad when it flips its stored bits, and a
    rewrite of the word scrubs the mark (fresh data arrives with fresh
    parity).  The set is almost always empty, and every scrub site guards
    on that, so the clean path pays one [Hashtbl.length] per bulk write. *)

(** Unboxed float64 vector: the representation of both the plane pages and
    the kernel executor's buffers, C-layout so page<->buffer transfers are
    single [memcpy] blits (and a later C-stub path can take the data
    pointer directly). *)
type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

module A1 = Bigarray.Array1

let copy_vec (v : vec) : vec =
  let c = A1.create Bigarray.float64 Bigarray.c_layout (A1.dim v) in
  A1.blit v c;
  c

(* placeholder for a lazily-bound page ref: the walk always rebinds before
   the first access (page keys are non-negative, the sentinel key is not) *)
let no_page : vec = A1.create Bigarray.float64 Bigarray.c_layout 0

type store = {
  words : int;
  page_words : int;
  pages : (int, vec) Hashtbl.t;
  parity_bad : (int, unit) Hashtbl.t;
}

let make_store ?(page_words = 4096) words =
  if words <= 0 then invalid_arg "Memory.make_store";
  { words; page_words; pages = Hashtbl.create 64; parity_bad = Hashtbl.create 4 }

let check_addr st addr =
  if addr < 0 || addr >= st.words then
    invalid_arg (Printf.sprintf "Memory: address %d outside plane of %d words" addr st.words)

let read st addr =
  check_addr st addr;
  Metrics.bump c_reads 1;
  match Hashtbl.find_opt st.pages (addr / st.page_words) with
  | None -> 0.0
  | Some page -> A1.get page (addr mod st.page_words)

let page_for st key =
  match Hashtbl.find_opt st.pages key with
  | Some page -> page
  | None ->
      let page = A1.create Bigarray.float64 Bigarray.c_layout st.page_words in
      A1.fill page 0.0;
      Hashtbl.add st.pages key page;
      Metrics.bump c_pages 1;
      page

let write st addr v =
  check_addr st addr;
  Metrics.bump c_writes 1;
  if Hashtbl.length st.parity_bad > 0 then Hashtbl.remove st.parity_bad addr;
  A1.set (page_for st (addr / st.page_words)) (addr mod st.page_words) v

(* --- the parity/ECC fault-detection model ------------------------------- *)

(** Corrupt the word at [addr]: flip one stored mantissa bit and mark the
    word's parity bad.  Returns the corrupted value.  Detection is by
    {!parity_errors} (a scrub pass over the check bits), matching ECC
    hardware that flags on access rather than fixing silently. *)
let corrupt st addr =
  check_addr st addr;
  let page = page_for st (addr / st.page_words) in
  let off = addr mod st.page_words in
  let flipped =
    Int64.float_of_bits
      (Int64.logxor (Int64.bits_of_float (A1.get page off)) 0x0008_0000_0000_0000L)
  in
  A1.set page off flipped;
  Hashtbl.replace st.parity_bad addr ();
  flipped

(** Addresses whose parity is currently bad (corrupted and not yet
    rewritten), sorted.  Empty on a healthy plane. *)
let parity_errors st =
  List.sort compare (Hashtbl.fold (fun addr () acc -> addr :: acc) st.parity_bad [])

(* --- bulk strided paths ------------------------------------------------ *)

(* Bounds of a strided run, checked once instead of once per word; with a
   constant stride the extreme addresses are the two endpoints. *)
let check_strided st ~base ~stride ~count =
  if count > 0 then begin
    check_addr st base;
    check_addr st (base + (stride * (count - 1)))
  end

(** Read [count] words starting at [base] with step [stride] into a fresh
    array, touching each page's hashtable entry once per page crossing
    rather than once per word (unit-stride runs are blitted page by page).
    Reads of untouched words return 0.0. *)
let read_strided st ~base ~stride ~count =
  check_strided st ~base ~stride ~count;
  if count <= 0 then [||]
  else begin
    Metrics.bump c_reads count;
    let out = Array.make count 0.0 in
    if stride = 1 then begin
      let i = ref 0 in
      while !i < count do
        let addr = base + !i in
        let off = addr mod st.page_words in
        let n = min (st.page_words - off) (count - !i) in
        (match Hashtbl.find_opt st.pages (addr / st.page_words) with
        | Some page ->
            for j = 0 to n - 1 do
              Array.unsafe_set out (!i + j) (A1.unsafe_get page (off + j))
            done
        | None -> ());
        i := !i + n
      done
    end
    else begin
      let key = ref min_int and page = ref None in
      for i = 0 to count - 1 do
        let addr = base + (i * stride) in
        let k = addr / st.page_words in
        if k <> !key then begin
          key := k;
          page := Hashtbl.find_opt st.pages k
        end;
        match !page with
        | Some pg -> out.(i) <- A1.get pg (addr mod st.page_words)
        | None -> ()
      done
    end;
    out
  end

(** Write [xs] to the words starting at [base] with step [stride],
    materialising and touching each page once per page crossing (unit
    stride blits whole page spans). *)
let write_strided st ~base ~stride (xs : float array) =
  let count = Array.length xs in
  check_strided st ~base ~stride ~count;
  Metrics.bump c_writes count;
  if Hashtbl.length st.parity_bad > 0 then
    for i = 0 to count - 1 do
      Hashtbl.remove st.parity_bad (base + (i * stride))
    done;
  if stride = 1 then begin
    let i = ref 0 in
    while !i < count do
      let addr = base + !i in
      let off = addr mod st.page_words in
      let n = min (st.page_words - off) (count - !i) in
      let page = page_for st (addr / st.page_words) in
      for j = 0 to n - 1 do
        A1.unsafe_set page (off + j) (Array.unsafe_get xs (!i + j))
      done;
      i := !i + n
    done
  end
  else begin
    let key = ref min_int and page = ref no_page in
    for i = 0 to count - 1 do
      let addr = base + (i * stride) in
      let k = addr / st.page_words in
      if k <> !key then begin
        key := k;
        page := page_for st k
      end;
      A1.set !page (addr mod st.page_words) xs.(i)
    done
  end

(* --- Bigarray-direct strided paths -------------------------------------- *)

let check_vec_range (dst : vec) ~pos ~count who =
  if pos < 0 || count < 0 || pos + count > Bigarray.Array1.dim dst then
    invalid_arg
      (Printf.sprintf "Memory.%s: range [%d, %d) outside vector of %d" who pos
         (pos + count) (Bigarray.Array1.dim dst))

(** Read [count] words from [base] stepping by [stride] directly into
    [dst.{pos} .. dst.{pos + count - 1}] — the same page-batched walk as
    {!read_strided} without the intermediate array.  Every element of the
    destination range is written (untouched words store 0.0), so a reused
    buffer needs no zeroing over the gathered span. *)
let read_strided_into st ~base ~stride ~count (dst : vec) ~pos =
  check_strided st ~base ~stride ~count;
  check_vec_range dst ~pos ~count "read_strided_into";
  if count > 0 then begin
    Metrics.bump c_reads count;
    if stride = 1 then begin
      let i = ref 0 in
      while !i < count do
        let addr = base + !i in
        let off = addr mod st.page_words in
        let n = min (st.page_words - off) (count - !i) in
        (match Hashtbl.find_opt st.pages (addr / st.page_words) with
        | Some page -> A1.blit (A1.sub page off n) (A1.sub dst (pos + !i) n)
        | None -> A1.fill (A1.sub dst (pos + !i) n) 0.0);
        i := !i + n
      done
    end
    else begin
      let key = ref min_int and page = ref None in
      for i = 0 to count - 1 do
        let addr = base + (i * stride) in
        let k = addr / st.page_words in
        if k <> !key then begin
          key := k;
          page := Hashtbl.find_opt st.pages k
        end;
        A1.unsafe_set dst (pos + i)
          (match !page with
          | Some pg -> A1.unsafe_get pg (addr mod st.page_words)
          | None -> 0.0)
      done
    end
  end

(** Write [src.{pos} .. src.{pos + count - 1}] to the words starting at
    [base] with step [stride]: {!write_strided} without the intermediate
    array. *)
let write_strided_from st ~base ~stride (src : vec) ~pos ~count =
  check_strided st ~base ~stride ~count;
  check_vec_range src ~pos ~count "write_strided_from";
  if count > 0 then begin
    Metrics.bump c_writes count;
    if Hashtbl.length st.parity_bad > 0 then
      for i = 0 to count - 1 do
        Hashtbl.remove st.parity_bad (base + (i * stride))
      done;
    if stride = 1 then begin
      let i = ref 0 in
      while !i < count do
        let addr = base + !i in
        let off = addr mod st.page_words in
        let n = min (st.page_words - off) (count - !i) in
        let page = page_for st (addr / st.page_words) in
        A1.blit (A1.sub src (pos + !i) n) (A1.sub page off n);
        i := !i + n
      done
    end
    else begin
      let key = ref min_int and page = ref no_page in
      for i = 0 to count - 1 do
        let addr = base + (i * stride) in
        let k = addr / st.page_words in
        if k <> !key then begin
          key := k;
          page := page_for st k
        end;
        A1.unsafe_set !page (addr mod st.page_words)
          (A1.unsafe_get src (pos + i))
      done
    end
  end

(** Number of pages ever materialised (for footprint reporting).  Each
    page spans [page_words] words: this counts resident pages, not
    distinct written words — see {!touched_words}. *)
let touched_pages st = Hashtbl.length st.pages

(** Resident footprint in words (materialised pages × page size) — an
    upper bound on the number of distinct words ever written. *)
let touched_words st = Hashtbl.length st.pages * st.page_words

let clear st =
  Hashtbl.reset st.pages;
  Hashtbl.reset st.parity_bad

(* --- snapshots ----------------------------------------------------------- *)

(** A deep copy of a plane's contents and parity state, taken by the
    checkpoint layer.  Snapshots are geometry-stamped so a restore into a
    differently-shaped store is rejected rather than silently wrong. *)
type snapshot = {
  s_words : int;
  s_page_words : int;
  s_pages : (int * vec) list;
  s_parity : int list;
}

let snapshot st =
  {
    s_words = st.words;
    s_page_words = st.page_words;
    s_pages = Hashtbl.fold (fun k page acc -> (k, copy_vec page) :: acc) st.pages [];
    s_parity = Hashtbl.fold (fun addr () acc -> addr :: acc) st.parity_bad [];
  }

let restore st snap =
  if snap.s_words <> st.words || snap.s_page_words <> st.page_words then
    invalid_arg "Memory.restore: snapshot geometry does not match store";
  Hashtbl.reset st.pages;
  List.iter (fun (k, page) -> Hashtbl.replace st.pages k (copy_vec page)) snap.s_pages;
  Hashtbl.reset st.parity_bad;
  List.iter (fun addr -> Hashtbl.replace st.parity_bad addr ()) snap.s_parity
