(** The bounded, mutex-guarded compile cache behind {!Kernel.cache}:
    entries keyed by (instruction index, vector length),
    least-recently-used eviction once [bound] entries are resident, and a
    per-cache eviction count beside the process-wide [cache.evictions]
    counter.  A hit takes the lock once and allocates nothing. *)

module Metrics = Nsc_metrics.Metrics

let c_evictions =
  Metrics.always_counter ~name:"cache.evictions" ~units:"entries"
    ~desc:"bounded compile-cache entries evicted (least recently used)"

type 'a entry = { value : 'a; mutable tick : int }

type 'a t = {
  tbl : (int, 'a entry) Hashtbl.t;
  bound : int;
  mutable clock : int;
  mutable evicted : int;
  lock : Mutex.t;
}

let create ~who ?(bound = max_int) () =
  if bound < 1 then invalid_arg (who ^ ".make_cache: bound must be >= 1");
  { tbl = Hashtbl.create 16; bound; clock = 0; evicted = 0; lock = Mutex.create () }

(* Instruction indices and vector lengths are far below 2^31, so the pair
   packs into one immediate int: a lookup allocates no key tuple. *)
let key ~index ~vlen = (index lsl 31) lor vlen

let evictions t = t.evicted

(* [valid] is a closed function of [arg] and the entry, so a hit
   allocates no closure.  A stale entry keeps its old recency: it stays
   the likeliest victim while its replacement compiles. *)
let find t k valid arg =
  Mutex.lock t.lock;
  match Hashtbl.find t.tbl k with
  | e when valid arg e.value ->
      t.clock <- t.clock + 1;
      e.tick <- t.clock;
      Mutex.unlock t.lock;
      e.value
  | _ ->
      Mutex.unlock t.lock;
      raise Not_found
  | exception Not_found ->
      Mutex.unlock t.lock;
      raise Not_found

(* Bounds are tiny whenever eviction can fire at all, so a linear scan for
   the oldest tick beats the bookkeeping of an intrusive LRU list. *)
let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, e') when e'.tick <= e.tick -> acc
        | _ -> Some (k, e))
      t.tbl None
  in
  match victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evicted <- t.evicted + 1;
      Metrics.bump c_evictions 1

(* Two domains racing on one miss both insert; the last wins. *)
let add t k value =
  Mutex.protect t.lock (fun () ->
      if (not (Hashtbl.mem t.tbl k)) && Hashtbl.length t.tbl >= t.bound then
        evict_oldest t;
      t.clock <- t.clock + 1;
      Hashtbl.replace t.tbl k { value; tick = t.clock })
