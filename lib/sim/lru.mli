(** The bounded table behind {!Kernel.cache}.

    Entries are keyed by one int, a hash of a program's key, each hit
    validated by the caller.  Lookups are mutex-guarded, so one cache may
    serve several worker domains; a hit allocates nothing.  Once [bound]
    entries are resident, admitting a new key evicts the least recently
    used one, counted per cache ({!evictions}) and on the always-on
    [cache.evictions] counter. *)

type 'a t

val c_evictions : Nsc_metrics.Metrics.counter
(** [cache.evictions], shared by every bounded cache in the process. *)

val create : who:string -> ?bound:int -> unit -> 'a t
(** An empty cache (default: unbounded).  Raises [Invalid_argument],
    naming [who ^ ".make_cache"], when [bound < 1]. *)

val find : 'a t -> int -> ('b -> 'a -> bool) -> 'b -> 'a
(** [find t k valid arg] is the value resident under [k] when
    [valid arg value] holds, refreshing its recency.  Raises [Not_found]
    on a miss or a stale entry (which the caller replaces with {!add}). *)

val add : 'a t -> int -> 'a -> unit
(** Insert or replace, evicting the least recently used entry first when
    a new key would exceed the bound. *)

val evictions : 'a t -> int
(** Entries this cache has evicted. *)
