(** {2 nscbench compatibility — delete when nscbench moves to [Run.t]}

    What is left of the stand-alone plan stage, kept only for nscbench's
    per-layer spans: instructions are lowered in one stage,
    {!Kernel.compile}.  Nothing in the library, the CLI, the bench or the
    tests calls these. *)

type cache

val make_cache : ?bound:int -> unit -> cache

val cached :
  cache -> Nsc_arch.Params.t -> ?honor_timing:bool -> Nsc_diagram.Semantic.t -> Kernel.t
(** {!Kernel.compile}; the cache is neither consulted nor filled. *)

val compile_count : unit -> int
(** {!Kernel.compile_count}. *)

val cache_hit_count : unit -> int
(** {!Kernel.cache_hit_count}: kernel replays. *)
