(* --- nscbench compatibility — delete when nscbench moves to Run.t ------- *)

(* What is left of the stand-alone plan stage: nscbench's per-layer spans
   still pass a plan cache around and read plan counters.  The cache
   holds nothing, [cached] is one kernel compile, and the counters read
   the kernel totals. *)
type cache = unit

let make_cache ?bound:_ () : cache = ()
let cached (() : cache) p ?honor_timing sem = Kernel.compile p ?honor_timing sem
let compile_count = Kernel.compile_count
let cache_hit_count = Kernel.cache_hit_count
