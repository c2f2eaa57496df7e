(** Arithmetic-logic structures: the hardwired groupings of functional units.

    The NSC hardwires its 32 functional units into singlets, doublets and
    triplets.  Within an ALS the units form a chain: the output of slot [k]
    can feed an operand of slot [k+1] without crossing the switch network.
    Doublets may also be configured to act as singlets by bypassing one of
    the units (the paper's Figure 4 shows both doublet representations). *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type kind = Singlet | Doublet | Triplet
val pp_kind :
  Format.formatter -> kind -> unit
val show_kind : kind -> string
val equal_kind : kind -> kind -> bool
val compare_kind : kind -> kind -> int
val kind_size : kind -> int
val kind_to_string : kind -> string
(** Kind of an ALS id under the singlets-doublets-triplets numbering. *)
val kind_of : Params.t -> Resource.als_id -> kind
(** ALS ids of a given kind. *)
val ids_of_kind : Params.t -> kind -> Resource.als_id list
type bypass = No_bypass | Keep_head | Keep_tail
val pp_bypass :
  Format.formatter ->
  bypass -> unit
val show_bypass : bypass -> string
val equal_bypass : bypass -> bypass -> bool
val compare_bypass : bypass -> bypass -> int
(** Slots that actually process data under the bypass configuration. *)
val active_slots : size:int -> bypass -> int list
(** Bypassing is a doublet-only feature in the prototype. *)
val legal_bypasses : size:int -> bypass list
(** The slot whose output leaves the ALS for the switch network. *)
val output_slot : size:int -> bypass -> int
(** Operand ports fed through the switch (the head unit exposes both;
    each chained unit's A port arrives over the internal chain). *)
val external_inputs :
  size:int -> bypass -> (int * Resource.port) list
(** Is the port switch-fed, as opposed to hardwired to the chain? *)
val port_is_external :
  size:int -> bypass -> slot:int -> port:Resource.port -> bool
(** The chain predecessor feeding a slot's A port internally, if any. *)
val chain_predecessor : size:int -> bypass -> slot:int -> int option
