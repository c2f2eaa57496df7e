(** Arithmetic-logic structures: the hardwired groupings of functional units.

    The NSC hardwires its 32 functional units into singlets, doublets and
    triplets.  Within an ALS the units form a chain: the output of slot [k]
    can feed an operand of slot [k+1] without crossing the switch network.
    Doublets may also be configured to act as singlets by bypassing one of
    the units (the paper's Figure 4 shows both doublet representations). *)

type kind = Singlet | Doublet | Triplet [@@deriving show { with_path = false }, eq, ord]

let kind_size = function Singlet -> 1 | Doublet -> 2 | Triplet -> 3

let kind_to_string = function
  | Singlet -> "singlet"
  | Doublet -> "doublet"
  | Triplet -> "triplet"

(** Kind of ALS [a] under parameters [p] (singlets first, then doublets,
    then triplets — the convention fixed in {!Resource}). *)
let kind_of (p : Params.t) (a : Resource.als_id) : kind =
  match Resource.als_size p a with
  | 1 -> Singlet
  | 2 -> Doublet
  | 3 -> Triplet
  | _ -> assert false

(** ALS ids of a given kind under parameters [p]. *)
let ids_of_kind (p : Params.t) (k : kind) =
  List.filter (fun a -> equal_kind (kind_of p a) k) (Resource.all_als p)

(** A doublet configured with one unit bypassed, behaving as a singlet.
    [Keep_head] retains slot 0 (the integer-capable unit); [Keep_tail]
    retains slot 1 (the min/max-capable unit). *)
type bypass = No_bypass | Keep_head | Keep_tail
[@@deriving show { with_path = false }, eq, ord]

(** Slots that actually process data for an ALS of size [size] under the
    given bypass configuration. *)
let active_slots ~size = function
  | No_bypass -> List.init size (fun i -> i)
  | Keep_head -> [ 0 ]
  | Keep_tail -> [ size - 1 ]

(** Bypass configurations legal for an ALS of size [size]: bypassing is a
    doublet-only feature in the prototype. *)
let legal_bypasses ~size =
  if size = 2 then [ No_bypass; Keep_head; Keep_tail ] else [ No_bypass ]

(** The slot whose output leaves the ALS for the switch network. *)
let output_slot ~size = function
  | No_bypass -> size - 1
  | Keep_head -> 0
  | Keep_tail -> size - 1

(** External operand ports exposed by an ALS: the head unit exposes both
    operands; each chained unit's A port is fed internally, leaving its B
    port external.  With a bypass only the surviving unit's two ports are
    exposed. *)
let external_inputs ~size bypass : (int * Resource.port) list =
  match active_slots ~size bypass with
  | [] -> []
  | first :: rest ->
      ((first, Resource.A) : int * Resource.port)
      :: (first, Resource.B)
      :: List.map (fun slot -> (slot, Resource.B)) rest

(** Is port [port] of slot [slot] fed through the switch network (as opposed
    to being hardwired to the previous unit in the chain)? *)
let port_is_external ~size bypass ~slot ~port =
  List.exists
    (fun (s, pt) -> s = slot && Resource.equal_port pt port)
    (external_inputs ~size bypass)

(** The chain predecessor feeding [slot]'s A port internally, if any. *)
let chain_predecessor ~size bypass ~slot =
  match active_slots ~size bypass with
  | [] -> None
  | slots ->
      let rec find prev = function
        | [] -> None
        | s :: rest -> if s = slot then prev else find (Some s) rest
      in
      find None slots
