(** Geometry of the display window (the paper's Figure 5).

    The window is a character-cell surface: an information/error strip
    across the top; a region on the left reserved for control-flow
    specifications and variable declarations; the large central drawing
    space for pipeline diagrams; and a control-panel column on the right
    holding the ALS icons and the editor operations. *)

open Nsc_diagram

let window_w = 132
let window_h = 44

(** The message strip across the top. *)
let message_strip = Geometry.rect 0 0 (window_w - 1) 1

(** Left region: control-flow and declarations. *)
let left_region = Geometry.rect 0 2 19 (window_h - 3)

(** Central drawing space, in absolute window coordinates. *)
let drawing_area = Geometry.rect 20 2 90 (window_h - 3)

(** Right-hand control panel. *)
let control_panel = Geometry.rect 111 2 20 (window_h - 3)

(** Buttons in the control panel.  Icon buttons arm icon placement; the
    rest are the editor operations of Section 5 ("insert, delete, copy, and
    renumber pipelines, as well as ... scroll forward or backward or jump
    to a specific pipeline"). *)
type button =
  | B_singlet
  | B_doublet
  | B_doublet_bypass  (** the second doublet representation of Figure 4 *)
  | B_triplet
  | B_memory
  | B_cache
  | B_shift_delay
  | B_insert
  | B_delete
  | B_copy
  | B_renumber
  | B_next
  | B_prev
  | B_goto
  | B_vlen      (** set the instruction's vector length *)
  | B_check     (** run the complete checker pass *)
  | B_balance   (** auto-insert alignment delay queues *)
  | B_save
  | B_load
[@@deriving show { with_path = false }, eq]

let buttons =
  [
    (B_singlet, "Singlet");
    (B_doublet, "Doublet");
    (B_doublet_bypass, "Doublet/1");
    (B_triplet, "Triplet");
    (B_memory, "Memory");
    (B_cache, "Cache");
    (B_shift_delay, "Shift/Del");
    (B_insert, "Insert");
    (B_delete, "Delete");
    (B_copy, "Copy");
    (B_renumber, "Renumber");
    (B_next, "Next >");
    (B_prev, "< Prev");
    (B_goto, "Goto");
    (B_vlen, "VecLen");
    (B_check, "Check");
    (B_balance, "Balance");
    (B_save, "Save");
    (B_load, "Load");
  ]

let button_h = 2

(** Screen rectangle of each button, in panel order. *)
let button_rect b =
  let rec index i = function
    | [] -> invalid_arg "Layout.button_rect"
    | (b', _) :: rest -> if equal_button b b' then i else index (i + 1) rest
  in
  let i = index 0 buttons in
  Geometry.rect (control_panel.Geometry.ox + 1)
    (control_panel.Geometry.oy + 1 + (i * button_h))
    (control_panel.Geometry.w - 2) (button_h - 1)

(** Button under a window point, if any. *)
let button_at p =
  List.find_map
    (fun (b, _) -> if Geometry.contains (button_rect b) p then Some b else None)
    buttons

(** Convert window coordinates to drawing-area coordinates and back.  The
    pipeline diagram's icon positions are stored in drawing-area
    coordinates so that panel layout changes never disturb saved
    diagrams. *)
let to_drawing p = Geometry.sub p (Geometry.origin drawing_area)
let of_drawing p = Geometry.add p (Geometry.origin drawing_area)
let in_drawing p = Geometry.contains drawing_area p
