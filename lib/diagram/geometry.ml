(** Plane geometry for the drawing surface.

    The prototype draws on a high-resolution bit-mapped display; we keep the
    same model with integer coordinates.  Geometry is pure display data: the
    semantic projection of a diagram discards it entirely. *)

type point = { x : int; y : int } [@@deriving show { with_path = false }, eq, ord]

let point x y = { x; y }
let add a b = { x = a.x + b.x; y = a.y + b.y }
let sub a b = { x = a.x - b.x; y = a.y - b.y }

(** Axis-aligned rectangle anchored at its top-left corner. *)
type rect = { ox : int; oy : int; w : int; h : int }
[@@deriving show { with_path = false }, eq, ord]

let rect ox oy w h =
  if w < 0 || h < 0 then invalid_arg "Geometry.rect: negative extent";
  { ox; oy; w; h }

let origin r = { x = r.ox; y = r.oy }

(** Point containment, inclusive of all edges. *)
let contains r p = p.x >= r.ox && p.x <= r.ox + r.w && p.y >= r.oy && p.y <= r.oy + r.h

let translate r d = { r with ox = r.ox + d.x; oy = r.oy + d.y }
let center r = { x = r.ox + (r.w / 2); y = r.oy + (r.h / 2) }

(** Squared Euclidean distance (avoids needless floating point in hit
    testing). *)
let dist2 a b =
  let dx = a.x - b.x and dy = a.y - b.y in
  (dx * dx) + (dy * dy)

(** Nearest of [candidates] to [p] within radius [within], if any — the
    editor uses this to resolve a mouse click to an I/O pad. *)
let nearest ~within p candidates =
  let r2 = within * within in
  List.fold_left
    (fun best (q, v) ->
      let d = dist2 p q in
      match best with
      | Some (bd, _) when bd <= d -> best
      | _ -> if d <= r2 then Some (d, v) else best)
    None candidates
  |> Option.map snd
