(** Red-black Gauss-Seidel / SOR for the 3-D Poisson problem.

    A second CFD workload exercising a different diagram shape: each half
    sweep updates only one colour of the checkerboard, blending through a
    colour mask — unew = u + ω · mask_colour · (jacobi(u) − u) — so the
    machine's lack of scatter writes never bites.  ω = 1 is classic
    Gauss-Seidel (half the sweeps Jacobi needs); ω > 1 is successive
    over-relaxation, which the benches show converging in a fraction of
    the sweeps again.  The relaxation factor is one register-file constant
    in the diagram. *)

open Nsc_arch
open Nsc_diagram
open Nsc_checker

(** Memory-plane layout: u copies on 0,1,2,6; h²f on 3; colour masks on 5
    and 9; the half-sweep result on 4; f on 7; interior mask on 8. *)
type layout = {
  sx : int;
  sy : int;
  sz : int;
  center : int;
  g : int;
  mask_red : int;
  mask_black : int;
  unew : int;
  f : int;
}

let default_layout =
  { sx = 0; sy = 1; sz = 2; center = 6; g = 3; mask_red = 5; mask_black = 9; unew = 4; f = 7 }

let u_planes l = List.sort_uniq compare [ l.sx; l.sy; l.sz; l.center ]
let u_var plane = Printf.sprintf "u%d" plane

(** Colour masks: interior points of one parity of i+j+k.  [omega] scales
    the mask, turning the blend unew = u + mask·(jacobi−u) into
    over-relaxation — the factor rides along in the mask plane, costing no
    extra functional unit. *)
let colour_mask ?(omega = 1.0) grid ~red =
  Grid.field_of grid (fun ~i ~j ~k ->
      if Grid.is_boundary grid ~i ~j ~k then 0.0
      else if (i + j + k) mod 2 = if red then 0 else 1 then omega
      else 0.0)

(* One half sweep: unew = u + mask · (jacobi(u) − u); the residual of the
   half sweep is max |mask · (jacobi(u) − u)|. *)
let build_half (p : Params.t) (grid : Grid.t) (l : layout) ~index ~label ~mask_plane
    ~mask_var : Pipeline.t * Resource.fu_id =
  let off1, offy, offz = Grid.offsets grid in
  let pad = Grid.pad grid in
  let pl = Pipeline.empty ~label index in
  let pl = Pipeline.with_vector_length pl (Grid.points grid) in
  let t0 = ref 0 and t1 = ref 0 and d0 = ref 0 and d1 = ref 0 and t2 = ref 0 in
  let pl =
    let i, pl = Builder.place pl ~params:p ~kind:Als.Triplet ~x:14 ~y:2 in
    t0 := i;
    let i, pl = Builder.place pl ~params:p ~kind:Als.Triplet ~x:32 ~y:2 in
    t1 := i;
    let i, pl = Builder.place pl ~params:p ~kind:Als.Doublet ~x:50 ~y:2 in
    d0 := i;
    let i, pl = Builder.place pl ~params:p ~kind:Als.Doublet ~x:50 ~y:12 in
    d1 := i;
    let i, pl = Builder.place pl ~params:p ~kind:Als.Doublet ~x:68 ~y:2 in
    t2 := i;
    pl
  in
  let t0 = !t0 and t1 = !t1 and d0 = !d0 and d1 = !d1 and t2 = !t2 in
  (* neighbour sum, minus g — same head as the Jacobi sweep *)
  let pl = Builder.mem_to_pad pl ~plane:l.sx ~var:(u_var l.sx) ~offset:(pad - off1) ~icon:t0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.mem_to_pad pl ~plane:l.sx ~var:(u_var l.sx) ~offset:(pad + off1) ~icon:t0 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = Builder.mem_to_pad pl ~plane:l.sy ~var:(u_var l.sy) ~offset:(pad - offy) ~icon:t0 ~pad:(Icon.In_pad (1, Resource.B)) () in
  let pl = Builder.mem_to_pad pl ~plane:l.sy ~var:(u_var l.sy) ~offset:(pad + offy) ~icon:t0 ~pad:(Icon.In_pad (2, Resource.B)) () in
  let pl = Builder.config pl ~icon:t0 ~slot:0 ~a:Builder.sw ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.config pl ~icon:t0 ~slot:1 ~a:Builder.chain ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.config pl ~icon:t0 ~slot:2 ~a:Builder.chain ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.pad_to_pad pl ~from_icon:t0 ~from_pad:(Icon.Out_pad 2) ~to_icon:t1 ~to_pad:(Icon.In_pad (0, Resource.A)) in
  let pl = Builder.mem_to_pad pl ~plane:l.sz ~var:(u_var l.sz) ~offset:(pad - offz) ~icon:t1 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = Builder.mem_to_pad pl ~plane:l.sz ~var:(u_var l.sz) ~offset:(pad + offz) ~icon:t1 ~pad:(Icon.In_pad (1, Resource.B)) () in
  let pl = Builder.mem_to_pad pl ~plane:l.g ~var:"g" ~offset:pad ~icon:t1 ~pad:(Icon.In_pad (2, Resource.B)) () in
  let pl = Builder.config pl ~icon:t1 ~slot:0 ~a:Builder.sw ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.config pl ~icon:t1 ~slot:1 ~a:Builder.chain ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.config pl ~icon:t1 ~slot:2 ~a:Builder.chain ~b:Builder.sw Opcode.Fsub in
  (* d0: jacobi value, then delta = jacobi − u *)
  let pl = Builder.pad_to_pad pl ~from_icon:t1 ~from_pad:(Icon.Out_pad 2) ~to_icon:d0 ~to_pad:(Icon.In_pad (0, Resource.A)) in
  let pl = Builder.mem_to_pad pl ~plane:l.center ~var:(u_var l.center) ~offset:pad ~icon:d0 ~pad:(Icon.In_pad (1, Resource.B)) () in
  let pl = Builder.config pl ~icon:d0 ~slot:0 ~a:Builder.sw ~b:(Builder.const (1.0 /. 6.0)) Opcode.Fmul in
  let pl = Builder.config pl ~icon:d0 ~slot:1 ~a:Builder.chain ~b:Builder.sw Opcode.Fsub in
  (* d1: masked delta, then unew = u + masked delta *)
  let pl = Builder.pad_to_pad pl ~from_icon:d0 ~from_pad:(Icon.Out_pad 1) ~to_icon:d1 ~to_pad:(Icon.In_pad (0, Resource.A)) in
  let pl = Builder.mem_to_pad pl ~plane:mask_plane ~var:mask_var ~offset:pad ~icon:d1 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = Builder.mem_to_pad pl ~plane:l.center ~var:(u_var l.center) ~offset:pad ~icon:d1 ~pad:(Icon.In_pad (1, Resource.B)) () in
  let pl = Builder.config pl ~icon:d1 ~slot:0 ~a:Builder.sw ~b:Builder.sw Opcode.Fmul in
  let pl = Builder.config pl ~icon:d1 ~slot:1 ~a:Builder.chain ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.pad_to_mem pl ~icon:d1 ~pad:(Icon.Out_pad 1) ~plane:l.unew ~var:"unew" ~offset:pad () in
  (* residual: running max of |masked delta| *)
  let pl = Builder.pad_to_pad pl ~from_icon:d1 ~from_pad:(Icon.Out_pad 0) ~to_icon:t2 ~to_pad:(Icon.In_pad (0, Resource.A)) in
  let pl = Builder.config pl ~icon:t2 ~slot:0 ~a:Builder.sw Opcode.Fabs in
  let pl = Builder.config pl ~icon:t2 ~slot:1 ~a:Builder.chain ~b:(Builder.feedback 1) Opcode.Max in
  (pl, { Resource.als = Builder.als_of_icon pl t2; slot = 1 })

(* Refresh: copy unew over the u copies (shared shape with Jacobi). *)
let build_refresh (p : Params.t) (grid : Grid.t) (l : layout) ~index =
  let pad = Grid.pad grid in
  let pl = Pipeline.empty ~label:"refresh u copies" index in
  let pl = Pipeline.with_vector_length pl (Grid.points grid) in
  List.fold_left
    (fun pl plane ->
      let s, pl =
        Builder.place pl ~params:p ~kind:Als.Singlet ~x:(12 + (18 * (plane mod 4))) ~y:6
      in
      let pl = Builder.mem_to_pad pl ~plane:l.unew ~var:"unew" ~offset:pad ~icon:s ~pad:(Icon.In_pad (0, Resource.A)) () in
      let pl = Builder.config pl ~icon:s ~slot:0 ~a:Builder.sw Opcode.Pass in
      Builder.pad_to_mem pl ~icon:s ~pad:(Icon.Out_pad 0) ~plane ~var:(u_var plane) ~offset:pad ())
    pl (u_planes l)

type build = {
  program : Program.t;
  residual_unit : Resource.fu_id;
  layout : layout;
}

(** Build the red-black program: setup, then per iteration
    red half-sweep → refresh → black half-sweep → refresh, looping on the
    black half-sweep's captured change. *)
let build (kb : Knowledge.t) ?(layout = default_layout) (grid : Grid.t) ~tol ~max_iters :
    build =
  let p = Knowledge.params kb in
  let words = Grid.padded_words grid in
  let prog = Program.empty "redblack3d" in
  let vars =
    List.map (fun plane -> (u_var plane, plane)) (u_planes layout)
    @ [
        ("g", layout.g);
        ("mask_red", layout.mask_red);
        ("mask_black", layout.mask_black);
        ("unew", layout.unew);
        ("f", layout.f);
      ]
  in
  let prog = Builder.declare_all prog vars ~length:words in
  (* setup g = h²·f, reusing the Jacobi setup shape *)
  let setup =
    let pl = Pipeline.empty ~label:"setup: g = h^2 * f" 1 in
    let pl = Pipeline.with_vector_length pl words in
    let s0, pl = Builder.place pl ~params:p ~kind:Als.Singlet ~x:30 ~y:6 in
    let pl = Builder.mem_to_pad pl ~plane:layout.f ~var:"f" ~offset:0 ~icon:s0 ~pad:(Icon.In_pad (0, Resource.A)) () in
    let h2 = grid.Grid.h *. grid.Grid.h in
    let pl = Builder.config pl ~icon:s0 ~slot:0 ~a:Builder.sw ~b:(Builder.const h2) Opcode.Fmul in
    Builder.pad_to_mem pl ~icon:s0 ~pad:(Icon.Out_pad 0) ~plane:layout.g ~var:"g" ~offset:0 ()
  in
  let red, _ =
    build_half p grid layout ~index:2 ~label:"red half-sweep" ~mask_plane:layout.mask_red
      ~mask_var:"mask_red"
  in
  let refresh1 = build_refresh p grid layout ~index:3 in
  let black, residual_unit =
    build_half p grid layout ~index:4 ~label:"black half-sweep"
      ~mask_plane:layout.mask_black ~mask_var:"mask_black"
  in
  let refresh2 = build_refresh p grid layout ~index:5 in
  let prog = { prog with Program.pipelines = [ setup; red; refresh1; black; refresh2 ] } in
  let prog =
    Program.set_control prog
      [
        Program.Exec 1;
        Program.While
          {
            condition =
              { Interrupt.unit_watched = residual_unit; relation = Interrupt.Rgt; threshold = tol };
            max_iterations = max_iters;
            body = [ Program.Exec 2; Program.Exec 3; Program.Exec 4; Program.Exec 5 ];
          };
        Program.Halt;
      ]
  in
  let prog = Balance.balance_program kb prog in
  { program = prog; residual_unit; layout }

(** Host reference: one full red-black iteration (red then black half
    sweep, Gauss-Seidel style, in place); returns max change of the black
    half (the quantity the NSC program's loop watches). *)
let host_iteration ?(omega = 1.0) (prob : Poisson.problem) ~(u : float array) =
  let g = prob.Poisson.grid in
  let s1, sy, sz = Grid.offsets g in
  let h2 = g.Grid.h *. g.Grid.h in
  let half red =
    let change = ref 0.0 in
    Grid.iter g (fun ~i ~j ~k ->
        if
          (not (Grid.is_boundary g ~i ~j ~k))
          && (i + j + k) mod 2 = (if red then 0 else 1)
        then begin
          let idx = Grid.index g ~i ~j ~k in
          let v =
            (u.(idx - s1) +. u.(idx + s1) +. u.(idx - sy) +. u.(idx + sy)
            +. u.(idx - sz) +. u.(idx + sz)
            -. (h2 *. prob.Poisson.f.(idx)))
            /. 6.0
          in
          let delta = omega *. (v -. u.(idx)) in
          let d = Float.abs delta in
          if d > !change then change := d;
          u.(idx) <- u.(idx) +. delta
        end);
    !change
  in
  ignore (half true);
  half false

(** Host solve, mirroring the NSC loop structure. *)
let host_solve ?omega (prob : Poisson.problem) ~tol ~max_iters =
  let u = Grid.field prob.Poisson.grid in
  let iters = ref 0 in
  let change = ref Float.infinity in
  while !iters < max_iters && !change > tol do
    change := host_iteration ?omega prob ~u;
    incr iters
  done;
  (u, !iters, !change)

(** Load problem data, including the (possibly over-relaxed) colour
    masks. *)
let load ?omega (node : Nsc_sim.Node.t) (b : build) (prob : Poisson.problem) =
  let grid = prob.Poisson.grid in
  Nsc_sim.Node.load_array node ~plane:b.layout.f ~base:0 prob.Poisson.f;
  Nsc_sim.Node.load_array node ~plane:b.layout.mask_red ~base:0
    (colour_mask ?omega grid ~red:true);
  Nsc_sim.Node.load_array node ~plane:b.layout.mask_black ~base:0
    (colour_mask ?omega grid ~red:false)

type outcome = {
  u : float array;
  iterations : int;  (** full red+black iterations *)
  final_change : float;
  stats : Nsc_sim.Sequencer.stats;
}

(** Compile and execute on a fresh node. *)
let solve (kb : Knowledge.t) ?layout ?omega ?run (prob : Poisson.problem) ~tol ~max_iters :
    (outcome, string) result =
  let b = build kb ?layout prob.Poisson.grid ~tol ~max_iters in
  match Nsc_microcode.Codegen.compile kb b.program with
  | Error ds ->
      Error (String.concat "; " (List.map Diagnostic.to_string (Diagnostic.errors ds)))
  | Ok compiled -> (
      let node = Nsc_sim.Node.create (Knowledge.params kb) in
      load ?omega node b prob;
      match Nsc_sim.Sequencer.run node ?run compiled with
      | Error e -> Error e
      | Ok outcome ->
          let stats = outcome.Nsc_sim.Sequencer.stats in
          Ok
            {
              u =
                Nsc_sim.Node.dump_array node ~plane:b.layout.unew ~base:0
                  ~len:(Grid.padded_words prob.Poisson.grid);
              iterations = (stats.Nsc_sim.Sequencer.instructions_executed - 1) / 4;
              final_change =
                List.assoc_opt b.residual_unit outcome.Nsc_sim.Sequencer.last_values
                |> Option.value ~default:Float.nan;
              stats;
            })
