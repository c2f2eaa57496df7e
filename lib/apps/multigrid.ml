(** Multigrid on the NSC (paper reference [6]: Nosenchuck, Krist, Zang,
    "On Multigrid Methods for the Navier-Stokes Computer").

    A two-grid correction scheme for the 1-D Poisson problem u'' = f with
    homogeneous Dirichlet boundaries: pre-smooth with weighted Jacobi,
    restrict the residual by full weighting, smooth the coarse error
    equation, prolong the correction linearly, correct, post-smooth.  The
    scheme is laid out as a {e twelve-instruction} visual program — the
    richest demonstration in this library of the NSC's phase-to-phase
    pipeline reconfiguration.

    The model problem is 1-D rather than the reference's 3-D because the
    simulated DMA engines, like the real ones, generate single-stride
    address streams: 1-D coarsening is a stride-2 stream, while 3-D
    coarsening would need triple-nested strides the hardware does not
    have.  Every phase of the algorithm is exercised identically. *)

open Nsc_arch
open Nsc_diagram
open Nsc_checker

let omega = 2.0 /. 3.0  (** weighted-Jacobi damping *)

(** The 1-D fine grid: [n] points including boundaries ([n] odd so the
    coarse grid lands on every second point), spacing [h], padding 2. *)
type grid1 = { n : int; h : float }

let pad1 = 2

let grid1 n =
  if n < 5 || n mod 2 = 0 then
    invalid_arg "Multigrid.grid1: need an odd point count of at least 5";
  { n; h = 1.0 /. float_of_int (n - 1) }

let coarse_of g = { n = ((g.n - 1) / 2) + 1; h = 2.0 *. g.h }
let words1 g = g.n + (2 * pad1)

(** Memory-plane layout of the two-grid program. *)
type layout = {
  u_a : int;       (** fine u copy serving the ±1 streams *)
  u_c : int;       (** fine u copy serving centred streams *)
  unew : int;      (** fine scratch *)
  g_f : int;       (** h²·f on the fine grid *)
  mask_f : int;    (** fine interior mask *)
  r : int;         (** fine residual *)
  rc : int;        (** restricted residual (coarse rhs) *)
  e_a : int;       (** coarse error copy, ±1 streams *)
  e_c : int;       (** coarse error copy, centred streams *)
  enew : int;      (** coarse scratch *)
  g_c : int;       (** h_c²·rc *)
  mask_c : int;    (** coarse interior mask *)
  cf : int;        (** prolonged correction on the fine grid *)
  f : int;         (** the right-hand side *)
}

let default_layout =
  {
    u_a = 0;
    u_c = 1;
    unew = 2;
    g_f = 3;
    mask_f = 4;
    r = 5;
    rc = 6;
    e_a = 7;
    e_c = 8;
    enew = 9;
    g_c = 10;
    mask_c = 11;
    cf = 12;
    f = 13;
  }

(* -- pipeline builders -------------------------------------------------- *)

(* Weighted-Jacobi smoother: out = mask · ((1−ω)·u + (ω/2)·(u[-1]+u[+1]−g)).
   Shared by the fine and coarse phases via the plane/var arguments. *)
let build_smoother (p : Params.t) ~index ~label ~vlen ~(ua : int * string)
    ~(uc : int * string) ~(g : int * string) ~(mask : int * string)
    ~(out : int * string) : Pipeline.t =
  let pl = Pipeline.empty ~label index in
  let pl = Pipeline.with_vector_length pl vlen in
  let t0, pl = Builder.place pl ~params:p ~kind:Als.Triplet ~x:14 ~y:2 in
  let d0, pl = Builder.place pl ~params:p ~kind:Als.Doublet ~x:34 ~y:2 in
  let s0, pl = Builder.place pl ~params:p ~kind:Als.Singlet ~x:52 ~y:2 in
  let plane_ua, var_ua = ua and plane_uc, var_uc = uc in
  let plane_g, var_g = g and plane_m, var_m = mask and plane_o, var_o = out in
  let pl = Builder.mem_to_pad pl ~plane:plane_ua ~var:var_ua ~offset:(pad1 - 1) ~icon:t0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.mem_to_pad pl ~plane:plane_ua ~var:var_ua ~offset:(pad1 + 1) ~icon:t0 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = Builder.mem_to_pad pl ~plane:plane_g ~var:var_g ~offset:pad1 ~icon:t0 ~pad:(Icon.In_pad (1, Resource.B)) () in
  let pl = Builder.config pl ~icon:t0 ~slot:0 ~a:Builder.sw ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.config pl ~icon:t0 ~slot:1 ~a:Builder.chain ~b:Builder.sw Opcode.Fsub in
  let pl = Builder.config pl ~icon:t0 ~slot:2 ~a:Builder.chain ~b:(Builder.const (omega /. 2.0)) Opcode.Fmul in
  let pl = Builder.mem_to_pad pl ~plane:plane_uc ~var:var_uc ~offset:pad1 ~icon:d0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.config pl ~icon:d0 ~slot:0 ~a:Builder.sw ~b:(Builder.const (1.0 -. omega)) Opcode.Fmul in
  let pl = Builder.pad_to_pad pl ~from_icon:t0 ~from_pad:(Icon.Out_pad 2) ~to_icon:d0 ~to_pad:(Icon.In_pad (1, Resource.B)) in
  let pl = Builder.config pl ~icon:d0 ~slot:1 ~a:Builder.chain ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.pad_to_pad pl ~from_icon:d0 ~from_pad:(Icon.Out_pad 1) ~to_icon:s0 ~to_pad:(Icon.In_pad (0, Resource.A)) in
  let pl = Builder.mem_to_pad pl ~plane:plane_m ~var:var_m ~offset:pad1 ~icon:s0 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = Builder.config pl ~icon:s0 ~slot:0 ~a:Builder.sw ~b:Builder.sw Opcode.Fmul in
  Builder.pad_to_mem pl ~icon:s0 ~pad:(Icon.Out_pad 0) ~plane:plane_o ~var:var_o ~offset:pad1 ()

(* Copy [src] over each plane in [dsts]. *)
let build_refresh (p : Params.t) ~index ~label ~vlen ~(src : int * string)
    ~(dsts : (int * string) list) : Pipeline.t =
  let plane_s, var_s = src in
  let pl = Pipeline.empty ~label index in
  let pl = Pipeline.with_vector_length pl vlen in
  List.fold_left
    (fun pl (i, (plane, var)) ->
      let s, pl = Builder.place pl ~params:p ~kind:Als.Singlet ~x:(12 + (18 * i)) ~y:6 in
      let pl = Builder.mem_to_pad pl ~plane:plane_s ~var:var_s ~offset:pad1 ~icon:s ~pad:(Icon.In_pad (0, Resource.A)) () in
      let pl = Builder.config pl ~icon:s ~slot:0 ~a:Builder.sw Opcode.Pass in
      Builder.pad_to_mem pl ~icon:s ~pad:(Icon.Out_pad 0) ~plane ~var ~offset:pad1 ())
    pl
    (List.mapi (fun i d -> (i, d)) dsts)

(* Residual: r = mask · (f − (u[-1] − 2u + u[+1]) / h²). *)
let build_residual (p : Params.t) (g : grid1) (l : layout) ~index : Pipeline.t =
  let pl = Pipeline.empty ~label:"fine residual" index in
  let pl = Pipeline.with_vector_length pl g.n in
  let d0, pl = Builder.place pl ~params:p ~kind:Als.Doublet ~x:12 ~y:12 in
  let t0, pl = Builder.place pl ~params:p ~kind:Als.Triplet ~x:12 ~y:2 in
  let d1, pl = Builder.place pl ~params:p ~kind:Als.Doublet ~x:34 ~y:2 in
  let pl = Builder.mem_to_pad pl ~plane:l.u_c ~var:"u_c" ~offset:pad1 ~icon:d0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.config pl ~icon:d0 ~slot:0 ~a:Builder.sw ~b:(Builder.const 2.0) Opcode.Fmul in
  let pl = Builder.mem_to_pad pl ~plane:l.u_a ~var:"u_a" ~offset:(pad1 - 1) ~icon:t0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.mem_to_pad pl ~plane:l.u_a ~var:"u_a" ~offset:(pad1 + 1) ~icon:t0 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = Builder.config pl ~icon:t0 ~slot:0 ~a:Builder.sw ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.pad_to_pad pl ~from_icon:d0 ~from_pad:(Icon.Out_pad 0) ~to_icon:t0 ~to_pad:(Icon.In_pad (1, Resource.B)) in
  let pl = Builder.config pl ~icon:t0 ~slot:1 ~a:Builder.chain ~b:Builder.sw Opcode.Fsub in
  let pl = Builder.config pl ~icon:t0 ~slot:2 ~a:Builder.chain ~b:(Builder.const (1.0 /. (g.h *. g.h))) Opcode.Fmul in
  let pl = Builder.mem_to_pad pl ~plane:l.f ~var:"f" ~offset:pad1 ~icon:d1 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.pad_to_pad pl ~from_icon:t0 ~from_pad:(Icon.Out_pad 2) ~to_icon:d1 ~to_pad:(Icon.In_pad (0, Resource.B)) in
  let pl = Builder.config pl ~icon:d1 ~slot:0 ~a:Builder.sw ~b:Builder.sw Opcode.Fsub in
  let pl = Builder.mem_to_pad pl ~plane:l.mask_f ~var:"mask_f" ~offset:pad1 ~icon:d1 ~pad:(Icon.In_pad (1, Resource.B)) () in
  let pl = Builder.config pl ~icon:d1 ~slot:1 ~a:Builder.chain ~b:Builder.sw Opcode.Fmul in
  Builder.pad_to_mem pl ~icon:d1 ~pad:(Icon.Out_pad 1) ~plane:l.r ~var:"r" ~offset:pad1 ()

(* Full-weighting restriction: rc[j] = (r[2j-1] + 2 r[2j] + r[2j+1]) / 4. *)
let build_restrict (p : Params.t) (gc : grid1) (l : layout) ~index : Pipeline.t =
  let pl = Pipeline.empty ~label:"restrict residual (full weighting)" index in
  let pl = Pipeline.with_vector_length pl gc.n in
  let d0, pl = Builder.place pl ~params:p ~kind:Als.Doublet ~x:12 ~y:12 in
  let t0, pl = Builder.place pl ~params:p ~kind:Als.Triplet ~x:12 ~y:2 in
  let pl = Builder.mem_to_pad pl ~plane:l.r ~var:"r" ~offset:pad1 ~stride:2 ~icon:d0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.config pl ~icon:d0 ~slot:0 ~a:Builder.sw ~b:(Builder.const 2.0) Opcode.Fmul in
  let pl = Builder.mem_to_pad pl ~plane:l.r ~var:"r" ~offset:(pad1 - 1) ~stride:2 ~icon:t0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.mem_to_pad pl ~plane:l.r ~var:"r" ~offset:(pad1 + 1) ~stride:2 ~icon:t0 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = Builder.config pl ~icon:t0 ~slot:0 ~a:Builder.sw ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.pad_to_pad pl ~from_icon:d0 ~from_pad:(Icon.Out_pad 0) ~to_icon:t0 ~to_pad:(Icon.In_pad (1, Resource.B)) in
  let pl = Builder.config pl ~icon:t0 ~slot:1 ~a:Builder.chain ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.config pl ~icon:t0 ~slot:2 ~a:Builder.chain ~b:(Builder.const 0.25) Opcode.Fmul in
  Builder.pad_to_mem pl ~icon:t0 ~pad:(Icon.Out_pad 2) ~plane:l.rc ~var:"rc" ~offset:pad1 ()

(* gc = h_c² · rc, and zeroing the coarse error copies. *)
let build_scale (p : Params.t) ~index ~label ~vlen ~const:k ~(src : int * string)
    ~(dsts : (int * string) list) : Pipeline.t =
  let plane_s, var_s = src in
  let pl = Pipeline.empty ~label index in
  let pl = Pipeline.with_vector_length pl vlen in
  let s0, pl = Builder.place pl ~params:p ~kind:Als.Singlet ~x:30 ~y:6 in
  let pl = Builder.mem_to_pad pl ~plane:plane_s ~var:var_s ~offset:pad1 ~icon:s0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.config pl ~icon:s0 ~slot:0 ~a:Builder.sw ~b:(Builder.const k) Opcode.Fmul in
  List.fold_left
    (fun pl (plane, var) ->
      Builder.pad_to_mem pl ~icon:s0 ~pad:(Icon.Out_pad 0) ~plane ~var ~offset:pad1 ())
    pl dsts

(* Prolongation: even fine points copy the coarse value; odd fine points
   average their coarse neighbours. *)
let build_prolong_even (p : Params.t) (gc : grid1) (l : layout) ~index : Pipeline.t =
  let pl = Pipeline.empty ~label:"prolong (even points)" index in
  let pl = Pipeline.with_vector_length pl gc.n in
  let s0, pl = Builder.place pl ~params:p ~kind:Als.Singlet ~x:30 ~y:6 in
  let pl = Builder.mem_to_pad pl ~plane:l.e_c ~var:"e_c" ~offset:pad1 ~icon:s0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.config pl ~icon:s0 ~slot:0 ~a:Builder.sw Opcode.Pass in
  Builder.pad_to_mem pl ~icon:s0 ~pad:(Icon.Out_pad 0) ~plane:l.cf ~var:"cf" ~offset:pad1 ~stride:2 ()

let build_prolong_odd (p : Params.t) (gc : grid1) (l : layout) ~index : Pipeline.t =
  let pl = Pipeline.empty ~label:"prolong (odd points)" index in
  let pl = Pipeline.with_vector_length pl (gc.n - 1) in
  let d0, pl = Builder.place pl ~params:p ~kind:Als.Doublet ~x:30 ~y:2 in
  let pl = Builder.mem_to_pad pl ~plane:l.e_c ~var:"e_c" ~offset:pad1 ~icon:d0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.mem_to_pad pl ~plane:l.e_c ~var:"e_c" ~offset:(pad1 + 1) ~icon:d0 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = Builder.config pl ~icon:d0 ~slot:0 ~a:Builder.sw ~b:Builder.sw Opcode.Fadd in
  let pl = Builder.config pl ~icon:d0 ~slot:1 ~a:Builder.chain ~b:(Builder.const 0.5) Opcode.Fmul in
  Builder.pad_to_mem pl ~icon:d0 ~pad:(Icon.Out_pad 1) ~plane:l.cf ~var:"cf" ~offset:(pad1 + 1) ~stride:2 ()

(* Correction: unew = u + cf. *)
let build_correct (p : Params.t) (g : grid1) (l : layout) ~index : Pipeline.t =
  let pl = Pipeline.empty ~label:"apply coarse correction" index in
  let pl = Pipeline.with_vector_length pl g.n in
  let s0, pl = Builder.place pl ~params:p ~kind:Als.Singlet ~x:30 ~y:6 in
  let pl = Builder.mem_to_pad pl ~plane:l.u_c ~var:"u_c" ~offset:pad1 ~icon:s0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = Builder.mem_to_pad pl ~plane:l.cf ~var:"cf" ~offset:pad1 ~icon:s0 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = Builder.config pl ~icon:s0 ~slot:0 ~a:Builder.sw ~b:Builder.sw Opcode.Fadd in
  Builder.pad_to_mem pl ~icon:s0 ~pad:(Icon.Out_pad 0) ~plane:l.unew ~var:"unew" ~offset:pad1 ()

type build = { program : Program.t; layout : layout; fine : grid1; coarse : grid1 }

(** Build the complete two-grid program: twelve instructions, each a fresh
    pipeline configuration. *)
let build (kb : Knowledge.t) ?(layout = default_layout) (g : grid1) ~cycles ~nu1 ~nu2
    ~nu_coarse : build =
  let p = Knowledge.params kb in
  let gc = coarse_of g in
  let l = layout in
  let prog = Program.empty "multigrid-two-grid" in
  let prog =
    Builder.declare_all prog
      [ ("u_a", l.u_a); ("u_c", l.u_c); ("unew", l.unew); ("g_f", l.g_f);
        ("mask_f", l.mask_f); ("r", l.r); ("cf", l.cf); ("f", l.f) ]
      ~length:(words1 g)
  in
  let prog =
    Builder.declare_all prog
      [ ("rc", l.rc); ("e_a", l.e_a); ("e_c", l.e_c); ("enew", l.enew);
        ("g_c", l.g_c); ("mask_c", l.mask_c) ]
      ~length:(words1 gc)
  in
  let pipelines =
    [
      (* 1 *) build_scale p ~index:1 ~label:"setup: g = h^2 * f" ~vlen:g.n
                ~const:(g.h *. g.h) ~src:(l.f, "f") ~dsts:[ (l.g_f, "g_f") ];
      (* 2 *) build_smoother p ~index:2 ~label:"fine smoother" ~vlen:g.n
                ~ua:(l.u_a, "u_a") ~uc:(l.u_c, "u_c") ~g:(l.g_f, "g_f")
                ~mask:(l.mask_f, "mask_f") ~out:(l.unew, "unew");
      (* 3 *) build_refresh p ~index:3 ~label:"refresh fine u" ~vlen:g.n
                ~src:(l.unew, "unew") ~dsts:[ (l.u_a, "u_a"); (l.u_c, "u_c") ];
      (* 4 *) build_residual p g l ~index:4;
      (* 5 *) build_restrict p gc l ~index:5;
      (* 6 *) build_scale p ~index:6 ~label:"setup: g_c = h_c^2 * rc" ~vlen:gc.n
                ~const:(gc.h *. gc.h) ~src:(l.rc, "rc") ~dsts:[ (l.g_c, "g_c") ];
      (* 7 *) build_scale p ~index:7 ~label:"zero coarse error" ~vlen:gc.n ~const:0.0
                ~src:(l.rc, "rc") ~dsts:[ (l.e_a, "e_a"); (l.e_c, "e_c") ];
      (* 8 *) build_smoother p ~index:8 ~label:"coarse smoother" ~vlen:gc.n
                ~ua:(l.e_a, "e_a") ~uc:(l.e_c, "e_c") ~g:(l.g_c, "g_c")
                ~mask:(l.mask_c, "mask_c") ~out:(l.enew, "enew");
      (* 9 *) build_refresh p ~index:9 ~label:"refresh coarse e" ~vlen:gc.n
                ~src:(l.enew, "enew") ~dsts:[ (l.e_a, "e_a"); (l.e_c, "e_c") ];
      (* 10 *) build_prolong_even p gc l ~index:10;
      (* 11 *) build_prolong_odd p gc l ~index:11;
      (* 12 *) build_correct p g l ~index:12;
    ]
  in
  let prog = { prog with Program.pipelines } in
  let smooth_fine n = Program.Repeat { count = n; body = [ Program.Exec 2; Program.Exec 3 ] } in
  let prog =
    Program.set_control prog
      [
        Program.Exec 1;
        Program.Repeat
          {
            count = cycles;
            body =
              [
                smooth_fine nu1;
                Program.Exec 4;
                Program.Exec 5;
                Program.Exec 6;
                Program.Exec 7;
                Program.Repeat
                  { count = nu_coarse; body = [ Program.Exec 8; Program.Exec 9 ] };
                Program.Exec 10;
                Program.Exec 11;
                Program.Exec 12;
                Program.Exec 3;
                smooth_fine nu2;
              ];
          };
        Program.Halt;
      ]
  in
  let prog = Balance.balance_program kb prog in
  { program = prog; layout = l; fine = g; coarse = gc }

(* -- host reference (identical algorithm) ------------------------------- *)

type host_problem = { grid : grid1; f : float array; exact : float array option }

let pi = 4.0 *. atan 1.0

(** Manufactured 1-D problem: u* = sin(πx), f = u*'' = −π² sin(πx). *)
let manufactured n =
  let grid = grid1 n in
  let at i = float_of_int i *. grid.h in
  let f = Array.make (words1 grid) 0.0 in
  let exact = Array.make (words1 grid) 0.0 in
  for i = 0 to grid.n - 1 do
    f.(pad1 + i) <- -.(pi *. pi) *. sin (pi *. at i);
    exact.(pad1 + i) <- sin (pi *. at i)
  done;
  { grid; f; exact = Some exact }

let mask1 g = Array.init (words1 g) (fun i -> if i > pad1 && i < pad1 + g.n - 1 then 1.0 else 0.0)

let host_smooth g ~(u : float array) ~(gh2 : float array) ~(mask : float array) =
  let out = Array.make (words1 g) 0.0 in
  for i = 0 to g.n - 1 do
    let idx = pad1 + i in
    out.(idx) <-
      mask.(idx)
      *. (((1.0 -. omega) *. u.(idx))
         +. (omega /. 2.0 *. (u.(idx - 1) +. u.(idx + 1) -. gh2.(idx))))
  done;
  Array.blit out 0 u 0 (words1 g)

let host_residual g ~(u : float array) ~(f : float array) ~(mask : float array) =
  let r = Array.make (words1 g) 0.0 in
  let h2 = g.h *. g.h in
  for i = 0 to g.n - 1 do
    let idx = pad1 + i in
    r.(idx) <-
      mask.(idx) *. (f.(idx) -. ((u.(idx - 1) -. (2.0 *. u.(idx)) +. u.(idx + 1)) /. h2))
  done;
  r

(** Run the identical two-grid scheme on the host.  Returns the solution. *)
let host_solve (prob : host_problem) ~cycles ~nu1 ~nu2 ~nu_coarse =
  let g = prob.grid in
  let gc = coarse_of g in
  let mask_f = mask1 g and mask_c = mask1 gc in
  let gh2 = Array.map (fun v -> v *. g.h *. g.h) prob.f in
  let u = Array.make (words1 g) 0.0 in
  for _ = 1 to cycles do
    for _ = 1 to nu1 do
      host_smooth g ~u ~gh2 ~mask:mask_f
    done;
    let r = host_residual g ~u ~f:prob.f ~mask:mask_f in
    (* full weighting *)
    let rc = Array.make (words1 gc) 0.0 in
    for j = 0 to gc.n - 1 do
      let fi = pad1 + (2 * j) in
      rc.(pad1 + j) <- 0.25 *. (r.(fi - 1) +. (2.0 *. r.(fi)) +. r.(fi + 1))
    done;
    let gc2 = Array.map (fun v -> v *. gc.h *. gc.h) rc in
    let e = Array.make (words1 gc) 0.0 in
    for _ = 1 to nu_coarse do
      host_smooth gc ~u:e ~gh2:gc2 ~mask:mask_c
    done;
    (* linear prolongation + correction *)
    for j = 0 to gc.n - 1 do
      u.(pad1 + (2 * j)) <- u.(pad1 + (2 * j)) +. e.(pad1 + j)
    done;
    for j = 0 to gc.n - 2 do
      u.(pad1 + (2 * j) + 1) <-
        u.(pad1 + (2 * j) + 1) +. (0.5 *. (e.(pad1 + j) +. e.(pad1 + j + 1)))
    done;
    for _ = 1 to nu2 do
      host_smooth g ~u ~gh2 ~mask:mask_f
    done
  done;
  u

(** Max-norm of the 1-D discrete residual. *)
let host_residual_norm (prob : host_problem) u =
  let r = host_residual prob.grid ~u ~f:prob.f ~mask:(mask1 prob.grid) in
  Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 r

type outcome = { u : float array; stats : Nsc_sim.Sequencer.stats }

(** Compile and run the NSC two-grid program on a fresh node. *)
let solve (kb : Knowledge.t) ?run (prob : host_problem) ~cycles ~nu1 ~nu2 ~nu_coarse :
    (outcome, string) result =
  let b = build kb prob.grid ~cycles ~nu1 ~nu2 ~nu_coarse in
  match Nsc_microcode.Codegen.compile kb b.program with
  | Error ds ->
      Error (String.concat "; " (List.map Diagnostic.to_string (Diagnostic.errors ds)))
  | Ok compiled -> (
      let node = Nsc_sim.Node.create (Knowledge.params kb) in
      Nsc_sim.Node.load_array node ~plane:b.layout.f ~base:0 prob.f;
      Nsc_sim.Node.load_array node ~plane:b.layout.mask_f ~base:0 (mask1 b.fine);
      Nsc_sim.Node.load_array node ~plane:b.layout.mask_c ~base:0 (mask1 b.coarse);
      match Nsc_sim.Sequencer.run node ?run compiled with
      | Error e -> Error e
      | Ok outcome ->
          Ok
            {
              u = Nsc_sim.Node.dump_array node ~plane:b.layout.u_c ~base:0 ~len:(words1 b.fine);
              stats = outcome.Nsc_sim.Sequencer.stats;
            })
