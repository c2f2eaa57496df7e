(* nscvp — the Navier-Stokes Computer visual-programming tool chain.

   Subcommands cover the full flow of the paper's Figure 3:
     info          machine knowledge-base summary
     check         validate a saved visual program
     codegen       generate microcode (listing and/or hex)
     disasm        disassemble a hex microcode file
     run           execute a program on the simulated node
     render        ASCII/SVG renderings of diagrams and the datapath
     replay        replay an editor session script
     compile       compile textual pipeline-language source to a program
     debug         run with tracing and print annotated diagram frames
     stats         run in a scoped metric context and print its counters
     profile       run under a fresh metric context; print the hotspot profile
     inject        run clean and under a seeded fault model; print the report
     serve         long-running simulation service over an NDJSON job protocol *)

open Nsc_arch
open Nsc_diagram
open Cmdliner
module Fault = Nsc_fault.Fault
module Metrics = Nsc_metrics.Metrics

let kb_of_subset subset = if subset then Knowledge.subset else Knowledge.default

let subset_flag =
  Arg.(value & flag & info [ "subset" ] ~doc:"Use the restricted (subset) machine model.")

let program_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"Saved visual program.")

(* A malformed or truncated input must exit 2 with a one-line diagnostic,
   never escape as a raw OCaml exception with a backtrace. *)
let guarded f =
  try f () with
  | Sys_error e | Failure e | Invalid_argument e ->
      prerr_endline ("error: " ^ e);
      exit 2
  | Unix.Unix_error (err, fn, arg) ->
      (* a bind/connect/unlink failure (socket already bound, permission
         denied, ...) is an environment problem, not a crash *)
      prerr_endline
        (Printf.sprintf "error: %s%s: %s" fn
           (if arg = "" then "" else " " ^ arg)
           (Unix.error_message err));
      exit 2

let load_program kb path =
  guarded (fun () ->
      match Serialize.load (Knowledge.params kb) ~path with
      | Ok prog -> prog
      | Error e ->
          prerr_endline ("error: " ^ e);
          exit 2)

let print_diagnostics ds =
  List.iter (fun d -> print_endline ("  " ^ Nsc_checker.Diagnostic.to_string d)) ds

(* -- info ------------------------------------------------------------- *)

let info_cmd =
  let run subset =
    let kb = kb_of_subset subset in
    let p = Knowledge.params kb in
    print_endline (Knowledge.summary kb);
    Printf.printf "hypercube: up to %d nodes (%.1f GFLOPS, %d GB total memory)\n"
      (1 lsl p.Params.hypercube_dim)
      (Params.peak_gflops_machine p)
      (Params.node_memory_bytes p * (1 lsl p.Params.hypercube_dim) / (1024 * 1024 * 1024));
    let layout = Nsc_microcode.Fields.make p in
    Printf.printf "microinstruction: %d bits, %d fields (%d kinds)\n"
      layout.Nsc_microcode.Fields.total_bits
      (Nsc_microcode.Fields.field_count layout)
      (Nsc_microcode.Fields.kind_count layout)
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe the machine knowledge base.")
    Term.(const run $ subset_flag)

(* -- check ------------------------------------------------------------ *)

let check_cmd =
  let run subset path =
    let kb = kb_of_subset subset in
    let prog = load_program kb path in
    let ds = Nsc_checker.Checker.check_program kb prog in
    if ds = [] then print_endline "no findings: the program is valid"
    else begin
      Printf.printf "%d finding(s):\n" (List.length ds);
      print_diagnostics ds
    end;
    if Nsc_checker.Diagnostic.has_errors ds then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc:"Run the thorough checker pass over a program.")
    Term.(const run $ subset_flag $ program_arg)

(* -- codegen / disasm -------------------------------------------------- *)

let compile_or_die kb prog =
  match Nsc_microcode.Codegen.compile kb prog with
  | Ok c -> c
  | Error ds ->
      prerr_endline "code generation blocked:";
      List.iter (fun d -> prerr_endline ("  " ^ Nsc_checker.Diagnostic.to_string d)) ds;
      exit 1

let write_hex (c : Nsc_microcode.Codegen.compiled) path =
  let oc = open_out path in
  Printf.fprintf oc "NSCMC %d\n" c.Nsc_microcode.Codegen.layout.Nsc_microcode.Fields.total_bits;
  List.iter
    (fun (i : Nsc_microcode.Encode.instruction) ->
      Printf.fprintf oc "instr %d\n%s\n" i.Nsc_microcode.Encode.index
        (Nsc_microcode.Word.to_hex i.Nsc_microcode.Encode.word))
    c.Nsc_microcode.Codegen.instructions;
  close_out oc

let codegen_cmd =
  let hex_out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write hex microcode.")
  in
  let show_hex = Arg.(value & flag & info [ "hex" ] ~doc:"Include hex dumps in the listing.") in
  let run subset path hex_path show_hex =
    let kb = kb_of_subset subset in
    let c = compile_or_die kb (load_program kb path) in
    print_string (Nsc_microcode.Listing.compiled_to_string ~hex:show_hex c);
    match hex_path with
    | Some out ->
        write_hex c out;
        Printf.printf "wrote %s (%d bits of microcode)\n" out (Nsc_microcode.Codegen.code_bits c)
    | None -> ()
  in
  Cmd.v (Cmd.info "codegen" ~doc:"Generate microcode and print the listing.")
    Term.(const run $ subset_flag $ program_arg $ hex_out $ show_hex)

let disasm_cmd =
  let hex_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"HEX" ~doc:"Hex microcode file.")
  in
  let run subset path =
    guarded @@ fun () ->
    let kb = kb_of_subset subset in
    let p = Knowledge.params kb in
    let layout = Nsc_microcode.Fields.make p in
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    let lines = List.rev !lines in
    (match lines with
    | header :: _ when String.length header >= 5 && String.sub header 0 5 = "NSCMC" -> ()
    | _ ->
        prerr_endline "error: not an NSCMC hex file";
        exit 2);
    (* gather hex bytes per instruction *)
    let word_bytes = (layout.Nsc_microcode.Fields.total_bits + 7) / 8 in
    let current = Buffer.create 1024 in
    let flush_instr () =
      if Buffer.length current > 0 then begin
        let hex = Buffer.contents current in
        let w = Nsc_microcode.Word.create layout.Nsc_microcode.Fields.total_bits in
        let n = min word_bytes (String.length hex / 2) in
        for i = 0 to n - 1 do
          let byte = int_of_string ("0x" ^ String.sub hex (2 * i) 2) in
          for b = 0 to 7 do
            if (i * 8) + b < layout.Nsc_microcode.Fields.total_bits then
              Nsc_microcode.Word.set_bit w ((i * 8) + b) ((byte lsr b) land 1 = 1)
          done
        done;
        (match Nsc_microcode.Decode.decode layout w with
        | Ok sem -> print_string (Nsc_microcode.Listing.semantic_to_string sem)
        | Error e -> Printf.printf "  (undecodable: %s)\n" e);
        Buffer.clear current
      end
    in
    List.iteri
      (fun i line ->
        if i = 0 then ()
        else if String.length line >= 5 && String.sub line 0 5 = "instr" then flush_instr ()
        else
          String.iter
            (fun ch -> if ch <> ' ' && ch <> '\n' then Buffer.add_char current ch)
            line)
      lines;
    flush_instr ()
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble hex microcode back to its pseudo-code.")
    Term.(const run $ subset_flag $ hex_arg)

(* -- run ---------------------------------------------------------------- *)

let parse_load s =
  (* plane:base:file *)
  match String.split_on_char ':' s with
  | [ plane; base; file ] -> (
      match (int_of_string_opt plane, int_of_string_opt base) with
      | Some plane, Some base -> Some (plane, base, file)
      | _ -> None)
  | _ -> None

let parse_dump s =
  match String.split_on_char ':' s with
  | [ plane; base; len ] -> (
      match (int_of_string_opt plane, int_of_string_opt base, int_of_string_opt len) with
      | Some plane, Some base, Some len -> Some (plane, base, len)
      | _ -> None)
  | _ -> None

let read_floats file =
  let ic = open_in file in
  let xs = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then
         match float_of_string_opt line with
         | Some v -> xs := v :: !xs
         | None -> ()
     done
   with End_of_file -> close_in ic);
  Array.of_list (List.rev !xs)

(* -- fault injection options ------------------------------------------- *)

let faults_opt =
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
         ~doc:"Run under a seeded fault model.  $(docv) is a \
               comma-separated list of clauses: $(b,transient-link:p=F), \
               $(b,dead-link:A-B), $(b,mem-corrupt:p=F), $(b,dma-stall:p=F), \
               $(b,fu-fault:p=F).  See docs/FAULTS.md for the full grammar.")

let fault_seed_arg =
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N"
         ~doc:"Seed of the deterministic fault schedule (default 1); the same \
               seed and spec reproduce the same faults.")

let parse_faults_or_die spec =
  match Fault.parse spec with
  | Ok s -> s
  | Error e ->
      prerr_endline ("bad --faults: " ^ e);
      exit 2

(* The seeded model for the coming run, when --faults names one. *)
let fault_model spec seed =
  Option.map (fun s -> Fault.make ~seed (parse_faults_or_die s)) spec

(* End-of-run fault report, from the model's always-on ledger (works
   without --trace).  Settles first so no injected fault is silently
   dropped. *)
let fault_report m =
  let reconciled = Fault.settle m in
  print_endline "fault report:";
  List.iter (fun (name, v) -> Printf.printf "  %-24s %d\n" name v) (Fault.ledger m);
  if reconciled > 0 then
    Printf.printf "  (%d outstanding fault(s) reconciled as unrecovered)\n" reconciled

(* -- engine selection --------------------------------------------------- *)

let engine_arg =
  let engine_conv = Arg.enum [ ("kernel", `Kernel); ("reference", `Reference) ] in
  Arg.(value & opt engine_conv `Kernel
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Simulator path: $(b,kernel) (specialised vector kernels \
                 over pooled buffers, the default) or $(b,reference) (the \
                 general memoized evaluator, the oracle the kernel is \
                 checked against).  The two are bit-identical; the \
                 reference is a few hundred times slower and serves \
                 differential debugging.")

(* -- Domain fan-out ----------------------------------------------------- *)

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Fan the run across $(docv) OCaml domains (default 1): the \
               program is replicated on every node of a hypercube machine \
               just large enough for $(docv) domains and executed through \
               the machine's persistent domain pool; the replicas are \
               checked bit-identical and node 0 is reported.  Ignored \
               under --faults — the seeded fault schedule is consumed \
               sequentially to stay reproducible.")

(* smallest hypercube dimension giving at least [n] nodes *)
let dim_for_domains n =
  let rec go d = if 1 lsl d >= n || d >= 10 then d else go (d + 1) in
  go 0

(* Execute [exec node] on every node of a fresh [2^dim]-node machine
   (each prepared by [prepare]), fanned over [domains] domains from the
   machine's pool; all replicas must agree bit-identically (they run the
   same program on identical data), and node 0's result is returned. *)
let run_replicated p ~domains ~prepare ~exec =
  let machine = Nsc_sim.Multinode.create ~dim:(dim_for_domains domains) p in
  Array.iter prepare machine.Nsc_sim.Multinode.nodes;
  let results =
    Nsc_sim.Multinode.parallel_iter ~domains machine (fun _ node -> exec node)
  in
  Nsc_sim.Multinode.shutdown machine;
  let agree = Array.for_all (fun r -> compare results.(0) r = 0) results in
  Printf.printf "replicated on %d node(s) across %d domain(s): %s\n"
    (Array.length results) domains
    (if agree then "replicas bit-identical" else "REPLICA MISMATCH");
  (Nsc_sim.Multinode.node machine 0, results.(0))

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a structured trace of the execution and write it as Chrome \
               trace-event JSON to $(docv) (loadable in Perfetto or chrome://tracing); \
               the counter summary is printed as well.")

(* Run [f] in its own enabled metric context when [trace] names an
   output file, as [stats] and [profile] do.  Input loading happens
   before this, so the counters see exactly the execution; the JSON
   export and the printed digest both read the same context, so their
   totals always agree. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some out ->
      let ctx = Metrics.create ~label:"trace" () in
      Metrics.enable ctx;
      Metrics.with_ctx ctx f;
      Metrics.disable ctx;
      let oc = open_out out in
      output_string oc (Metrics.to_chrome ctx);
      close_out oc;
      Printf.printf "wrote %s\n" out;
      print_string (Metrics.summary ctx)

let run_cmd =
  let loads =
    Arg.(value & opt_all string [] & info [ "load" ] ~docv:"PLANE:BASE:FILE"
           ~doc:"Load floats (one per line) into a memory plane before the run.")
  in
  let dumps =
    Arg.(value & opt_all string [] & info [ "dump" ] ~docv:"PLANE:BASE:LEN"
           ~doc:"Print a memory range after the run.")
  in
  let events = Arg.(value & flag & info [ "events" ] ~doc:"Print the interrupt log.") in
  let run subset path loads dumps events trace faults seed domains engine =
    guarded @@ fun () ->
    let kb = kb_of_subset subset in
    let p = Knowledge.params kb in
    let c = compile_or_die kb (load_program kb path) in
    let apply_loads node =
      List.iter
        (fun s ->
          match parse_load s with
          | Some (plane, base, file) ->
              Nsc_sim.Node.load_array node ~plane ~base (read_floats file)
          | None ->
              prerr_endline ("bad --load: " ^ s);
              exit 2)
        loads
    in
    let fault = fault_model faults seed in
    let domains =
      if domains > 1 && fault <> None then begin
        print_endline
          "note: --domains ignored under --faults (the seeded fault schedule is \
           consumed sequentially)";
        1
      end
      else domains
    in
    let node = ref (Nsc_sim.Node.create p) in
    if domains <= 1 then apply_loads !node;
    let run = Nsc_sim.Run.make ?fault () in
    with_trace trace (fun () ->
        let result =
          if domains <= 1 then Nsc_sim.Sequencer.run !node ~engine ~run c
          else begin
            let n0, r =
              run_replicated p ~domains ~prepare:apply_loads
                ~exec:(fun node -> Nsc_sim.Sequencer.run node ~engine ~run c)
            in
            node := n0;
            r
          end
        in
        match result with
        | Error e ->
            prerr_endline ("run error: " ^ e);
            exit 1
        | Ok o ->
            let stats = o.Nsc_sim.Sequencer.stats in
            Printf.printf "executed %d instruction(s)%s\n"
              stats.Nsc_sim.Sequencer.instructions_executed
              (if o.Nsc_sim.Sequencer.halted then " (halted)" else "");
            let s =
              Nsc_sim.Stats.summarize p ~cycles:stats.Nsc_sim.Sequencer.total_cycles
                ~flops:stats.Nsc_sim.Sequencer.total_flops
            in
            Printf.printf "%s\n" (Nsc_sim.Stats.summary_to_string s);
            if events then
              List.iter
                (fun e -> print_endline ("  " ^ Interrupt.event_to_string e))
                stats.Nsc_sim.Sequencer.events);
    Option.iter fault_report fault;
    List.iter
      (fun s ->
        match parse_dump s with
        | Some (plane, base, len) ->
            Printf.printf "plane %d [%d..%d):\n" plane base (base + len);
            Array.iter
              (fun v -> Printf.printf "  %.17g\n" v)
              (Nsc_sim.Node.dump_array !node ~plane ~base ~len)
        | None ->
            prerr_endline ("bad --dump: " ^ s);
            exit 2)
      dumps
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a program on the simulated node.")
    Term.(const run $ subset_flag $ program_arg $ loads $ dumps $ events $ trace_out
          $ faults_opt $ fault_seed_arg $ domains_arg $ engine_arg)

(* -- render ------------------------------------------------------------- *)

let render_cmd =
  let what =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WHAT"
           ~doc:"'datapath', 'icons', or a program file.")
  in
  let pipeline_n =
    Arg.(value & opt int 1 & info [ "pipeline" ] ~docv:"N" ~doc:"Pipeline to render.")
  in
  let svg = Arg.(value & flag & info [ "svg" ] ~doc:"Emit SVG instead of ASCII.") in
  let run subset what n svg =
    let kb = kb_of_subset subset in
    let p = Knowledge.params kb in
    match what with
    | "datapath" ->
        if svg then print_string (Nsc_editor.Render_svg.render_datapath p)
        else begin
          (* a compact ASCII datapath summary (the Figure 1 content) *)
          Printf.printf "%s\n" (Knowledge.summary kb);
          Printf.printf
            "  hyperspace router <-> caches (%d) <-> FLONET switch <-> memory planes (%d)\n"
            p.Params.n_caches p.Params.n_memory_planes;
          Printf.printf "  FLONET <-> %d singlets | %d doublets | %d triplets | %d shift/delay\n"
            p.Params.n_singlets p.Params.n_doublets p.Params.n_triplets p.Params.n_shift_delay
        end
    | "icons" ->
        (* the Figure 4 gallery: one of each ALS icon form *)
        let pl = Pipeline.empty 1 in
        let add pl kind bypass x =
          match Pipeline.place_als p pl ~kind ~bypass ~pos:(Geometry.point x 2) () with
          | Ok (_, pl) -> pl
          | Error e -> failwith e
        in
        let pl = add pl Als.Singlet Als.No_bypass 4 in
        let pl = add pl Als.Doublet Als.No_bypass 20 in
        let pl = add pl Als.Doublet Als.Keep_head 36 in
        let pl = add pl Als.Triplet Als.No_bypass 52 in
        if svg then print_string (Nsc_editor.Render_svg.render_pipeline p pl)
        else print_string (Nsc_editor.Render_ascii.render_pipeline p pl)
    | path -> (
        let prog = load_program kb path in
        match Program.find_pipeline prog n with
        | None ->
            prerr_endline "no such pipeline";
            exit 2
        | Some pl ->
            if svg then print_string (Nsc_editor.Render_svg.render_pipeline p pl)
            else print_string (Nsc_editor.Render_ascii.render_pipeline p pl))
  in
  Cmd.v (Cmd.info "render" ~doc:"Render diagrams, the icon gallery, or the datapath.")
    Term.(const run $ subset_flag $ what $ pipeline_n $ svg)

(* -- replay -------------------------------------------------------------- *)

let replay_cmd =
  let script_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT" ~doc:"Editor session script.")
  in
  let run subset path =
    let kb = kb_of_subset subset in
    let ic = open_in path in
    let n = in_channel_length ic in
    let script = really_input_string ic n in
    close_in ic;
    let r = Nsc_editor.Session.replay (Nsc_editor.State.create kb) script in
    List.iter
      (fun (f : Nsc_editor.Session.frame) ->
        Printf.printf "===== %s =====\n%s\n" f.Nsc_editor.Session.name
          f.Nsc_editor.Session.render)
      r.Nsc_editor.Session.frames;
    Printf.printf "%d event(s) applied; final message: %s\n" r.Nsc_editor.Session.applied
      (Nsc_editor.State.latest_message r.Nsc_editor.Session.final);
    List.iter
      (fun (lineno, m) -> Printf.printf "  line %d: %s\n" lineno m)
      r.Nsc_editor.Session.errors
  in
  Cmd.v (Cmd.info "replay" ~doc:"Replay an editor session script.")
    Term.(const run $ subset_flag $ script_arg)

(* -- compile (textual language) ------------------------------------------ *)

let compile_cmd =
  let src_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE" ~doc:"Pipeline-language source.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Save the visual program.")
  in
  let render = Arg.(value & flag & info [ "render" ] ~doc:"Render the generated diagrams (ASCII).") in
  let run subset path out render =
    let kb = kb_of_subset subset in
    let ic = open_in path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    match Nsc_lang.Compile.compile kb src with
    | Error e ->
        Printf.eprintf "compile error%s: %s\n"
          (match e.Nsc_lang.Compile.at_statement with
          | Some n -> Printf.sprintf " (statement %d)" n
          | None -> "")
          e.Nsc_lang.Compile.message;
        exit 1
    | Ok c ->
        Printf.printf "compiled: %d pipeline instruction(s)\n"
          (Program.pipeline_count c.Nsc_lang.Compile.program);
        (* the paper's section-6 idea: the visual environment "as a back
           end to a compiler, displaying the results of the compilation" *)
        if render then
          List.iter
            (fun (pl : Pipeline.t) ->
              Printf.printf "\n-- instruction %d: %s --\n%s" pl.Pipeline.index
                pl.Pipeline.label
                (Nsc_editor.Render_ascii.render_pipeline (Knowledge.params kb) pl))
            c.Nsc_lang.Compile.program.Program.pipelines;
        (match out with
        | Some out ->
            Serialize.save c.Nsc_lang.Compile.program ~path:out;
            Printf.printf "wrote %s\n" out
        | None -> ())
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile pipeline-language source to a visual program.")
    Term.(const run $ subset_flag $ src_arg $ out $ render)

(* -- debug ----------------------------------------------------------------- *)

let debug_cmd =
  let element =
    Arg.(value & opt int 0 & info [ "element" ] ~docv:"E" ~doc:"Vector element to annotate.")
  in
  let loads =
    Arg.(value & opt_all string [] & info [ "load" ] ~docv:"PLANE:BASE:FILE"
           ~doc:"Load floats before the run.")
  in
  let limit = Arg.(value & opt int 8 & info [ "frames" ] ~doc:"Frames to display.") in
  let run subset path element loads limit trace engine =
    guarded @@ fun () ->
    let kb = kb_of_subset subset in
    let p = Knowledge.params kb in
    let prog = load_program kb path in
    let c = compile_or_die kb prog in
    let node = Nsc_sim.Node.create p in
    List.iter
      (fun s ->
        match parse_load s with
        | Some (plane, base, file) -> Nsc_sim.Node.load_array node ~plane ~base (read_floats file)
        | None ->
            prerr_endline ("bad --load: " ^ s);
            exit 2)
      loads;
    with_trace trace (fun () ->
        match Nsc_debug.Stepper.run node ~limit ~engine c prog with
        | Error e ->
            prerr_endline ("run error: " ^ e);
            exit 1
        | Ok run ->
            List.iter
              (fun f ->
                print_string (Nsc_debug.Stepper.render_frame p run f ~element);
                print_newline ())
              run.Nsc_debug.Stepper.frames)
  in
  Cmd.v
    (Cmd.info "debug" ~doc:"Execute with tracing; print annotated pipeline diagrams.")
    Term.(const run $ subset_flag $ program_arg $ element $ loads $ limit $ trace_out
          $ engine_arg)

(* -- stats ----------------------------------------------------------------- *)

let stats_cmd =
  let loads =
    Arg.(value & opt_all string [] & info [ "load" ] ~docv:"PLANE:BASE:FILE"
           ~doc:"Load floats (one per line) into a memory plane before the run.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Also write the Chrome trace-event JSON to $(docv).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the run's metric snapshot as JSON instead of the \
                 plain-text summary (machine-readable; schema in \
                 docs/OBSERVABILITY.md).")
  in
  let run subset path loads out json =
    guarded @@ fun () ->
    let kb = kb_of_subset subset in
    let p = Knowledge.params kb in
    let c = compile_or_die kb (load_program kb path) in
    let node = Nsc_sim.Node.create p in
    List.iter
      (fun s ->
        match parse_load s with
        | Some (plane, base, file) -> Nsc_sim.Node.load_array node ~plane ~base (read_floats file)
        | None ->
            prerr_endline ("bad --load: " ^ s);
            exit 2)
      loads;
    (* the run gets its own metric context, isolated from everything else
       in the process — the new-world form of reset/enable/disable *)
    let ctx = Metrics.create ~label:"stats" () in
    Metrics.enable ctx;
    (match Metrics.with_ctx ctx (fun () -> Nsc_sim.Sequencer.run node c) with
    | Error e ->
        prerr_endline ("run error: " ^ e);
        exit 1
    | Ok _ -> ());
    Metrics.disable ctx;
    if json then
      print_endline
        (Nsc_metrics.Json.to_string (Metrics.snapshot_to_json (Metrics.snapshot ctx)))
    else print_string (Metrics.summary ctx);
    match out with
    | Some file ->
        let oc = open_out file in
        output_string oc (Metrics.to_chrome ctx);
        close_out oc;
        Printf.printf "wrote %s\n" file
    | None -> ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a program in its own metric context and print its counters.")
    Term.(const run $ subset_flag $ program_arg $ loads $ out $ json)

(* -- profile ---------------------------------------------------------------- *)

let profile_cmd =
  let program_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"PROGRAM"
           ~doc:"Saved visual program to profile (omit with $(b,--jacobi)).")
  in
  let jacobi =
    Arg.(value & opt (some int) None & info [ "jacobi" ] ~docv:"N"
           ~doc:"Profile the built-in 3-D Jacobi/Poisson solve on an N-point \
                 grid edge (the paper's programming example; the manufactured \
                 problem, tol 1e-6, at most 4000 sweeps) instead of a saved \
                 program.")
  in
  let loads =
    Arg.(value & opt_all string [] & info [ "load" ] ~docv:"PLANE:BASE:FILE"
           ~doc:"Load floats (one per line) into a memory plane before the run.")
  in
  let json_out =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the machine-readable profile document to $(docv) \
                 (schema in docs/OBSERVABILITY.md).")
  in
  let folded_out =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE"
           ~doc:"Write folded-stacks output ($(b,instruction;unit cycles) \
                 lines) to $(docv) — flamegraph.pl input.")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N"
           ~doc:"Rows to keep in the printed hotspot table (default 10).")
  in
  let run subset program jacobi loads json_out folded_out top engine =
    guarded @@ fun () ->
    let kb = kb_of_subset subset in
    let p = Knowledge.params kb in
    (* a fresh context per profiled run: nothing from this process's past
       (or a concurrent run) bleeds into the report *)
    let ctx = Metrics.create ~label:"profile" () in
    Metrics.enable ctx;
    (match (program, jacobi) with
    | Some path, _ ->
        let c = compile_or_die kb (load_program kb path) in
        let node = Nsc_sim.Node.create p in
        List.iter
          (fun s ->
            match parse_load s with
            | Some (plane, base, file) ->
                Nsc_sim.Node.load_array node ~plane ~base (read_floats file)
            | None ->
                prerr_endline ("bad --load: " ^ s);
                exit 2)
          loads;
        (match Metrics.with_ctx ctx (fun () -> Nsc_sim.Sequencer.run node ~engine c) with
        | Error e ->
            prerr_endline ("run error: " ^ e);
            exit 1
        | Ok _ -> ())
    | None, Some n ->
        let prob = Nsc_apps.Poisson.manufactured n in
        Metrics.with_ctx ctx (fun () ->
            match Nsc_apps.Jacobi.solve kb ~engine prob ~tol:1e-6 ~max_iters:4000 with
            | Error e ->
                prerr_endline ("run error: " ^ e);
                exit 1
            | Ok o ->
                Printf.printf "jacobi n=%d: %d sweep(s), final change %.3g\n" n
                  o.Nsc_apps.Jacobi.sweeps o.Nsc_apps.Jacobi.final_change)
    | None, None ->
        prerr_endline "error: give a PROGRAM or --jacobi N";
        exit 2);
    Metrics.disable ctx;
    print_string (Nsc_sim.Stats.profile_report ~top p ctx);
    let write file s =
      let oc = open_out file in
      output_string oc s;
      close_out oc;
      Printf.printf "wrote %s\n" file
    in
    Option.iter
      (fun file ->
        write file (Nsc_metrics.Json.to_string (Nsc_sim.Stats.profile_json p ctx)))
      json_out;
    Option.iter (fun file -> write file (Nsc_sim.Stats.profile_folded ctx)) folded_out
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Execute under a fresh metric context and print the hotspot \
             profile: latency percentiles, per-unit cycle/FLOP attribution \
             with sustained MFLOPS against the paper's per-node peak, and \
             optional JSON / folded-stacks output.")
    Term.(const run $ subset_flag $ program_opt $ jacobi $ loads $ json_out
          $ folded_out $ top $ engine_arg)

(* -- inject ----------------------------------------------------------------- *)

let inject_cmd =
  let loads =
    Arg.(value & opt_all string [] & info [ "load" ] ~docv:"PLANE:BASE:FILE"
           ~doc:"Load floats (one per line) into a memory plane before each run.")
  in
  let faults_req =
    Arg.(required & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Fault specification to inject (required); same grammar as \
                 $(b,run --faults).  See docs/FAULTS.md.")
  in
  let run subset path loads spec seed domains =
    guarded @@ fun () ->
    let kb = kb_of_subset subset in
    let p = Knowledge.params kb in
    let c = compile_or_die kb (load_program kb path) in
    let fspec = parse_faults_or_die spec in
    let apply_loads node =
      List.iter
        (fun s ->
          match parse_load s with
          | Some (plane, base, file) ->
              Nsc_sim.Node.load_array node ~plane ~base (read_floats file)
          | None ->
              prerr_endline ("bad --load: " ^ s);
              exit 2)
        loads
    in
    let fresh_node () =
      let node = Nsc_sim.Node.create p in
      apply_loads node;
      node
    in
    let stats_of = function
      | Error e ->
          prerr_endline ("run error: " ^ e);
          exit 1
      | Ok o -> o.Nsc_sim.Sequencer.stats
    in
    let run_once ?run node = stats_of (Nsc_sim.Sequencer.run node ?run c) in
    (* reference run on a perfect machine (optionally replicated across
       domains), then the same program under the seeded fault model on a
       fresh node — always sequential, so the seeded schedule is stable *)
    let clean =
      if domains <= 1 then run_once (fresh_node ())
      else
        let _node0, r =
          run_replicated p ~domains ~prepare:apply_loads
            ~exec:(fun node -> Nsc_sim.Sequencer.run node c)
        in
        stats_of r
    in
    if domains > 1 then
      print_endline "note: the faulted run stays sequential (seeded fault schedule)";
    let fault = Fault.make ~seed fspec in
    let faulted = run_once ~run:(Nsc_sim.Run.make ~fault ()) (fresh_node ()) in
    let cc = clean.Nsc_sim.Sequencer.total_cycles in
    let fc = faulted.Nsc_sim.Sequencer.total_cycles in
    Printf.printf "fault injection: %s (seed %d)\n" (Fault.spec_to_string fspec) seed;
    Printf.printf "  clean run:   %d instruction(s), %d cycles\n"
      clean.Nsc_sim.Sequencer.instructions_executed cc;
    Printf.printf "  faulted run: %d instruction(s), %d cycles (%+.2f%% cycle overhead)\n"
      faulted.Nsc_sim.Sequencer.instructions_executed fc
      (if cc = 0 then 0.0 else 100.0 *. float_of_int (fc - cc) /. float_of_int cc);
    fault_report fault;
    let unrecovered =
      Option.value ~default:0 (List.assoc_opt "fault.unrecovered" (Fault.ledger fault))
    in
    if unrecovered > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Execute a program clean and under a seeded fault model; print the \
             fault/recovery report (exit 1 if any fault went unrecovered).")
    Term.(const run $ subset_flag $ program_arg $ loads $ faults_req $ fault_seed_arg
          $ domains_arg)

(* -- serve ------------------------------------------------------------------ *)

let serve_cmd =
  let module Serve = Nsc_serve.Serve in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission-queue capacity (default 64).  A submit that \
                   finds the queue full is rejected with $(b,queue-full) \
                   and the queue is drained; clients that interleave \
                   $(b,drain) requests never see rejections.")
  in
  let cache_bound_arg =
    Arg.(value & opt int 0
         & info [ "cache-bound" ] ~docv:"N"
             ~doc:"Cap the shared compile cache at $(docv) entries, \
                   evicting least-recently-used compiled instructions \
                   (the $(b,cache.evictions) counter).  0 (the default) \
                   leaves it unbounded.")
  in
  let serve_domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Fan each dispatch wave's clean jobs across $(docv) worker \
                   domains of the persistent pool (default 1: sequential).  \
                   Jobs carrying a fault spec always run sequentially after \
                   the clean jobs of their wave.")
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket at $(docv) (one client at \
                   a time; queue, caches and counters are shared across \
                   connections) instead of serving stdin/stdout.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Write-ahead journal: every admitted submission is \
                   appended (and flushed) to $(docv) before it is \
                   acknowledged, and completions are marked, so a crashed \
                   daemon restarted with $(b,--recover) replays exactly the \
                   accepted-but-unfinished jobs.")
  in
  let recover_arg =
    Arg.(value & flag
         & info [ "recover" ]
             ~doc:"Before serving traffic, replay the \
                   accepted-but-unfinished jobs of the $(b,--journal) file \
                   (in admission order) through the ordinary admission \
                   path.")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a failed or deadline-killed job up to $(docv) \
                   times (exponential backoff with seed-deterministic \
                   jitter; see $(b,--backoff-ms)) before it escalates.  \
                   Default 0: failures answer immediately.")
  in
  let backoff_ms_arg =
    Arg.(value & opt float 0.0
         & info [ "backoff-ms" ] ~docv:"MS"
             ~doc:"First retry backoff in milliseconds, doubling per retry \
                   (default 0: retries are immediate).")
  in
  let degraded_arg =
    Arg.(value & flag
         & info [ "degraded" ]
             ~doc:"After the retries are exhausted, make one degraded-mode \
                   attempt — a quartered Jacobi sweep budget, or the \
                   reference engine for source jobs (a few hundred times \
                   slower; it still honours the wall deadline every 1024 \
                   elements) — before failing the job permanently.")
  in
  let shed_at_arg =
    Arg.(value & opt int 0
         & info [ "shed-at" ] ~docv:"N"
             ~doc:"Open the overload breaker once the admission queue \
                   reaches $(docv) jobs and shed low-priority submissions \
                   (code $(b,shed)) until it drains back to half that \
                   (hysteresis).  Default 0: no shedding.")
  in
  let run subset queue cache_bound domains engine socket journal recover
      retries backoff_ms degraded shed_at =
    guarded @@ fun () ->
    let config =
      {
        Serve.default_config with
        domains;
        queue_bound = queue;
        cache_bound;
        engine;
        subset;
        retries;
        backoff_ms;
        degraded;
        journal;
        shed_open = shed_at;
      }
    in
    let t = Serve.create ~config () in
    Sys.catch_break true;
    (* SIGTERM gets the SIGINT treatment: stop admission, drain the
       queue, emit the session summary, exit 0 *)
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break))
     with Invalid_argument _ | Sys_error _ -> ());
    if recover then
      List.iter print_endline (Serve.recover t);
    match socket with
    | None -> Serve.serve_channels t stdin stdout
    | Some path -> Serve.listen t ~path
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the simulation-as-a-service daemon: accept NDJSON job \
             submissions (built-in Jacobi solves or inline pipeline-language \
             source, optionally under a seeded fault model) on stdin or a \
             Unix socket, schedule them across the persistent domain pool, \
             and stream per-job results back as NDJSON.  Protocol: \
             docs/SERVICE.md; resilience (deadlines, retries, journal, \
             shedding): docs/RESILIENCE.md.")
    Term.(const run $ subset_flag $ queue_arg $ cache_bound_arg
          $ serve_domains_arg $ engine_arg $ socket_arg $ journal_arg
          $ recover_arg $ retries_arg $ backoff_ms_arg $ degraded_arg
          $ shed_at_arg)

(* -- chaos ------------------------------------------------------------------ *)

(* Seeded in-process chaos harness over the serve daemon's resilience
   layer.  Three scenarios, all deterministic for a fixed seed:

     1. a burst killed mid-wave, recovered from the write-ahead journal
        and replayed bit-identically to an uninterrupted run;
     2. a stalled job hitting its deadline — structured error, pool
        domain still live for the next job;
     3. a fault storm driven through the retry ladder to the degraded
        attempt and the permanent verdict.

   Asserts zero acked-job loss and a balanced ledger; exits 0 iff every
   check held. *)
let chaos_cmd =
  let module Serve = Nsc_serve.Serve in
  let module Json = Nsc_metrics.Json in
  let module Journal = Nsc_guard.Guard.Journal in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Seed of the deterministic chaos schedule (default 42).")
  in
  let run seed =
    guarded @@ fun () ->
    let failures = ref 0 in
    let check name ok =
      Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
      if not ok then incr failures
    in
    let parse line =
      match Json.parse line with Ok o -> o | Error _ -> Json.Null
    in
    let str o k = Option.bind (Json.member k (parse o)) Json.to_str in
    let inum o k =
      Option.map int_of_float (Option.bind (Json.member k (parse o)) Json.to_num)
    in
    (* host-side observability can never replay identically — wall-clock
       latency, and the domain-local buffer pool's hit/miss split (pool
       warmth is process state, not job state).  Every simulated field —
       sweeps, residual, cycles, flops, the sim.* and dma.* counters —
       must. *)
    let strip line =
      let host_only k = k = "latency_usec" in
      let pool_only k = k = "kernel.pool_hits" || k = "kernel.pool_misses" in
      match parse line with
      | Json.Obj kvs ->
          Json.to_string
            (Json.Obj
               (List.filter_map
                  (fun (k, v) ->
                    if host_only k then None
                    else
                      match (k, v) with
                      | "counters", Json.Obj cs ->
                          Some
                            ( k,
                              Json.Obj
                                (List.filter (fun (c, _) -> not (pool_only c)) cs)
                            )
                      | _ -> Some (k, v))
                  kvs))
      | _ -> line
    in
    let submit_line i n =
      Printf.sprintf
        {|{"op":"submit","id":"c%d","workload":{"kind":"jacobi","n":%d,"tol":1e-4,"max_iters":50},"fault_seed":%d}|}
        i n seed
    in
    (* --- scenario 1: kill mid-wave, recover, replay ------------------- *)
    let journal = Filename.temp_file "nscvp-chaos" ".journal" in
    Sys.remove journal;
    let jcfg = { Serve.default_config with journal = Some journal } in
    let a = Serve.create ~config:jcfg () in
    for i = 1 to 3 do
      ignore (Serve.handle_line a (submit_line i (3 + (2 * (i mod 3)))))
    done;
    ignore (Serve.drain a);
    (* the second wave is acked (journalled) and then the daemon "dies"
       before dispatching it: server [a] is simply abandoned *)
    let wave2 = List.init 5 (fun k -> submit_line (4 + k) (5 + (2 * (k mod 3)))) in
    List.iter (fun l -> ignore (Serve.handle_line a l)) wave2;
    check "acked-but-unfinished jobs survive the crash"
      (List.length (Journal.load ~path:journal) = 5);
    let b = Serve.create ~config:jcfg () in
    ignore (Serve.recover b);
    let replayed = Serve.drain b in
    let reference = Serve.create ~config:Serve.default_config () in
    List.iter (fun l -> ignore (Serve.handle_line reference l)) wave2;
    let expected = Serve.drain reference in
    check "recovery replays every acked job (lost 0)"
      (List.length replayed = 5);
    check "replay is bit-identical to the uninterrupted run"
      (List.map strip replayed = List.map strip expected);
    check "journal is balanced after the recovery wave"
      (Journal.load ~path:journal = []);
    let bal =
      let s = Option.value ~default:Json.Null (Json.member "summary" (parse (Serve.summary_response b))) in
      let v k = Option.map int_of_float (Option.bind (Json.member k s) Json.to_num) in
      v "submitted" = Some 5 && v "completed" = Some 5 && v "failed" = Some 0
    in
    check "recovery ledger balances (submitted = completed)" bal;
    Sys.remove journal;
    (* --- scenario 2: a stalled job hits its deadline ------------------ *)
    let d = Serve.create ~config:Serve.default_config () in
    ignore
      (Serve.handle_line d
         {|{"op":"submit","id":"stall","workload":{"kind":"jacobi","n":9,"tol":1e-30,"max_iters":100000},"deadline_cycles":5000}|});
    let dl = Serve.drain d in
    let dl0 = match dl with [ l ] -> l | _ -> "" in
    check "stalled job answers a structured deadline error"
      (str dl0 "code" = Some "deadline" && str dl0 "status" = Some "error");
    check "deadline error reports the cycles it spent"
      (match inum dl0 "spent_cycles" with Some c -> c >= 5000 | None -> false);
    let after = Serve.handle_line d (submit_line 100 5) in
    let ok_after =
      after = []
      && match Serve.drain d with
         | [ l ] -> str l "status" = Some "ok"
         | _ -> false
    in
    check "pool domain survives the kill (next job runs clean)" ok_after;
    (* --- scenario 3: fault storm through the retry ladder ------------- *)
    let e =
      Serve.create
        ~config:
          {
            Serve.default_config with
            retries = 2;
            degraded = true;
            backoff_ms = 0.05;
          }
        ()
    in
    ignore
      (Serve.handle_line e
         (Printf.sprintf
            {|{"op":"submit","id":"storm","workload":{"kind":"jacobi","n":5,"tol":1e-30,"max_iters":100000},"deadline_cycles":0,"faults":"transient-link:p=0.05","fault_seed":%d}|}
            seed));
    let st = match Serve.drain e with [ l ] -> l | _ -> "" in
    check "fault storm walks the full ladder"
      (inum st "attempts" = Some 4 && str st "code" = Some "deadline");
    check "ladder's last rung was the degraded attempt"
      (Json.member "degraded" (parse st) = Some (Json.Bool true));
    Printf.printf "chaos: %s (lost 0 acked jobs)\n"
      (if !failures = 0 then "all scenarios held" else "FAILURES");
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the seeded chaos harness against the in-process serve \
             daemon: a burst killed mid-wave and replayed from the \
             write-ahead journal, a stalled job cancelled by its deadline, \
             and a fault storm driven through the retry ladder.  Exits 0 \
             iff no acked job was lost and every scenario held.")
    Term.(const run $ seed_arg)

let scale_cmd =
  let module Parallel = Nsc_apps.Parallel in
  let dim_arg =
    Arg.(value & opt int 6
         & info [ "dim" ] ~docv:"D"
             ~doc:"Hypercube dimension: the machine has 2^D nodes, 0-10 \
                   (default 6, the paper's 64-node machine).")
  in
  let n_arg =
    Arg.(value & opt int 5
         & info [ "n" ] ~docv:"N" ~doc:"Per-node slab side (default 5).")
  in
  let iters_arg =
    Arg.(value & opt int 2
         & info [ "iters" ] ~docv:"K" ~doc:"Jacobi iterations (default 2).")
  in
  let faults_arg =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Also verify sync/async equivalence under this fault model \
                   (e.g. transient-link:p=0.2:retries=2).")
  in
  let seed_arg =
    Arg.(value & opt int 7
         & info [ "seed" ] ~docv:"N"
             ~doc:"Seed of the fault model --faults runs under (default 7).")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Fan per-node simulation across N OCaml domains \
                   (bit-identical results; default 1).")
  in
  let run dim n iters faults seed domains =
    guarded @@ fun () ->
    let p = Knowledge.params Knowledge.default in
    let point overlap =
      match Parallel.run p ~domains ~overlap ~n ~iters ~dim with
      | Ok pt -> pt
      | Error e -> failwith e
    in
    let field ?model overlap =
      let fault = Option.map (Fault.make ~seed) model in
      match
        Parallel.run_field p ~domains ~overlap ~run:(Nsc_sim.Run.make ?fault ()) ~n ~iters ~dim
      with
      | Ok f -> f
      | Error e -> failwith e
    in
    let sync = point false and async = point true in
    (* efficiency relative to a one-node machine on the same slab *)
    let base =
      match Parallel.run p ~domains ~n ~iters ~dim:0 with
      | Ok pt -> pt.Parallel.gflops
      | Error e -> failwith e
    in
    Printf.printf
      "%d nodes, per-node slab %dx%dx%d, %d iteration(s)\n\n" (1 lsl dim) n n n
      iters;
    let show label (pt : Parallel.point) =
      let eff =
        if base <= 0.0 then 0.0
        else pt.Parallel.gflops /. (base *. float_of_int pt.Parallel.nodes)
      in
      Printf.printf
        "%-13s %8.3f GFLOPS  %5.1f%% efficiency  %5.1f%% comm visible  \
         %5.1f%% hidden  %8.0f cycles/iter\n"
        label pt.Parallel.gflops (100.0 *. eff)
        (100.0 *. pt.Parallel.comm_fraction)
        (100.0 *. pt.Parallel.overlap_ratio)
        pt.Parallel.cycles_per_iter
    in
    show "synchronous" sync;
    show "asynchronous" async;
    let failures = ref 0 in
    let check name ok =
      Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
      if not ok then incr failures
    in
    Printf.printf "\n";
    if dim > 0 then
      check "overlapped schedule hides exchange cycles"
        (async.Parallel.overlap_ratio > 0.0);
    check "async residuals bit-identical to sync (clean)"
      (field false = field true);
    (match faults with
    | None -> ()
    | Some str ->
        let spec =
          match Fault.parse str with Ok s -> s | Error e -> failwith e
        in
        check
          (Printf.sprintf "async matches sync under %s" str)
          (field ~model:spec false = field ~model:spec true));
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Run the weak-scaling Jacobi experiment on a 2^D-node hypercube \
             with both the synchronous and the asynchronous overlapped halo \
             exchange, and verify the overlapped schedule hides exchange \
             cycles while staying bit-identical to the synchronous one \
             (optionally also under a seeded fault model).  Exits 0 iff \
             every check holds.")
    Term.(const run $ dim_arg $ n_arg $ iters_arg $ faults_arg $ seed_arg
          $ domains_arg)

let () =
  let doc = "A visual programming environment for the Navier-Stokes Computer." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "nscvp" ~doc)
          [
            info_cmd; check_cmd; codegen_cmd; disasm_cmd; run_cmd; render_cmd; replay_cmd;
            compile_cmd; debug_cmd; stats_cmd; profile_cmd; inject_cmd; serve_cmd;
            chaos_cmd; scale_cmd;
          ]))
