(** Microcode generation: semantic data structures to machine words.

    "Once a complete program (or consistent program fragment) has been
    defined, the microcode generator uses the semantic data structures
    created by the graphical editor to generate machine code for the NSC."
    Switch settings are derived by interrogating the connection tables, DMA
    programmes from the popup-subwindow data, unit control from the
    per-unit configurations. *)

open Nsc_arch
open Nsc_diagram

let magic = 0xA5

type instruction = { index : int; word : Word.t }

(** Encode one semantic pipeline into a microinstruction.  The input is
    assumed to have passed [Checker.check_pipeline ~level:`Complete]; the
    residual failure modes (representational limits) are reported as
    [Error]. *)
let encode (layout : Fields.t) (sem : Semantic.t) : (instruction, string) result =
  let p = layout.Fields.params in
  let word = Fields.fresh_word layout in
  let set = Fields.write word and get = Fields.read word in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let hdr = layout.Fields.header in
  set hdr.Fields.magic magic;
  (if sem.Semantic.index < 0 || sem.Semantic.index >= 1 lsl 16 then
     err "instruction number %d does not fit the header" sem.Semantic.index
   else set hdr.Fields.index sem.Semantic.index);
  (if sem.Semantic.vector_length < 0 || sem.Semantic.vector_length >= 1 lsl 24 then
     err "vector length %d does not fit the header" sem.Semantic.vector_length
   else set hdr.Fields.vlen sem.Semantic.vector_length);
  (* ALS bypasses *)
  List.iter
    (fun (als, bypass) -> set layout.Fields.bypass.(als) (Fields.bypass_code bypass))
    sem.Semantic.bypasses;
  (* per-unit control *)
  List.iter
    (fun (u : Semantic.unit_program) ->
      let f = layout.Fields.units.(Resource.fu_global_index p u.Semantic.fu) in
      set f.Fields.op (Opcode.to_code u.Semantic.op);
      let encode_binding ~src ~fb ~port_code = function
        | Fu_config.Unbound -> set src Fields.src_unbound
        | Fu_config.From_switch -> set src Fields.src_switch
        | Fu_config.From_chain -> set src Fields.src_chain
        | Fu_config.From_constant c ->
            set src Fields.src_const;
            if get f.Fields.const_port <> Fields.const_none then
              err
                "unit %s binds constants on both operands; the register file exposes \
                 one inline constant per instruction"
                (Resource.fu_to_string u.Semantic.fu)
            else begin
              set f.Fields.const_port port_code;
              Fields.write_float word f.Fields.const_val c
            end
        | Fu_config.From_feedback n ->
            set src Fields.src_feedback;
            if n > p.rf_max_delay then
              err "feedback depth %d on %s exceeds the encodable maximum %d" n
                (Resource.fu_to_string u.Semantic.fu)
                p.rf_max_delay
            else set fb n
      in
      encode_binding ~src:f.Fields.src_a ~fb:f.Fields.fb_a ~port_code:Fields.const_a
        u.Semantic.a;
      encode_binding ~src:f.Fields.src_b ~fb:f.Fields.fb_b ~port_code:Fields.const_b
        u.Semantic.b;
      if u.Semantic.delay_a > p.rf_max_delay || u.Semantic.delay_b > p.rf_max_delay then
        err "alignment delay on %s exceeds the encodable maximum %d"
          (Resource.fu_to_string u.Semantic.fu)
          p.rf_max_delay
      else begin
        set f.Fields.delay_a u.Semantic.delay_a;
        set f.Fields.delay_b u.Semantic.delay_b
      end)
    sem.Semantic.units;
  (* switch section *)
  List.iter
    (fun (r : Switch.route) ->
      set (Fields.sink_field layout r.Switch.snk) (Resource.source_code p r.Switch.src))
    sem.Semantic.routes;
  (* DMA section *)
  List.iter
    (fun (s : Semantic.stream) ->
      let t = s.Semantic.transfer in
      let slot =
        match s.Semantic.engine with
        | `Read (Resource.Src_memory (_, e)) | `Read (Resource.Src_cache (_, e)) -> Some e
        | `Write (Resource.Snk_memory (_, e)) | `Write (Resource.Snk_cache (_, e)) ->
            Some e
        | `Read _ | `Write _ -> None
      in
      match slot with
      | None ->
          err "stream on %s is not bound to a DMA engine"
            (Dma.channel_to_string t.Dma.channel)
      | Some slot ->
          let engines, tag =
            match t.Dma.channel with
            | Dma.Plane pl -> (layout.Fields.plane_dma.(pl), "plane" ^ string_of_int pl)
            | Dma.Cache_chan c -> (layout.Fields.cache_dma.(c), "cache" ^ string_of_int c)
          in
          if slot >= Array.length engines then
            err "channel %s needs engine %d but has only %d"
              (Dma.channel_to_string t.Dma.channel)
              slot (Array.length engines)
          else begin
            let e = engines.(slot) in
            if get e.Fields.active = 1 then
              err "two transfers programme DMA engine %s.e%d in one instruction" tag slot
            else begin
              set e.Fields.active 1;
              set e.Fields.dir (match t.Dma.direction with Dma.Read -> 0 | Dma.Write -> 1);
              try
                set e.Fields.base t.Dma.base;
                Fields.write_signed word e.Fields.stride t.Dma.stride;
                set e.Fields.count
                  (if t.Dma.count = 0 then sem.Semantic.vector_length else t.Dma.count)
              with Invalid_argument m -> err "DMA engine %s.e%d: %s" tag slot m
            end
          end)
    sem.Semantic.streams;
  (* shift/delay section *)
  List.iter
    (fun (s : Semantic.sd_program) ->
      let f = layout.Fields.sds.(s.Semantic.sd) in
      match s.Semantic.mode with
      | Shift_delay.Delay d ->
          set f.Fields.mode Fields.sd_delay;
          Fields.write_signed word f.Fields.amount d
      | Shift_delay.Shift o ->
          set f.Fields.mode Fields.sd_shift;
          Fields.write_signed word f.Fields.amount o)
    sem.Semantic.sds;
  match List.rev !errors with
  | [] -> Ok { index = sem.Semantic.index; word }
  | e :: _ -> Error e

(** Canonical form of a semantic pipeline for encode/decode round-trip
    comparison: lists sorted, display-only fields cleared, implicit counts
    resolved, bypass entries restricted to ALSs that matter to the machine
    (those engaging a unit or configuring a bypass). *)
let normalize (sem : Semantic.t) : Semantic.t =
  let engaged als =
    List.exists (fun (u : Semantic.unit_program) -> u.Semantic.fu.Resource.als = als)
      sem.Semantic.units
  in
  {
    sem with
    Semantic.label = "";
    bypasses =
      List.filter
        (fun (als, bypass) -> engaged als || not (Als.equal_bypass bypass Als.No_bypass))
        sem.Semantic.bypasses
      |> List.sort_uniq compare;
    units =
      List.sort
        (fun (a : Semantic.unit_program) b -> compare a.Semantic.fu b.Semantic.fu)
        sem.Semantic.units;
    sds = List.sort compare sem.Semantic.sds;
    routes =
      List.sort compare sem.Semantic.routes;
    streams =
      List.map
        (fun (s : Semantic.stream) ->
          let t = s.Semantic.transfer in
          {
            s with
            Semantic.transfer =
              {
                t with
                Dma.count =
                  (if t.Dma.count = 0 then sem.Semantic.vector_length else t.Dma.count);
              };
          })
        sem.Semantic.streams
      |> List.sort compare;
  }
