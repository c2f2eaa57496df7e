(** The disassembler: microinstruction words back to semantic structures.

    Decoding is the inverse of {!Encode.encode} up to
    {!Encode.normalize}; the round trip is enforced by property tests and
    gives confidence that the generated machine code means what the diagram
    said.  Every field is read through the layout's section tables, so a
    decode formats no names and hashes no strings. *)

open Nsc_arch
open Nsc_diagram

(* [f i a.(i)] for every [i] in order, keeping the [Some] results *)
let filter_mapi f a =
  let acc = ref [] in
  for i = 0 to Array.length a - 1 do
    match f i a.(i) with Some y -> acc := y :: !acc | None -> ()
  done;
  List.rev !acc

let decode_binding word (u : Fields.unit_fields) ~src ~fb : Fu_config.input_binding =
  let code = Fields.read word src in
  if code = Fields.src_unbound then Fu_config.Unbound
  else if code = Fields.src_switch then Fu_config.From_switch
  else if code = Fields.src_chain then Fu_config.From_chain
  else if code = Fields.src_const then
    Fu_config.From_constant (Fields.read_float word u.Fields.const_val)
  else if code = Fields.src_feedback then Fu_config.From_feedback (Fields.read word fb)
  else Fu_config.Unbound

(** Decode a microinstruction.  Fails with [Error] on a bad magic number,
    or on an opcode, bypass, source or shift/delay mode code the machine
    does not define (the last such field in layout order is reported). *)
let decode (layout : Fields.t) (word : Word.t) : (Semantic.t, string) result =
  let p = layout.Fields.params in
  let get = Fields.read word in
  let hdr = layout.Fields.header in
  if get hdr.Fields.magic <> Encode.magic then
    Error "bad magic number: not an NSC microinstruction"
  else begin
    let error = ref None in
    let fail msg =
      error := Some msg;
      None
    in
    (* units *)
    let units =
      filter_mapi
        (fun g (u : Fields.unit_fields) ->
          match get u.Fields.op with
          | 0 -> None
          | code -> (
              match Opcode.of_code code with
              | None -> fail (Printf.sprintf "unit %d: undefined opcode %d" g code)
              | Some op ->
                  Some
                    {
                      Semantic.fu = u.Fields.fu;
                      op;
                      a = decode_binding word u ~src:u.Fields.src_a ~fb:u.Fields.fb_a;
                      b = decode_binding word u ~src:u.Fields.src_b ~fb:u.Fields.fb_b;
                      delay_a = get u.Fields.delay_a;
                      delay_b = get u.Fields.delay_b;
                    }))
        layout.Fields.units
    in
    (* bypasses: engaged ALSs plus any ALS with an explicit bypass *)
    let engaged = Array.make (Array.length layout.Fields.bypass) false in
    List.iter
      (fun (u : Semantic.unit_program) -> engaged.(u.Semantic.fu.Resource.als) <- true)
      units;
    let bypasses =
      filter_mapi
        (fun als f ->
          let code = get f in
          match Fields.bypass_of_code code with
          | None -> fail (Printf.sprintf "ALS%d: undefined bypass code %d" als code)
          | Some bypass ->
              if engaged.(als) || not (Als.equal_bypass bypass Als.No_bypass) then
                Some (als, bypass)
              else None)
        layout.Fields.bypass
    in
    (* switch section *)
    let routes =
      filter_mapi
        (fun _ (snk, f) ->
          let code = get f in
          if code = 0 then None
          else
            match Resource.source_of_code p code with
            | Some src -> Some { Switch.src; snk }
            | None ->
                fail
                  (Printf.sprintf "sink %s: undefined source code %d"
                     (Resource.sink_to_string snk) code))
        layout.Fields.sinks
    in
    (* DMA section: every active engine *)
    let streams = ref [] in
    let stream (e : Fields.dma_fields) =
      if get e.Fields.active <> 0 then begin
        let direction = if get e.Fields.dir = 0 then Dma.Read else Dma.Write in
        let transfer =
          {
            Dma.channel = e.Fields.channel;
            direction;
            base = get e.Fields.base;
            stride = Fields.read_signed word e.Fields.stride;
            count = get e.Fields.count;
          }
        in
        let slot = e.Fields.slot in
        let engine =
          match (direction, e.Fields.channel) with
          | Dma.Read, Dma.Plane pl -> `Read (Resource.Src_memory (pl, slot))
          | Dma.Read, Dma.Cache_chan c -> `Read (Resource.Src_cache (c, slot))
          | Dma.Write, Dma.Plane pl -> `Write (Resource.Snk_memory (pl, slot))
          | Dma.Write, Dma.Cache_chan c -> `Write (Resource.Snk_cache (c, slot))
        in
        streams := { Semantic.transfer; engine } :: !streams
      end
    in
    Array.iter (Array.iter stream) layout.Fields.plane_dma;
    Array.iter (Array.iter stream) layout.Fields.cache_dma;
    (* shift/delay section *)
    let sds =
      filter_mapi
        (fun s (sd : Fields.sd_fields) ->
          let mode = get sd.Fields.mode in
          if mode = Fields.sd_off then None
          else
            let amount = Fields.read_signed word sd.Fields.amount in
            if mode = Fields.sd_delay then
              Some { Semantic.sd = s; mode = Shift_delay.Delay amount }
            else if mode = Fields.sd_shift then
              Some { Semantic.sd = s; mode = Shift_delay.Shift amount }
            else fail (Printf.sprintf "sd%d: undefined mode %d" s mode))
        layout.Fields.sds
    in
    match !error with
    | Some e -> Error e
    | None ->
        Ok
          (Encode.normalize
             {
               Semantic.index = get hdr.Fields.index;
               label = "";
               vector_length = get hdr.Fields.vlen;
               bypasses;
               units;
               sds;
               routes;
               streams = List.rev !streams;
             })
  end
