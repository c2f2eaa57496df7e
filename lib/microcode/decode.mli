(** The disassembler: microinstruction words back to semantic structures.

    Decoding is the inverse of {!Encode.encode} up to
    {!Encode.normalize}; the round trip is enforced by property tests and
    gives confidence that the generated machine code means what the diagram
    said. *)

(** Disassemble a word back to (normalised) semantic structures through
    the layout's section tables.  Fails on a bad magic number, or on an
    undefined opcode, bypass, switch source or shift/delay mode code (the
    last such field in layout order is the one reported). *)
val decode :
  Fields.t ->
  Word.t -> (Nsc_diagram.Semantic.t, string) result
