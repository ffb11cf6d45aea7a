(** Lossless log/snapshot compressor: LZSS + canonical Huffman.

    Stands in for the "bzip2 + VMM-specific lossless compression" the
    paper applies to AVMM logs (§6.4); the measured "after compression"
    series in Figures 3, 4 and 9 run through this codec.

    Format: ["AVMZ1"] magic, varint original length, 4-bit Huffman code
    lengths for the 512-symbol literal/length alphabet, then the
    Huffman bitstream (each match symbol followed by 12 raw distance
    bits). *)

exception Corrupt of string
(** Raised by {!decompress} on malformed input. *)

val compress : string -> string
(** [compress s] never fails; incompressible data grows by the small
    header plus the literal-coding overhead. *)

val decompress : ?max_len:int -> string -> string
(** Inverse of {!compress}. The claimed original length is checked
    against what the payload can encode, and against [max_len] when
    given, before anything is allocated, so a short input never
    reserves a large buffer.
    @raise Corrupt on data not produced by {!compress}, or claiming
    more than [max_len] bytes. *)

val ratio : string -> float
(** [ratio s] is [length s / length (compress s)] — e.g. [3.2] means
    3.2x smaller. Returns 1.0 for the empty string. *)
