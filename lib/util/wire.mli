(** Binary wire format used by log entries, packets and snapshots.

    All multi-byte integers are little-endian. Variable-length integers
    use LEB128. The format is self-contained and has no external
    dependencies so that hashes computed over serialized values are
    stable across runs. *)

(** {1 Writer} *)

type writer
(** Mutable output buffer. *)

val writer : unit -> writer
(** [writer ()] is a fresh empty writer. *)

val contents : writer -> string
(** [contents w] is everything written to [w] so far. *)

val length : writer -> int
(** [length w] is the number of bytes written so far. *)

val buffer : writer -> Buffer.t
(** [buffer w] is the writer's accumulator, exposed so hashing can
    stream straight from it (e.g. {!Avm_crypto.Sha256.digest_buffer})
    without materializing {!contents}. Treat it as read-only. *)

val reset : writer -> unit
(** [reset w] empties the writer for reuse. *)

val u8 : writer -> int -> unit
(** [u8 w v] writes the low 8 bits of [v]. *)

val u16 : writer -> int -> unit
(** [u16 w v] writes the low 16 bits of [v], little-endian. *)

val u32 : writer -> int -> unit
(** [u32 w v] writes the low 32 bits of [v], little-endian. *)

val u64 : writer -> int64 -> unit
(** [u64 w v] writes all 64 bits of [v], little-endian. *)

val varint : writer -> int -> unit
(** [varint w v] writes non-negative [v] as LEB128.
    @raise Invalid_argument if [v < 0]. *)

val bool : writer -> bool -> unit
(** [bool w b] writes one byte, [0] or [1]. *)

val bytes : writer -> string -> unit
(** [bytes w s] writes a varint length prefix followed by the raw bytes
    of [s]. *)

val raw : writer -> string -> unit
(** [raw w s] writes the bytes of [s] with no length prefix. *)

val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
(** [list w f xs] writes a varint count followed by each element. *)

val option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
(** [option w f x] writes a presence byte, then the payload if any. *)

(** {1 Reader} *)

type reader
(** Cursor over an input string. *)

exception Truncated
(** Raised when a read runs past the end of the input. *)

exception Malformed of string
(** Raised when the input violates the format (e.g. oversized varint). *)

val reader : string -> reader
(** [reader s] is a cursor positioned at the start of [s]. *)

val pos : reader -> int
(** [pos r] is the current cursor offset. *)

val remaining : reader -> int
(** [remaining r] is the number of unread bytes. *)

val at_end : reader -> bool
(** [at_end r] is [true] iff all input has been consumed. *)

val read_u8 : reader -> int
val read_u16 : reader -> int
val read_u32 : reader -> int
val read_u64 : reader -> int64
val read_varint : reader -> int
(** Inverse of {!varint}.
    @raise Malformed on a non-minimal encoding, a value above [max_int],
    or more than 9 bytes. *)

val read_bool : reader -> bool
val read_bytes : reader -> string
val read_raw : reader -> int -> string
val read_list : reader -> (reader -> 'a) -> 'a list
val read_option : reader -> (reader -> 'a) -> 'a option

val expect_end : reader -> unit
(** [expect_end r] raises {!Malformed} unless all input was consumed. *)
