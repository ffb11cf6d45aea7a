(** SHA-256 (FIPS 180-4).

    The AVMM design assumes a hash function that is pre-image,
    second-pre-image and collision resistant (paper §4.1, assumption 2).
    Hash chains, authenticators, Merkle snapshot trees and message
    digests all use this module.

    The module is engineered as an audit-side hot path (DESIGN.md §12,
    §30): whole 64-byte blocks are compressed in C, straight from the
    caller's buffer, by a kernel picked once at start-up (SHA-NI where
    the CPU has it, portable C otherwise). Contexts are resettable and
    reusable, and the one-shot helpers run on a per-domain scratch
    context, so the common case allocates nothing but the 32-byte
    result. Total input volume is recorded under the
    [crypto.digest_bytes] / [crypto.digests] metrics. *)

type ctx
(** Streaming hash state. *)

val init : unit -> ctx
(** Fresh state. *)

val reset : ctx -> unit
(** [reset ctx] returns the context to the freshly-initialized state so
    it can be reused without allocating a new one. *)

val feed : ctx -> string -> unit
(** [feed ctx s] absorbs the bytes of [s]. *)

val feed_sub : ctx -> string -> pos:int -> len:int -> unit
(** [feed_sub ctx s ~pos ~len] absorbs [s.[pos .. pos+len-1]] without
    copying the slice out first.
    @raise Invalid_argument if the range is out of bounds. *)

val feed_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
(** Like {!feed_sub} for a [Bytes.t] source. The bytes are read before
    the call returns, so the caller may mutate the buffer afterwards. *)

val feed_buffer : ctx -> Buffer.t -> unit
(** [feed_buffer ctx b] absorbs the current contents of [b] (e.g. a
    wire writer's accumulator) without materializing them as a
    string. *)

val finalize : ctx -> string
(** [finalize ctx] is the 32-byte digest. The context must be {!reset}
    before any further use. *)

val digest : string -> string
(** [digest s] is the 32-byte SHA-256 of [s]. *)

val digest_list : string list -> string
(** [digest_list parts] hashes the concatenation of [parts] without
    building it. *)

val digest_buffer : Buffer.t -> string
(** [digest_buffer b] hashes the current contents of [b] without
    materializing them as a string. *)

val hex : string -> string
(** [hex s] is the digest of [s] in lowercase hex (convenience for
    tests and display). *)

val digest_length : int
(** 32. *)

(** {1 Kernels}

    Every context compresses with {!kernel} unless a test pins it to
    the other one with {!init_kernel}, to check both against
    {!Crypto_backend.Reference}. *)

type kernel = Portable | Sha_ni

val kernel : kernel
(** The kernel picked at start-up: [Sha_ni] when the CPU has the SHA
    extensions, else [Portable]. *)

val kernel_name : kernel -> string
(** ["portable"] or ["sha-ni"]. *)

val available : kernel -> bool
(** Whether this host can run the kernel. *)

val init_kernel : kernel -> ctx
(** A fresh context that compresses with the given kernel.
    @raise Invalid_argument if the kernel is not {!available}. *)
