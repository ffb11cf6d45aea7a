(** Pluggable crypto primitives (DESIGN.md §17).

    An audit verdict depends on exactly two primitives — a hash and a
    modular exponentiation — and this seam pins them down as a module
    type so optimized implementations can be swapped in against a
    standing oracle. {!Default} is the production instance: the C
    kernels of DESIGN.md §30, {!Sha256}'s block compressor (SHA-NI or
    portable, picked at start-up) and {!Bignum.Mont}'s 64-bit-limb
    exponentiation behind a per-domain context cache. {!Reference} is
    a deliberately naive from-spec instance in OCaml (textbook FIPS
    180-4 over a padded copy, {!Bignum.mod_pow_classic}). The
    [backend-crosscheck] tool and the QCheck properties in
    [test_crypto] require byte-identical audit reports under both.

    {!Rsa.verify} (and so {!Rsa.verify_batch}) routes through the
    selected backend: one primitive call per signature. *)

module type S = sig
  val name : string

  val digest : string -> string
  (** 32-byte SHA-256. *)

  val rsa_pow : m:Bignum.t -> base:Bignum.t -> exp:Bignum.t -> Bignum.t
  (** [base^exp mod m] — the raw RSA verification power. *)
end

module Default : S
module Reference : S

val default : (module S)
val reference : (module S)

val current : unit -> (module S)
(** The selected backend (process-global, atomic). *)

val set : (module S) -> unit
(** Select a backend for the whole process. *)

val name : unit -> string
(** [name ()] is the selected backend's name. *)

val with_backend : (module S) -> (unit -> 'a) -> 'a
(** [with_backend b f] runs [f] with [b] selected, restoring the
    previous selection afterwards (even on exceptions). Intended for
    tests; the selection is process-global, so don't race it against
    concurrent verification. *)

(** {1 Shared precomputation}

    The per-domain Montgomery context cache, keyed by the physical
    identity of the modulus. Used by the {!Default} backend and by CRT
    signing. *)

val mont_of : Bignum.t -> Bignum.Mont.ctx option
(** Cached [Bignum.Mont.make] ([None] for even, single-limb or over-cap
    moduli). *)

val pow_mod : m:Bignum.t -> Bignum.t -> Bignum.t -> Bignum.t
(** [pow_mod ~m b e] is [b^e mod m] through the cached context. *)
