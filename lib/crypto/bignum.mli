(** Arbitrary-precision natural numbers.

    Little-endian arrays of 26-bit limbs; all products of two limbs fit
    comfortably in OCaml's 63-bit native ints. This is the arithmetic
    substrate for {!Rsa}; no external bignum library is available in
    this environment (see DESIGN.md §6).

    Values are non-negative. [sub a b] requires [a >= b]. *)

type t
(** A natural number. Structurally comparable with {!compare}. *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
(** @raise Failure if the value exceeds [max_int]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val add_int : t -> int -> t

val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val sub_int : t -> int -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b]
    (Knuth Algorithm D).
    @raise Division_by_zero if [b] is zero. *)

val rem : t -> t -> t
val rem_int : t -> int -> int

val shift_left : t -> int -> t
(** [shift_left a bits] multiplies by [2^bits]. *)

val shift_right : t -> int -> t
(** [shift_right a bits] divides by [2^bits], truncating. *)

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val testbit : t -> int -> bool
(** [testbit a i] is bit [i] (little-endian). *)

val is_even : t -> bool

val mod_pow : t -> t -> t -> t
(** [mod_pow base exp m] is [base^exp mod m]. Odd moduli {!Mont.make}
    accepts go through {!Mont.pow}; everything else falls back to
    {!mod_pow_classic}.
    @raise Division_by_zero if [m] is zero. *)

val mod_pow_classic : t -> t -> t -> t
(** Reference square-and-multiply with a full division after every
    step. Kept as the oracle the Montgomery path is tested against.
    @raise Division_by_zero if [m] is zero. *)

(** Montgomery-form modular exponentiation. A context precomputes
    [-m^-1 mod 2^26] and [R^2 mod m] for one odd modulus; callers that
    verify or sign repeatedly under the same key cache the context
    (see {!Crypto_backend.mont_of}) so each exponentiation pays no
    division at all. Every product runs through one single-pass
    product-scanning multiply/square kernel. *)
module Mont : sig
  type ctx
  (** Precomputed state for one odd modulus of 2 to 500 limbs. *)

  val make : t -> ctx option
  (** [make m] is [None] when [m] is even, fits in a single limb, or is
      wider than 500 limbs (13,000 bits), where the kernel's one-word
      column sums could overflow (callers should use
      {!mod_pow_classic} there). *)

  val modulus : ctx -> t
  (** The modulus the context was built for. *)

  type scratch
  (** Reusable working storage for a run of exponentiations under one
      context: the reduction quotients and the operands, allocated once
      per batch instead of once per call. *)

  val scratch : ctx -> scratch

  val pow : ?scratch:scratch -> ctx -> t -> t -> t
  (** [pow ctx base exp] is [base^exp mod (modulus ctx)], by sliding
      windows (square-and-multiply up to 64-bit exponents, so
      e = 65537 costs sixteen squarings and one multiply). With
      [~scratch] the intermediates live in that storage, which must
      come from [scratch ctx] and must not be shared between domains;
      otherwise a fresh one is allocated. *)
end

val mod_inv : t -> t -> t option
(** [mod_inv a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1], else [None]. *)

val gcd : t -> t -> t

val of_bytes_be : string -> t
(** Big-endian byte decoding (leading zero bytes allowed). *)

val to_bytes_be : ?len:int -> t -> string
(** Big-endian byte encoding, zero-padded on the left to [len] when
    given.
    @raise Invalid_argument if the value does not fit in [len] bytes. *)

val blit_bytes_be : t -> Bytes.t -> int -> unit
(** [blit_bytes_be a b len] writes the [len]-byte big-endian encoding
    of [a] into [b.[0 .. len-1]], zero-padding on the left — the
    allocation-free form of {!to_bytes_be} for callers that reuse one
    output buffer across many encodings ({!Rsa.verify_batch}).
    @raise Invalid_argument if [a] does not fit in [len] bytes. *)

val to_hex : t -> string
val of_hex : string -> t

val random_bits : Avm_util.Rng.t -> int -> t
(** [random_bits rng n] is uniform in [\[0, 2^n)]. *)

val random_below : Avm_util.Rng.t -> t -> t
(** [random_below rng n] is uniform in [\[0, n)] by rejection.
    @raise Invalid_argument if [n] is zero. *)

val is_probable_prime : Avm_util.Rng.t -> ?rounds:int -> t -> bool
(** Trial division by small primes followed by Miller–Rabin with
    [rounds] (default 20) random bases. *)

val random_prime : Avm_util.Rng.t -> bits:int -> t
(** [random_prime rng ~bits] is a probable prime with exactly [bits]
    bits (top bit set).
    @raise Invalid_argument if [bits < 2]. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering. *)
