(** RSA signatures over {!Bignum}.

    The paper's prototype uses 768-bit RSA keys (§6.2): the signatures
    only need to outlive the game by days, not years. Signing uses a
    PKCS#1 v1.5-style padding of the SHA-256 digest and the CRT
    optimization (exponentiation modulo p and q separately). Key
    generation is deterministic in the supplied {!Avm_util.Rng.t},
    which keeps every experiment reproducible; this is a simulation
    trade-off, not a security recommendation. *)

type public_key = { n : Bignum.t; e : Bignum.t }
(** Modulus and public exponent. *)

type private_key = {
  n : Bignum.t;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;  (** d mod (p-1) *)
  dq : Bignum.t;  (** d mod (q-1) *)
  qinv : Bignum.t;  (** q^-1 mod p *)
}
(** Private key with CRT components. *)

type keypair = { public : public_key; private_ : private_key; bits : int }

val generate : Avm_util.Rng.t -> bits:int -> keypair
(** [generate rng ~bits] makes a fresh keypair with a [bits]-bit
    modulus ([e] = 65537).
    @raise Invalid_argument if [bits < 32]. *)

val signature_length : public_key -> int
(** Byte length of signatures under this key (= modulus length). *)

val sign : private_key -> string -> string
(** [sign key msg] is the signature of SHA-256([msg]), as
    [signature_length] bytes. *)

val verify : public_key -> msg:string -> signature:string -> bool
(** [verify key ~msg ~signature] checks a signature produced by
    {!sign}, through the selected {!Crypto_backend}. Malformed input
    verifies as [false], never raises. *)

val public_to_string : public_key -> string
(** Wire encoding of a public key (for certificates and tests). *)

val public_of_string : string -> public_key
(** Inverse of {!public_to_string}.
    @raise Avm_util.Wire.Malformed on garbage. *)
