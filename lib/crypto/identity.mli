(** Certified identities (paper §4.1, assumption 3).

    Each party owns a keypair certified by a {!ca}; faulty machines
    cannot mint fresh identities. The CA here is the experiment's
    administrator key, standing in for whatever PKI deployment the
    paper assumes. *)

type ca
(** A certificate authority (the game administrator / platform owner). *)

type t
(** A certified identity: a name, a keypair, and the CA's certificate
    over (name, public key). *)

type certificate
(** The transferable part of an identity: name, public key, CA
    signature. *)

val create_ca : Avm_util.Rng.t -> ?bits:int -> string -> ca
(** [create_ca rng name] makes a CA (default 768-bit key). *)

val ca_public : ca -> Rsa.public_key

val issue : ca -> Avm_util.Rng.t -> ?bits:int -> string -> t
(** [issue ca rng name] creates an identity named [name] with a fresh
    keypair (default 768-bit) and a certificate from [ca]. *)

val issue_like : ca -> t -> string -> t
(** [issue_like ca donor name] certifies [name] over the {e donor's}
    keypair — no key generation, just one CA signature. Fleet-scale
    harnesses use a small pool of real keypairs shared across
    thousands of simulated identities: signatures stay real and
    per-identity certificates stay distinct, only the RSA keygen cost
    is amortized. Never share keys between mutually auditing parties
    in an adversarial experiment. *)

val name : t -> string
val public_key : t -> Rsa.public_key
val certificate : t -> certificate

val sign : t -> string -> string
(** [sign id msg] signs with the identity's private key. *)

val cert_name : certificate -> string
val cert_public_key : certificate -> Rsa.public_key

val check_certificate : Rsa.public_key -> certificate -> bool
(** [check_certificate ca_key cert] verifies the CA's signature over
    (name, public key). *)

val verify : certificate -> msg:string -> signature:string -> bool
(** [verify cert ~msg ~signature] checks a signature against the
    certified public key (the certificate itself should be checked
    once with {!check_certificate}). *)

val cert_to_string : certificate -> string
(** Wire encoding (name, public key, CA signature). *)

val cert_of_string : string -> certificate
(** Inverse of {!cert_to_string}.
    @raise Avm_util.Wire.Malformed on garbage. *)
