(** Authenticators: signed log commitments (paper §4.3).

    For entry [e_i], the authenticator is
    [a_i = (s_i, h_i, sigma(s_i || h_i))], extended with [h_{i-1}] and
    [H(c_i)] so a message recipient can recompute
    [h_i = H(h_{i-1} || s_i || SEND || H(m))] and confirm the entry is
    really [SEND(m)] — this is what makes the log non-repudiable and
    fork-evident. *)

type t = {
  node : string;  (** name of the machine that issued it *)
  seq : int;  (** [s_i] *)
  hash : string;  (** [h_i] *)
  prev_hash : string;  (** [h_{i-1}] *)
  tag : int;  (** [t_i] *)
  content_digest : string;  (** [H(c_i)] *)
  signature : string;  (** [sigma(node || s_i || h_i)] *)
}

val make : Avm_crypto.Identity.t -> entry:Entry.t -> prev_hash:string -> t
(** Issue an authenticator for a freshly appended entry. *)

val signed_payload : node:string -> seq:int -> hash:string -> string
(** The exact bytes covered by the signature. *)

val verify : Avm_crypto.Identity.certificate -> t -> bool
(** Checks the signature and that [hash] is consistent with
    [(prev_hash, seq, tag, content_digest)]. *)

val verify_batch : (Avm_crypto.Identity.certificate * t) array -> bool array
(** Elementwise {!verify} with the signature checks routed through
    {!Avm_crypto.Rsa.verify_batch}, which checks each one on its
    own. *)

val matches_content : t -> Entry.content -> bool
(** [matches_content a c]: does [a] commit to an entry with exactly
    content [c]? (Checks type tag, content digest and hash-chain
    consistency.) *)

val matches_send : t -> payload:string -> dest:string -> nonce:int -> bool
(** [matches_send a ~payload ~dest ~nonce]: is [a] an authenticator
    for exactly [SEND {dest; nonce; payload}]? The recipient calls
    this on every message it accepts. *)

val matches_entry : t -> Entry.t -> bool
(** Does [a] commit to exactly this entry (same seq, same hash)? The
    auditor calls this for each collected authenticator against the
    downloaded log segment; any mismatch is evidence of tampering or a
    forked log. *)

val conflicts : t -> t -> bool
(** [conflicts a b]: same node, same [seq], different [hash] — the
    shape of an equivocation. Two such authenticators that {e both}
    pass {!verify} under the node's certificate are a transferable
    proof that the node maintains forked logs (PeerReview's
    fork-evidence; see {!Avm_core.Evidence}). This predicate alone
    proves nothing — callers must verify both signatures first. *)

val write : Avm_util.Wire.writer -> t -> unit
val read : Avm_util.Wire.reader -> t
val encode : t -> string
val decode : string -> t
val wire_size : t -> int
val pp : Format.formatter -> t -> unit
