(** Tamper-evident log entries (paper §4.3).

    Each entry is [e_i = (s_i, t_i, c_i, h_i)] with
    [h_i = H(h_{i-1} || s_i || t_i || H(c_i))] and [h_0 = 0]. The log
    holds two parallel streams: the message stream (SEND/RECV/ACK,
    which authenticators commit to) and the execution stream
    (nondeterministic events and snapshot digests, which replay
    consumes). *)

(** Entry content [c_i]; the constructor is the type [t_i]. *)
type content =
  | Send of { dest : string; nonce : int; payload : string }
      (** Message we sent. The attached authenticator commits us to it. *)
  | Recv of { src : string; nonce : int; payload : string; signature : string }
      (** Message received, with the sender's signature so an auditor
          can verify we did not forge it (the AVMM strips the signature
          before the payload enters the AVM). *)
  | Ack of { src : string; acked_seq : int; signature : string }
      (** Acknowledgment received for our entry [acked_seq]. *)
  | Exec of Avm_machine.Event.t
      (** One nondeterministic event of the AVM's execution. *)
  | Snapshot_ref of { digest : string; snapshot_seq : int; at_icount : int }
      (** Digest of an incremental snapshot (Merkle root + meta). *)
  | Note of string
      (** Operator annotation (e.g. "game start"); replay-neutral. *)

type t = private {
  seq : int;
  content : content;
  hash : string;
  derived_from : string;
}
(** A sealed entry. [seq] starts at 1.

    [derived_from] is the decoder mark: the [h_{i-1}] that [hash] was
    computed from. Only {!seal} and {!read_body} set it, and both set
    it to the [prev] they just hashed. Every other entry — one built
    by {!forge} — has [derived_from = ""]. The type is private, so the mark cannot be
    carried along by a record update that changes [seq], [content] or
    [hash]. See {!chain_ok} for the trust rule. *)

val type_tag : content -> int
(** The [t_i] byte. *)

val content_bytes : content -> string
(** Canonical serialization of [c_i] (what gets hashed). *)

val content_digest : content -> string
(** [H(c_i)]: SHA-256 of {!content_bytes}, streamed from a per-domain
    scratch writer without materializing the serialization. *)

val content_of_bytes : tag:int -> string -> content
(** Inverse of {!content_bytes}.
    @raise Avm_util.Wire.Malformed on garbage. *)

val chain_hash : prev:string -> seq:int -> content -> string
(** [h_i] as defined above. *)

val derived : prev:string -> t -> bool
(** [derived ~prev e] holds when [e]'s mark is non-empty and equals
    [prev]: its hash was computed from [prev] by {!seal} or
    {!read_body}, so the link from [prev] holds without hashing. *)

val chain_ok : prev:string -> t -> bool
(** [chain_ok ~prev e] checks that [e.hash = chain_hash ~prev ~seq:e.seq
    e.content] — the audit engine's innermost check. When
    [derived ~prev e] holds it answers [true] without hashing; any
    other entry is rehashed. The answer is the same either way: the
    mark is set only where the hash was derived from the same [prev],
    [seq] and content, and decoding is canonical
    ({!Avm_util.Wire.read_varint} rejects non-minimal encodings), so
    [read_body]'s content bytes are exactly {!content_bytes}. *)

val chain_hash_raw : prev:string -> seq:int -> tag:int -> content_digest:string -> string
(** Same, for verifiers that only hold [t_i] and [H(c_i)] — this is
    what lets a message recipient check an authenticator without the
    rest of the log. *)

val seal : prev:string -> seq:int -> content -> t
(** Build the sealed entry, marked as derived from [prev]. *)

val forge : ?seq:int -> ?content:content -> ?hash:string -> t -> t
(** [forge ?seq ?content ?hash e] is [e] with the given fields replaced
    and the mark cleared, so every chain check rehashes it. This is how
    the test adversary ([Log.tamper_replace], tests) plants an entry
    whose stored hash need not match its content. *)

val write_body : Avm_util.Wire.writer -> t -> unit
(** Serialization {e without} the chain hash: [(s_i, t_i, c_i)]. This
    is what a stored or transmitted log contains — hashes are
    recomputable from content, and the commitments that matter are the
    signed authenticators, so shipping hashes would only bloat the log
    with incompressible bytes. *)

val read_body : prev:string -> Avm_util.Wire.reader -> t
(** Inverse of {!write_body}; recomputes [h_i] from [prev] and marks
    the entry as derived from [prev]. Integrity of a decoded segment
    therefore rests on checking it against authenticators, exactly as
    in PeerReview. *)

val wire_size : t -> int
(** {!write_body} size in bytes — the unit of all log-growth figures. *)

val pp : Format.formatter -> t -> unit

val describe : content -> string
(** One-word category: "SEND", "RECV", "ACK", "EXEC", "SNAP", "NOTE". *)
