(** Transferable evidence of a fault (paper §3.1, §4.5): a log segment
    plus the authenticator that commits the accused to it.

    Entries carry no signature: anyone holding a node's log can rewrite
    and rechain it. A segment is tied to the accused by its {e covering}
    authenticator, one the accused signed for the segment's last entry,
    whose hash the segment rechains to. Failures that unsigned entries
    cannot show a third party become an {!Unanswered_challenge} or an
    {!Equivocation} instead (DESIGN.md §29). *)

type chunk = {
  start : Avm_machine.Snapshot.t option;
      (** where replay starts: [None] is the boot image, for entries
          from 1; otherwise the pages that differ from the image
          ({!Avm_machine.Snapshot.of_image_diff}), checked against the
          digest of the first entry, a [Snapshot_ref] *)
  prev_hash : string;  (** chain hash before the first entry *)
  entries : Avm_tamperlog.Entry.t list;  (** sent as bodies; hashes are rederived *)
  cover : Avm_tamperlog.Auth.t;  (** the accused's commitment to the last entry *)
}

type accusation =
  | Tampered_log of { entry_seq : int; reason : string; chunk : chunk }
      (** entry [entry_seq] of the signed chunk is a RECV whose sender
          signature fails under that sender's certificate *)
  | Replay_divergence of { divergence : Replay.divergence; chunk : chunk }
      (** replaying the signed chunk from its start diverges *)
  | Unanswered_challenge of { auth : Avm_tamperlog.Auth.t }
      (** the machine owes the log its own authenticator proves must
          exist (§4.5, §4.6): a challenge to answer, never proof *)
  | Equivocation of { a : Avm_tamperlog.Auth.t; b : Avm_tamperlog.Auth.t }
      (** two authenticators signed by the accused committing to
          different hashes at one sequence number: a forked log *)

type t = { accused : string; accusation : accusation }

type checked = private t
(** Evidence a third party confirmed: only {!confirm} (through
    {!Audit.confirm}) makes one, and never for an
    {!Unanswered_challenge}, so {!Multiparty.add_evidence} files only
    proof. *)

val describe : t -> string

val forged_recv :
  node:string ->
  peer_certs:(string * Avm_crypto.Identity.certificate) list ->
  Avm_tamperlog.Entry.t ->
  bool
(** A RECV in [node]'s log whose sender signature fails under the
    sender's certificate in [peer_certs]. A sender with no certificate
    there is not proof: the accused's AVMM may know it. *)

val commits : chunk -> bool
(** The entries are contiguous, chain from [prev_hash], and end at the
    cover's seq and hash (its signature is not checked here). *)

val confirm :
  t ->
  node_cert:Avm_crypto.Identity.certificate ->
  peer_certs:(string * Avm_crypto.Identity.certificate) list ->
  image:int array ->
  mem_words:int option ->
  peers:(int * string) list ->
  checked option
(** The implementation of {!Audit.confirm}. *)

val challenge_genuine : t -> node_cert:Avm_crypto.Identity.certificate -> bool
(** An {!Unanswered_challenge} whose authenticator the accused signed:
    grounds to challenge the machine (a {!Multiparty} challenge), not
    to shun it. *)

val encode : t -> string

val decode : string -> (t, string) result
(** Never raises: a wrong magic, truncation or a malformed field is an
    [Error]. *)
