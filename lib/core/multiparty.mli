(** Multi-party bookkeeping (paper §4.6).

    Each participant keeps, per peer: every authenticator it has seen
    (from envelopes, acks, or forwarded by other participants), any
    open challenges, and any evidence received. The three §4.6
    mechanisms map to:

    - {!record_auth} / {!auths_for}: authenticator collection and
      exchange before an audit;
    - {!open_challenge} / {!answer_challenge} / {!has_open_challenge}:
      a node that ignores an audit request is challenged through the
      other participants, who stop communicating with it until it
      answers;
    - {!add_evidence} / {!evidence_against}: distribution of verified
      evidence, after which everyone can shun the faulty node. Only
      evidence {!Audit.confirm} checked can be filed. *)

type t

val create : self:string -> t

val record_auth : t -> Avm_tamperlog.Auth.t -> unit
(** File an authenticator under the node that issued it (idempotent). *)

val auths_for : t -> string -> Avm_tamperlog.Auth.t list
(** All authenticators collected for a node, ascending by seq. *)

val merge_auths : t -> from:t -> node:string -> unit
(** Import another participant's collection for [node] — what Alice
    does with Charlie's authenticators before auditing Bob. *)

type challenge = { id : int; accused : string; description : string; mutable answered : bool }

val open_challenge : t -> accused:string -> description:string -> challenge
val answer_challenge : t -> int -> unit
val has_open_challenge : t -> string -> bool
(** While true, participants refuse regular traffic with that node. *)

val add_evidence : t -> Evidence.checked -> unit
val evidence_against : t -> string -> Evidence.checked list
val shunned : t -> string list
(** Nodes with at least one piece of checked evidence on file. *)
