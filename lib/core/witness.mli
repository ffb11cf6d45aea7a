(** Fleet-scale witness auditing (PeerReview-style, after the paper's
    §4.6 "who audits whom" discussion and the ROADMAP's fleet north
    star).

    Three pieces, deliberately separable:

    - {b assignment}: each node is audited by [k] seeded-randomly
      chosen peers. The draw is deterministic in the seed, so every
      participant (and every offline verifier) re-derives the same
      witness sets — no node picks its own auditors.
    - {b epoch scheduling}: time is cut into epochs; at each epoch
      boundary every node seals its log segment with a snapshot, and
      one audit job per (target, witness) pair is enqueued. Within a
      target's witness set one {e designated} witness (rotating per
      epoch) replays the epoch semantically; the others run the cheap
      syntactic pass, so per-epoch audit cost stays O(k) per node with
      exactly one replay.
    - {b the sharded auditor pool}: jobs are split into contiguous
      shards spread over a {!Avm_util.Domain_pool}, with per-shard
      [witness.shard<i>.*] metrics. Shard boundaries depend only on
      the job list, never on the worker count, so the verdict vector
      is identical at jobs 1 and jobs 4.

    {b Epoch convention.} Callers take a {e baseline} snapshot of
    every node before epoch 1 (snapshot seqs start at 0, so the
    baseline is seq 0), then one snapshot at each epoch end: epoch [e]
    is the log range between snapshot seq [e - 1] and [e], and
    {!audit_job} addresses it that way. *)

(** {1 Assignment} *)

type assignment = { nodes : int; k : int; sets : int array array }

val assign : seed:int64 -> nodes:int -> k:int -> assignment
(** [k] is clamped to [nodes - 1]; sets never contain the node itself.
    @raise Invalid_argument if [nodes < 2] or [k < 1]. *)

val witnesses : assignment -> int -> int array

(** {1 Epoch scheduling} *)

type mode =
  | Syntactic  (** hash chain + authenticator match over the epoch range *)
  | Semantic  (** spot-check replay of the epoch from authenticated state *)

type job = { epoch : int; target : int; witness : int; mode : mode }

val epoch_jobs : assignment -> epoch:int -> job list
(** All (target, witness) jobs for one epoch, ascending by target;
    the designated semantic witness rotates with the epoch. *)

(** {1 Auditing} *)

type target_view = {
  log : Avm_tamperlog.Log.t;
  snapshots : Avm_machine.Snapshot.t list;
  image : int array;
  mem_words : int;
  peers : (int * string) list;  (** the target's own dest-id map *)
  node_cert : Avm_crypto.Identity.certificate;
  peer_certs : (string * Avm_crypto.Identity.certificate) list;
}

type verdict = { job : job; ok : bool; detail : string }

val audit_job :
  ?cache:Replay_cache.t ->
  ?plan:Spot_check.plan ->
  view:target_view ->
  auths:Avm_tamperlog.Auth.t list ->
  job ->
  verdict
(** Run one job against the target's log. [auths] is what this witness
    has collected for the target (envelope and ack authenticators);
    unmatched collected authenticators are not an error — they may
    belong to other epochs.

    [cache] is the fleet-wide replay memo table ({!Replay_cache}): the
    driver creates {e one} cache and passes it to every (target,
    witness) job it hands {!run_sharded}, so an epoch chunk identical
    across the idle majority replays once and hits everywhere else.
    Verdicts are those of an uncached audit except for a forged
    snapshot (below); semantic jobs additionally bump
    [witness.semantic_entries] / [witness.semantic_us].

    The epoch range comes from [plan], the {!Spot_check.plan} of the
    view's log and snapshots; build it once per view and pass it to
    every job of that target (without it, each job builds its own). A
    job that cannot run — an epoch boundary missing from the log, or a
    snapshot the target never handed over — fails ([ok = false]) with
    a [detail] naming the snapshot.

    The cache also carries the states the semantic jobs verified, so a
    witness replays an epoch from a state it already holds rather than
    downloading it (DESIGN.md §24). Neither that nor a hit fetches the
    target's snapshot, so a snapshot forged against the log fails only
    a job that downloads it: which of a forging target's semantic jobs
    fail can depend on job order, and so on the pool's lane count.
    For targets whose snapshots match their logs, verdicts do not
    depend on the cache. *)

(** {1 The sharded auditor pool} *)

val run_sharded :
  ?par:Audit.parallelism ->
  ?shards:int ->
  f:(job -> verdict) ->
  job list ->
  verdict list
(** Execute jobs across [shards] (default 8) contiguous shards on the
    pool [par] resolves to, preserving job order in the returned
    vector. Each shard bumps [witness.shard<i>.jobs] /
    [witness.shard<i>.failures] and times itself under
    [witness.shard<i>.seconds]; totals land in [witness.jobs] and
    [witness.failures]. *)

val coverage : verdict list -> nodes:int -> epoch:int -> float
(** Fraction of nodes with at least one verdict in [epoch]. *)

(** {1 Cross-witness authenticator exchange}

    The PeerReview mechanism the paper inherits for fork detection
    (§4.3): witnesses of the same target gossip the authenticators
    they have collected for it each epoch. Any two {e verified}
    authenticators from the same node with equal [seq] but different
    [hash] are a transferable {!Evidence.Equivocation} proof — two
    signatures and a compare, no log download, no replay. This is the
    detection path for a node that maintains forked logs and shows
    each witness a consistent-looking one: every per-witness audit
    passes, but the witnesses' stores cannot both be right. *)

type equiv_store
(** One witness's persistent store of verified authenticators, keyed
    by (node, seq), plus any equivocation proofs it has derived. Keep
    it across epochs: a fork only surfaces when {e both} heads reach
    the same store, possibly epochs apart. *)

type offer_result =
  | Fresh  (** first verified commitment seen for this (node, seq) *)
  | Known  (** duplicate of the stored one — honest retransmission *)
  | Rejected of string
      (** unverifiable (wrong cert, bad signature, inconsistent hash):
          dropped without touching the store, counted in
          [witness.equiv.rejected] — a corrupt copy never accuses *)
  | Conflict of Evidence.t
      (** verified, same (node, seq), different hash: a transferable
          equivocation proof, also banked in the store *)

val equiv_store : unit -> equiv_store

val offer :
  equiv_store -> cert:Avm_crypto.Identity.certificate -> Avm_tamperlog.Auth.t -> offer_result
(** Offer one authenticator (own collection or gossip) against the
    issuer's certificate. Only the first verified authenticator per
    (node, seq) is retained, so repeated offers are idempotent
    ([Known]) and a later conflicting one always pairs with the
    original. *)

val equiv_proofs : equiv_store -> Evidence.t list
(** All proofs this store has derived, at most one per accused, sorted
    by accused name. *)

type exchange_stats = {
  ex_messages : int;  (** gossip messages (ordered witness pairs) *)
  ex_auths : int;  (** authenticators carried by those messages *)
  ex_bytes : int;  (** wire bytes of the carried authenticators *)
  ex_proofs : Evidence.t list;
      (** newly derived proofs fleet-wide, one per accused, sorted *)
}

val exchange :
  assignment ->
  stores:equiv_store array ->
  collected:(target:int -> witness:int -> Avm_tamperlog.Auth.t list) ->
  cert_of:(int -> Avm_crypto.Identity.certificate) ->
  exchange_stats
(** Run one epoch's exchange over the witness graph: for every target,
    each of its witnesses banks its own collected authenticators in
    its [stores] entry, then sends the list to each of the other
    [k - 1] witnesses of the same target. Sequential and
    deterministic (targets in index order, slots in set order), so
    the proof list — like the audit verdict vector — is invariant
    under the auditor pool's job count. Totals land in
    [witness.equiv.messages] / [.auths_exchanged] / [.bytes].
    @raise Invalid_argument unless [stores] has one entry per node. *)
