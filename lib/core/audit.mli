(** The audit engine (paper §4.5): syntactic check, then semantic
    check, then transferable evidence — run as one streaming session
    per audited log, online (paper §6.11) or in batch.

    - The {b syntactic} check needs no execution: in one pass over the
      entries as they are ingested it verifies the hash chain, matches
      every collected authenticator against the log, verifies the
      sender signatures inside RECV entries, checks that sends were
      acknowledged, and sanity-checks the input stream's
      cross-references into the message stream.
    - The {b semantic} check is deterministic replay ({!Replay})
      against the reference image, chunk by chunk at the log's
      [Snapshot_ref] boundaries.

    A {!Session.t} is the engine. It tails one growing log: the
    producer {!Session.ingest}s newly sealed entries (under
    backpressure when the auditor falls too far behind) and the auditor
    {!Session.step}s replay forward under an instruction budget.
    {!full_of_log} and {!full} are its batch front ends. Either way one
    builder, {!Session.outcome}, packages the verdict with its
    {!Evidence.t}, and {!confirm} is the third party's side.

    {b Configuration.} Every entry point takes [~ctx] ({!ctx}); the
    batch front ends also take [?par] ({!parallelism}). With more than
    one lane the syntactic check runs one stream per sealed segment on
    the pool and stitches them into the session's own, with an outcome
    — verdict, counters and failure list, byte for byte — identical to
    the sequential pass. Replay is always one sequential pass
    (DESIGN.md §19).

    {b Observability.} Timings are monotonic wall-clock
    ({!Avm_obs.Clock}). An audit bumps [audit.*] counters and records
    one [audit.chunk] span per sealed segment it ingests; the batch
    front ends wrap them in [audit.syntactic] and [audit.semantic]
    spans. *)

type ctx = {
  node_cert : Avm_crypto.Identity.certificate;
      (** certificate of the node under audit *)
  peer_certs : (string * Avm_crypto.Identity.certificate) list;
      (** certificates of its correspondents, for RECV signatures *)
  auths : Avm_tamperlog.Auth.t list;
      (** authenticators the auditor collected for this node *)
  ack_grace : int;
      (** most recent sends exempt from the every-send-is-acked rule
          (conventionally 50): their acks may legitimately still be in
          flight when the log was cut *)
}
(** Who is audited, whose signatures appear in its log, and what the
    auditor collected — the configuration every entry point takes. *)

val ctx :
  node_cert:Avm_crypto.Identity.certificate ->
  ?peer_certs:(string * Avm_crypto.Identity.certificate) list ->
  ?auths:Avm_tamperlog.Auth.t list ->
  ?ack_grace:int ->
  unit ->
  ctx
(** Smart constructor; [peer_certs] and [auths] default to [[]],
    [ack_grace] to 50. *)

type parallelism = {
  jobs : int;  (** worker count; 1 = sequential *)
  pool : Avm_util.Domain_pool.t option;
      (** run on this (borrowed) pool instead of spawning one *)
}

val sequential : parallelism
(** [{ jobs = 1; pool = None }] — the default everywhere. *)

val parallel : ?pool:Avm_util.Domain_pool.t -> int -> parallelism
(** [parallel jobs] spawns a scoped pool per call; [parallel ~pool jobs]
    borrows [pool] (its lane count wins over [jobs]). *)

val with_parallelism : ?par:parallelism -> (Avm_util.Domain_pool.t option -> 'a) -> 'a
(** Resolve [?par] the way every entry point does: an explicit
    multi-lane [pool] is borrowed as-is; otherwise [jobs > 1] spawns a
    pool scoped to the callback; anything else passes [None] (the
    sequential path). *)

type syntactic_report = {
  entries_checked : int;
  auths_matched : int;  (** collected authenticators that matched the log *)
  recv_signatures_verified : int;
  failures : string list;  (** empty means the check passed *)
}

val syntactic_of_log :
  ctx:ctx ->
  log:Avm_tamperlog.Log.t ->
  ?from:int ->
  ?upto:int ->
  ?par:parallelism ->
  unit ->
  syntactic_report
(** The syntactic check alone, over [from..upto] of a log (default: the
    whole log), starting from the log's own chain hash before [from] —
    what a witness's syntactic job needs. With more than one lane the
    sealed segments are checked concurrently, each worker inflating
    through its own domain-local cache. *)

(** {1 Verdicts and outcomes} *)

(** A terminal finding. [Tampered] comes from the syntactic stream (a
    broken hash chain, a bad signature, a shrunk log); [Diverged] from
    replay (the execution does not reproduce the log); [Equivocated]
    from the cross-session authenticator exchange (two verified
    commitments by the producer at the same seq with different hashes
    — see {!Session.equivocate} and {!Avm_core.Witness.offer}). *)
type verdict =
  | Tampered of { reason : string; entry_seq : int option }
  | Diverged of Replay.divergence
  | Equivocated of { a : Avm_tamperlog.Auth.t; b : Avm_tamperlog.Auth.t }

val pp_verdict : Format.formatter -> verdict -> unit

val verdict_entry : verdict -> int option
(** The log entry a verdict names, if any: the first failing entry, the
    divergence's entry, or the seq of the equivocated commitments. *)

type status = {
  ingested_entries : int;  (** entries accepted so far *)
  retired_entries : int;  (** entries of fully verified (retired) chunks *)
  chunks_retired : int;  (** snapshot-delimited chunks fully verified *)
  lag_entries : int;  (** ingested but not yet reproduced *)
  lag_us_estimate : float;
      (** [lag_entries] x an EMA of observed wall-clock per retired
          entry — the bounded-lag gauge the service daemon enforces *)
  replayed_instructions : int;  (** actually executed (cache hits excluded) *)
  cache_hits : int;  (** chunks retired straight from the {!Replay_cache} *)
  throttled : bool;  (** backpressure currently engaged *)
  verdict : verdict option;  (** terminal once set *)
}

type outcome = {
  node : string;
  syntactic : syntactic_report;
  semantic : Replay.outcome option;  (** [None] if the syntactic check failed *)
  syntactic_seconds : float;  (** wall-clock spent ingesting and closing *)
  semantic_seconds : float;  (** wall-clock spent replaying *)
  verdict : (unit, string) result;
  evidence : Evidence.t option;
      (** on [Error _]: the transferable evidence, ready to hand to a
          third party ({!check_evidence}) *)
}
(** What an audit found. *)

(** {1 The session} *)

module Session : sig
  type t

  val open_session :
    ctx:ctx ->
    image:int array ->
    ?mem_words:int ->
    ?replay_rate:float ->
    ?high_watermark:int ->
    ?low_watermark:int ->
    ?cache:Replay_cache.t ->
    ?snapshot_of:(unit -> Avm_machine.Snapshot.t list) ->
    peers:(int * string) list ->
    unit ->
    t
  (** Open a streaming audit session of [ctx]'s node against the boot
      [image]; [ctx] supplies the certificates and the collected
      authenticators. [high_watermark] (default 4096) and [low_watermark] (default
      half of high) bound the ingest queue: once [lag_entries] exceeds
      the high mark, {!ingest} refuses with [`Backpressure] until
      replay drains the lag back under the low mark (hysteresis, so the
      producer is not toggled every entry).

      [cache] plus [snapshot_of] (the producer's downloadable snapshot
      set, polled lazily) enable the fleet-wide memo protocol: a cache
      hit retires a whole chunk, and replay re-seats itself from the
      downloaded state at the chunk's end boundary — authenticated
      by {!Spot_check.authenticate}, exactly as a spot check is, so a
      forged snapshot is a [Diverged] verdict, not a silent skip, and a
      snapshot not yet shipped stalls replay (no verdict) until
      [snapshot_of] returns it. Without [snapshot_of] no hit is taken
      (there is no state to resume from), but verified misses are
      still remembered for the fleet. [replay_rate] (default 0.955) scales the budget each {!step}
      gets, modeling replay running a few percent slower than the
      original execution (paper §6.11). *)

  val ingest : ?upto:int -> t -> Avm_tamperlog.Log.t -> [ `Accepted | `Backpressure of int ]
  (** Pull any entries appended since the last call ([?upto] caps the
      observed sequence number — the producer offering a partial
      segment). Every pulled entry is syntactically checked, and a
      failure sets the session verdict for the first failing entry
      before the call returns. [`Backpressure lag] means the watermark
      is exceeded: nothing was pulled, the entries stay in the
      producer's log, try again after {!step}. After a terminal
      verdict, ingest returns [`Accepted] and only pulls, for the
      evidence, the entries up to the first collected authenticator at
      or after the fault, once one is known (at most [high_watermark]
      of them); see {!outcome}.

      The log must not be mutated during the call; the observed length
      is snapshotted up front and re-checked after the walk, so a
      concurrent append raises [Invalid_argument] instead of corrupting
      the chain walk. *)

  val step : t -> budget_instructions:int -> verdict option
  (** Advance verification by up to [budget_instructions x replay_rate]
      instructions (saturating: [max_int] means no limit): take cache
      hits on fully ingested chunks, replay the rest, retire chunks as
      their closing snapshot digests verify. Returns the session
      verdict — [Some] is terminal and repeats on every later call. *)

  val status : t -> status

  val lag_entries : t -> int
  (** [= (status t).lag_entries], without building the record. *)

  val add_auth : t -> Avm_tamperlog.Auth.t -> unit
  (** Collect one more authenticator after the session opened (the
      service daemon's {!Avm_service.Daemon.offer_auth}). One that does
      not verify under the producer's certificate is dropped. One for
      an entry not yet ingested is matched against it on arrival, like
      [ctx.auths]; one for an ingested entry still buffered is matched
      now, and a mismatch is a [Tampered] verdict; one for a retired
      entry is dropped. *)

  val node_cert : t -> Avm_crypto.Identity.certificate
  (** The audited producer's certificate — what the service daemon
      verifies offered authenticators against before they can accuse
      this session. *)

  val equivocate : t -> a:Avm_tamperlog.Auth.t -> b:Avm_tamperlog.Auth.t -> unit
  (** Land an externally derived equivocation proof as this session's
      terminal verdict (first verdict wins, like any other). The
      caller — normally {!Avm_service.Daemon.offer_auth} — must have
      verified both authenticators against the producer's certificate;
      here only {!Avm_tamperlog.Auth.conflicts} is re-checked (a
      non-conflicting pair is ignored). Counted in
      [online_audit.equivocations]. *)

  val close : t -> verdict option
  (** Settle the cut-point obligations of the syntactic stream (every
      send older than the ack grace window must be acknowledged) and
      return the final verdict. Idempotent. A failure found here, or a
      bad collected authenticator never reached by an ingest, is a
      [Tampered] verdict naming no entry. *)

  val outcome : t -> outcome
  (** The session's verdict as a transferable {!outcome} — what the
      daemon emits the moment a verdict lands and what the batch front
      ends return; clean ([Ok ()], with the replay totals) while there
      is no verdict. Built from what the session holds, reading no log.

      Evidence convicts only on what the accused signed (DESIGN.md
      §29): a divergence ships the head chunk from its opening
      [Snapshot_ref] (or entry 1) with the state verified there, a
      forged RECV the log from that entry, each up to the {e covering}
      authenticator, the first collected one at or after the fault.
      Any other failure, or one no ingested authenticator covers yet,
      yields an {!Evidence.Equivocation} if two collected
      authenticators conflict, else an {!Evidence.Unanswered_challenge}
      for the first one at or after the fault, else none; a forged
      {e downloaded} snapshot yields none. Online, the cover may come
      later than the verdict ({!add_auth}, {!ingest}): calling
      [outcome] again then gives the signed chunk. *)
end

(** {1 The batch front ends} *)

val full_of_log :
  ctx:ctx ->
  image:int array ->
  ?mem_words:int ->
  ?fuel:int ->
  ?cache:Replay_cache.t ->
  peers:(int * string) list ->
  log:Avm_tamperlog.Log.t ->
  ?par:parallelism ->
  unit ->
  outcome
(** Complete audit of a log, streamed one sealed segment at a time.
    The semantic check runs only if the syntactic check passes (a
    broken chain is already evidence); [fuel] (default
    {!Replay.default_fuel}) bounds the whole replay, and running out
    of it is a [Guest_stalled] divergence. [par] parallelizes the
    syntactic check. [cache] lets each verified chunk seed the
    fleet-wide {!Replay_cache}; verdicts are identical cache-on vs
    cache-off. *)

val full :
  ctx:ctx ->
  image:int array ->
  ?mem_words:int ->
  ?fuel:int ->
  ?cache:Replay_cache.t ->
  peers:(int * string) list ->
  entries:Avm_tamperlog.Entry.t list ->
  ?par:parallelism ->
  unit ->
  outcome
(** {!full_of_log} over a recorded entry list, starting at genesis. A
    list whose sequence numbers do not run contiguously from 1 cannot
    be indexed as a log; it is pushed as it is, and the gap is a chain
    failure of the same stream. *)

(** {1 The third party} *)

val confirm :
  Evidence.t ->
  ctx:ctx ->
  image:int array ->
  ?mem_words:int ->
  peers:(int * string) list ->
  unit ->
  Evidence.checked option
(** The third party's check, with [ctx]'s certificates (its [auths]
    are not consulted). A {!Evidence.chunk} must be signed: its cover
    verifies under the accused's certificate and {!Evidence.commits}.
    A [Replay_divergence] chunk must then diverge when replayed from
    the boot image (from entry 1) or from its start state, which must
    rebuild into the first entry's [Snapshot_ref] digest; a
    [Tampered_log] must name a {!Evidence.forged_recv} in its chunk.
    An [Equivocation] is two verified conflicting authenticators. An
    [Unanswered_challenge] is never proof: see
    {!Evidence.challenge_genuine}. [Some] means the accused is
    provably faulty. *)

val check_evidence :
  Evidence.t ->
  ctx:ctx ->
  image:int array ->
  ?mem_words:int ->
  peers:(int * string) list ->
  unit ->
  bool
(** [Option.is_some] of {!confirm}. *)

val pp_outcome : Format.formatter -> outcome -> unit
