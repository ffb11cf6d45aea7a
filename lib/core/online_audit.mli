(** Online (concurrent) auditing — paper §6.11.

    "Players can incrementally audit other players' logs while the game
    is still in progress... cheating could be detected as soon as the
    externally visible behavior of the cheater's machine deviates from
    that of the reference machine."

    A {!Session.t} tails one growing tamper-evident log: the producer
    {!Session.ingest}s newly sealed entries (subject to backpressure
    when the auditor has fallen too far behind) and the auditor
    {!Session.step}s replay forward under a bounded instruction budget.
    Each entry runs through the streaming syntactic pass
    ({!Audit.syn_stream}) the moment it is observed, so tampering
    surfaces at memory bandwidth; replay verifies semantics chunk by
    chunk at the log's [Snapshot_ref] boundaries — the same partition
    {!Spot_check} cuts at, so the fingerprints computed here share the
    fleet-wide {!Replay_cache} with the offline auditors: a chunk any
    session (or offline audit) already verified retires without
    executing an instruction.

    Replay is slightly slower than recording (the paper measured ~7%),
    so an auditor falls behind by a few seconds per minute unless the
    recorded execution is artificially slowed (§6.11 uses 5%);
    [replay_rate] models this. *)

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

module Session : sig
  type t

  val open_session :
    ?ctx:Audit_ctx.ctx ->
    image:int array ->
    ?mem_words:int ->
    ?replay_rate:float ->
    ?prev_hash:string ->
    ?high_watermark:int ->
    ?low_watermark:int ->
    ?cache:Replay_cache.t ->
    ?snapshot_of:(unit -> Avm_machine.Snapshot.t list) ->
    peers:(int * string) list ->
    unit ->
    t
  (** Open a streaming audit session against the boot [image].

      [ctx] enables the full syntactic stream (authenticators, RECV
      signatures, ack obligations) and {!outcome} construction; without
      it only the hash chain and sequence numbering are checked — the
      honest-log-safe subset when peer certificates are unavailable.

      [high_watermark] (default 4096) and [low_watermark] (default
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
      [snapshot_of] returns it. Hits are never taken without
      [snapshot_of] (there would be no state to resume from); verified
      misses are still remembered for the rest of the fleet.

      [replay_rate] (default 0.955) scales the budget each {!step}
      gets, modeling replay running a few percent slower than the
      original execution (paper §6.11). *)

  val ingest : ?upto:int -> t -> Avm_tamperlog.Log.t -> [ `Accepted | `Backpressure of int ]
  (** Pull any entries appended since the last call ([?upto] caps the
      observed sequence number — the producer offering a partial
      segment). Every pulled entry is syntactically checked on the
      spot; a failure sets the session verdict immediately.
      [`Backpressure lag] means the watermark is exceeded: nothing was
      pulled, the entries stay in the producer's log, try again after
      {!step}. After a terminal verdict, ingest is a no-op [`Accepted].

      The log must not be mutated during the call; the observed length
      is snapshotted up front and re-checked after the walk, so a
      concurrent append raises [Invalid_argument] instead of corrupting
      the chain walk. *)

  val step : t -> budget_instructions:int -> verdict option
  (** Advance verification by up to [budget_instructions x replay_rate]
      instructions: take cache hits on fully ingested chunks, replay
      the rest, retire chunks as their closing snapshot digests verify.
      Returns the session verdict — [Some] is terminal and repeats on
      every later call. *)

  val status : t -> status

  val lag_entries : t -> int
  (** [= (status t).lag_entries], without building the record. *)

  val node_cert : t -> Avm_crypto.Identity.certificate option
  (** The audited producer's certificate, when the session was opened
      with [ctx] — what the service daemon verifies offered
      authenticators against before they can accuse this session. *)

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
      return the final verdict. Idempotent. *)

  val outcome : t -> Audit.outcome option
  (** The session's verdict as a transferable {!Audit.outcome},
      evidence attached — what the service daemon emits the moment a
      verdict lands, mid-session. The evidence segment is the buffered
      chunk holding the offending entry. [None] while the session is
      clean, or when the session was opened without [ctx]. *)
end
