(** The audit tool (paper §4.5): syntactic check, then semantic check.

    The {b syntactic} check needs no execution: it verifies the hash
    chain, matches every collected authenticator against the log,
    verifies the sender signatures inside RECV entries, checks that
    sends were acknowledged, and sanity-checks the cross-references
    from the input stream into the message stream. All five checks run
    in a {e single pass} over the entry stream ({!syn_stream}), so a
    segmented log is audited one sealed segment at a time without ever
    materializing the whole log.

    The {b semantic} check is {!Replay.replay}: deterministic replay
    of the segment against the reference image. {!full_of_log} streams
    it segment-by-segment via {!Replay.replay_chunks}.

    Both are deterministic, so any third party repeating them obtains
    the same verdict — that is what makes the output {!Evidence};
    failed audits come back with the transferable {!Evidence.t}
    already attached ({!outcome.evidence}), and {!check_evidence} is
    the third party's side of the exchange.

    {b Configuration.} Every entry point takes [~ctx] (who is audited,
    whose signatures appear in its log, the collected authenticators,
    the ack grace window — see {!ctx}) and [?par] (worker count or a
    borrowed {!Avm_util.Domain_pool.t} — see {!parallelism}). With
    more than one lane the syntactic pass runs one ordinary stream per
    sealed segment on the pool and stitches them, so that the outcome
    — verdict, counters and the failure list, byte for byte — is
    identical to the sequential pass; the default [par] runs the
    single stream. The semantic pass is always one sequential replay
    (DESIGN.md §19).

    {b Observability.} Timing fields are monotonic wall-clock
    ({!Avm_obs.Clock}), correct under parallelism. Each pass bumps
    [audit.*] counters in {!Avm_obs.Metrics} and records one
    [audit.chunk] span per sealed segment (sequential and parallel
    alike) plus [audit.syntactic] / [audit.semantic] phase spans in
    {!Avm_obs.Trace}. *)

type ctx = Audit_ctx.ctx = {
  node_cert : Avm_crypto.Identity.certificate;
  peer_certs : (string * Avm_crypto.Identity.certificate) list;
  auths : Avm_tamperlog.Auth.t list;
  ack_grace : int;
}
(** See {!Audit_ctx.ctx}. [ack_grace] (conventionally 50) exempts the
    most recent sends from the every-send-is-acked rule: their acks
    may legitimately still be in flight when the log was cut. *)

val ctx :
  node_cert:Avm_crypto.Identity.certificate ->
  ?peer_certs:(string * Avm_crypto.Identity.certificate) list ->
  ?auths:Avm_tamperlog.Auth.t list ->
  ?ack_grace:int ->
  unit ->
  ctx
(** {!Audit_ctx.ctx}: the smart constructor ([peer_certs], [auths]
    default empty, [ack_grace] 50). *)

type parallelism = Audit_ctx.parallelism = {
  jobs : int;
  pool : Avm_util.Domain_pool.t option;
}
(** See {!Audit_ctx.parallelism}. *)

val sequential : parallelism
val parallel : ?pool:Avm_util.Domain_pool.t -> int -> parallelism

type syntactic_report = {
  entries_checked : int;
  auths_matched : int;  (** collected authenticators that matched the log *)
  recv_signatures_verified : int;
  failures : string list;  (** empty means the check passed *)
}

(** {1 The incremental syntactic stream}

    The single-pass core as a long-lived value: a session pushes
    entries as they arrive (possibly over minutes of wall clock) and
    reads failures mid-stream — what {!Online_audit} and the service
    daemon run per session; {!syntactic} and {!syntactic_of_log} drive
    the same machinery over a complete segment. *)

type syn_stream

val syn_stream : ctx:ctx -> prev_hash:string -> syn_stream
(** A fresh stream positioned just after the entry whose hash is
    [prev_hash] ([Log.genesis_hash] for a whole log). The collected
    authenticators in [ctx] are signature-checked and indexed here,
    once. *)

val syn_push : syn_stream -> Avm_tamperlog.Entry.t -> unit
(** Feed the next entry, in log order. Structural checks (chain hash
    through {!Avm_tamperlog.Entry.chain_ok}, so a decoder-marked link
    is not rehashed; sequence, authenticator match, cross-references)
    are evaluated immediately; RECV sender-signature checks are
    deferred into a pending batch that {!Avm_crypto.Rsa.verify_batch}
    settles — either when the batch fills or on the next read
    accessor. Every accessor below flushes first, so a failure pushed
    by this entry is visible in {!syn_failures} as soon as any of them
    is consulted, at the exact position an immediate check would have
    reported. *)

val syn_failure_count : syn_stream -> int
(** Failures recorded so far (flushes pending signature checks, so
    the count is exact) — a streaming session detects "this entry
    broke something" by comparing counts around a {!syn_push}. *)

val syn_failures : syn_stream -> string list
(** Failures so far, oldest first (flushes pending signature
    checks). *)

val syn_report : syn_stream -> syntactic_report
(** The report as of now, {e without} settling cut-point obligations
    (unacked sends) and without recording metrics — a mid-session
    progress view. *)

val syn_finish : syn_stream -> syntactic_report
(** Settle the cut-point obligations (every send older than the ack
    grace window must be acknowledged), record the [audit.*] metrics
    (including [audit.links_trusted] and [audit.links_hashed], the
    chain links taken on a decoder mark and the links rehashed), and
    return the final report. *)

val syntactic :
  ctx:ctx ->
  prev_hash:string ->
  entries:Avm_tamperlog.Entry.t list ->
  ?par:parallelism ->
  unit ->
  syntactic_report
(** The single stream over a materialized list. With more than one
    lane, the list is cut into several contiguous chunks per lane
    (finer than one-per-lane so work stealing can rebalance uneven
    chunks) and checked in parallel, with a report identical to the
    sequential pass. *)

val syntactic_of_log :
  ctx:ctx ->
  log:Avm_tamperlog.Log.t ->
  ?from:int ->
  ?upto:int ->
  ?par:parallelism ->
  unit ->
  syntactic_report
(** The single stream over a segment store: streams [from..upto]
    (default: the whole log) segment by segment, inflating compressed
    segments one at a time. [prev_hash] is taken from the log's own
    index. With more than one lane, sealed segments are checked
    concurrently (each worker inflating through its own domain-local
    cache) and the per-segment results stitched into the same report
    the sequential stream produces. *)

(** {1 The unified audit outcome} *)

type outcome = {
  node : string;
  syntactic : syntactic_report;
  semantic : Replay.outcome option;  (** [None] if syntactic failed *)
  syntactic_seconds : float;  (** wall-clock *)
  semantic_seconds : float;  (** wall-clock *)
  verdict : (unit, string) result;
  evidence : Evidence.t option;
      (** on [Error _]: the transferable evidence, ready to hand to a
          third party ({!check_evidence}); [None] on [Ok ()] *)
}

val full :
  ctx:ctx ->
  image:int array ->
  ?mem_words:int ->
  ?start:Avm_machine.Machine.t ->
  ?fuel:int ->
  peers:(int * string) list ->
  ?cache:Replay_cache.t ->
  prev_hash:string ->
  entries:Avm_tamperlog.Entry.t list ->
  ?par:parallelism ->
  unit ->
  outcome
(** Complete audit of one log segment. The semantic check runs only if
    the syntactic check passes (a broken chain is already evidence).
    [par] parallelizes the syntactic pass; the semantic replay is
    sequential. [cache] memoizes the semantic pass fleet-wide
    ({!Replay_cache}); verdicts are identical cache-on vs cache-off. *)

val full_of_log :
  ctx:ctx ->
  image:int array ->
  ?mem_words:int ->
  ?start:Avm_machine.Machine.t ->
  ?fuel:int ->
  peers:(int * string) list ->
  ?cache:Replay_cache.t ->
  log:Avm_tamperlog.Log.t ->
  ?from:int ->
  ?upto:int ->
  ?par:parallelism ->
  unit ->
  outcome
(** {!full} driven straight off a segment store: both checks stream
    [from..upto] (default: the whole log) one sealed segment at a
    time — the syntactic pass via {!syntactic_of_log}, the semantic
    pass via {!Replay.replay_chunks} — with identical verdicts to
    {!full} on the materialized entry list. The log segment is
    materialized into {!outcome.evidence} only when the audit fails.
    With more than one lane the syntactic pass runs one worker per
    sealed segment. *)

val check_evidence :
  Evidence.t ->
  ctx:ctx ->
  image:int array ->
  ?mem_words:int ->
  ?start:Avm_machine.Machine.t ->
  ?fuel:int ->
  peers:(int * string) list ->
  unit ->
  bool
(** The third party's verification: re-run the audit on the evidence
    (its own segment and authenticators; [ctx] supplies the
    certificates) and confirm a fault really is present. [true] means
    the evidence is valid and the accused is provably faulty; [false]
    means the evidence does not hold up (and the accuser is making an
    unsupported claim). For {!Evidence.Unanswered_challenge}, validity
    means the authenticator is genuine — the third party should then
    challenge the machine itself. For {!Evidence.Equivocation} no log
    or replay is consulted at all: the proof is two verified
    signatures over conflicting commitments at the same sequence
    number ([image], [peers] etc. are ignored). *)

val pp_outcome : Format.formatter -> outcome -> unit
