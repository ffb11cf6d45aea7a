(** Auditor-as-a-service: a long-running daemon multiplexing hundreds
    of concurrent {!Avm_core.Online_audit.Session}s, optionally over
    one shared fleet-wide {!Avm_core.Replay_cache}.

    The daemon owns three invariants the single-session API leaves to
    the caller:

    - {b Backpressure.} Each session's ingest queue is bounded by
      high/low watermarks; {!ingest} relays the session's
      [`Backpressure] refusal to the producer, and the daemon counts
      engagements/releases fleet-wide so an operator sees when replay
      capacity is the bottleneck.
    - {b Bounded lag.} {!pump} spends a per-cycle instruction budget
      across sessions {e laggiest first}, so the worst-case audit lag
      (entries and estimated wall-clock, exported as [service.*]
      gauges) is what the budget bounds, not the average.
    - {b Incremental evidence.} The moment any session reaches a
      verdict — a chain break at ingest, a divergence mid-pump — the
      [on_verdict] callback fires with an {!event} carrying the
      session's {!Avm_core.Audit.outcome} and its evidence, without
      waiting for the session to close. *)

type event = {
  ev_session : string;  (** session id given to {!attach} *)
  ev_verdict : Avm_core.Online_audit.verdict;
  ev_entry_seq : int option;  (** offending log entry, if identified *)
  ev_chunk : int;  (** snapshot-delimited chunks retired before the verdict *)
  ev_lag_entries : int;  (** session lag when the verdict landed *)
  ev_outcome : Avm_core.Audit.outcome;
      (** the verdict with its transferable evidence, built when the
          verdict lands from what the session holds
          ({!Avm_core.Audit.Session.outcome}); a fault no collected
          authenticator covers yet gets its signed chunk later, see
          {!outcome} *)
}

type t

val create :
  ?high_watermark:int ->
  ?low_watermark:int ->
  ?max_lag_entries:int ->
  ?cache:Avm_core.Replay_cache.t ->
  ?on_verdict:(event -> unit) ->
  unit ->
  t
(** [max_lag_entries] (default 4096) is the advertised lag bound the
    daemon works toward: {!pump} orders sessions by lag and the
    [service.lag_entries_max] gauge tracks the worst session, so a
    sustained breach is visible (and assertable via [avm_obs_check
    --gauge-max]). The watermarks default to [max_lag_entries] and
    half of it. Every attached session shares [cache]; without one,
    each replays every chunk in full. *)

val attach :
  t ->
  id:string ->
  ctx:Avm_core.Audit.ctx ->
  image:int array ->
  ?mem_words:int ->
  ?replay_rate:float ->
  ?snapshot_of:(unit -> Avm_machine.Snapshot.t list) ->
  peers:(int * string) list ->
  unit ->
  unit
(** Open a session for one producer. @raise Invalid_argument on a
    duplicate [id]. *)

val ingest : t -> id:string -> Avm_tamperlog.Log.t -> [ `Accepted | `Backpressure of int ]
(** Offer a producer's grown log to its session. A syntactic failure
    fires [on_verdict] before the call returns. *)

val offer_auth :
  t -> id:string -> Avm_tamperlog.Auth.t -> Avm_core.Witness.offer_result
(** Offer a collected authenticator for session [id]'s producer into
    the daemon's shared {!Avm_core.Witness.equiv_store} (one store per
    daemon, persistent across sessions and epochs). The authenticator
    is verified against the session's producer certificate
    ({!Avm_core.Online_audit.Session.node_cert}). On [Conflict] — two verified
    commitments at the same seq with different hashes — the session's
    verdict becomes [Equivocated] and [on_verdict] fires before the
    call returns, mid-session, with the transferable proof attached
    ([service.equivocations] is bumped). A verified one ([Fresh] or
    [Known]) is also collected by the session
    ({!Avm_core.Audit.Session.add_auth}), where it can cover a fault's
    evidence; one that does not match the ingested log is a verdict
    that fires before the call returns. A corrupt or forged copy is
    dropped, never accused. @raise Invalid_argument on an unknown
    [id]. *)

val outcome : t -> id:string -> Avm_core.Audit.outcome
(** Session [id]'s outcome as it stands now: once an authenticator
    covering a fault has been offered and the entries up to it
    ingested, the evidence is the signed chunk even when the event
    carried only a challenge. @raise Invalid_argument on an unknown
    [id]. *)

val equiv_proofs : t -> Avm_core.Evidence.t list
(** Equivocation proofs the daemon's store has derived so far, at most
    one per accused node, sorted by accused name. *)

val session_status : t -> id:string -> Avm_core.Online_audit.status
val session_ids : t -> string list

val pump : t -> budget_instructions:int -> ?par:Avm_core.Audit.parallelism -> unit -> int
(** One service cycle: give every live (verdict-free) session
    [budget_instructions] of replay, laggiest sessions first, firing
    [on_verdict] for each new verdict, then refresh the [service.*]
    gauges. With [par] resolving to more than one lane the sessions
    are stepped concurrently on a {!Avm_util.Domain_pool} (sessions
    are independent; the shared cache is thread-safe) and the events
    are still fired sequentially on the calling domain, in session-id
    order. Returns the number of new verdicts. *)

val detach : t -> id:string -> event option
(** Close the session (settling the syntactic stream's cut-point
    obligations, which can itself surface a final verdict — fired via
    [on_verdict] and returned). *)

type stats = {
  sessions : int;  (** currently attached *)
  verdicts : int;  (** total fired since [create] *)
  entries_ingested : int;
  lag_max : int;
  lag_p50 : int;
  lag_p99 : int;
  backpressured : int;  (** sessions currently throttled *)
}

val stats : t -> stats

val shutdown : t -> event list
(** Detach every remaining session; the final events, in id order. *)
