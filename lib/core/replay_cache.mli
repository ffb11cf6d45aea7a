(** Deduplicated re-execution: a fleet-wide memo table for replay
    chunks (ROADMAP item 2, after "The Efficient Server Audit Problem,
    Deduplicated Re-execution, and the Web").

    A replay chunk is fingerprinted by what {e determines} its
    execution — the guest image digest, the authenticated pre-state
    digest it starts from, and a digest of its input-event stream —
    and the table remembers what the one full replay of that
    fingerprint {e established}: that the chunk's claims (the output
    payloads it logged and the post-state digest it sealed with) are
    exactly what deterministic re-execution produces, together with
    the instruction/entry counts of that verified replay. An identical
    chunk anywhere else in the fleet then audits as a three-digest
    compare: fingerprint match, claimed-outputs match, claimed
    post-state match. Any claim that differs from the cached one is a
    {e miss}, never a hit — so a cheater whose inputs collide with an
    honest node's cached chunk still gets fully replayed (and caught),
    because its tampered snapshot digest or forged outputs cannot
    equal the honest claims without breaking SHA-256.

    The remaining attack surface is a {e poisoned} table entry (an
    adversary who can write to the auditor's cache inserts its own
    claims as "verified"). The defense is spot-check scheduling
    (paper §3.5 applied to the cache): a seeded, fingerprint-
    deterministic minority of chunks is designated for full replay
    {e even on a hit}; a cached entry whose claims full replay fails
    to reproduce is evicted and counted under [replay.cache_poisoned].
    Determinism in the fingerprint (not in cache state or audit order)
    keeps verdict vectors identical across job counts.

    Domain-safety follows the {!Avm_crypto.Sigcache} design — bounded
    FIFO eviction, a global [Atomic] kill-switch so cache-on/off
    verdict equality is provable — except the store is genuinely
    shared (lock-striped) rather than per-domain, because one epoch's
    (target, witness) jobs must dedup against each other across
    {!Witness.run_sharded} worker domains. *)

type t

val create : ?capacity:int -> ?stripes:int -> ?spot_rate:int -> ?seed:int64 -> unit -> t
(** A fresh cache. [capacity] bounds total remembered chunks (default
    8192, FIFO per stripe); [stripes] is the lock-striping factor
    (default 16, rounded up to a power of two); [spot_rate] designates
    1-in-[spot_rate] fingerprints for full replay even on hit
    (default 8; [0] disables spot checks, [1] replays every hit);
    [seed] keys the designation so an adversary cannot predict — or a
    test can force — which chunks escape the cache. The verified-state
    table ({!find_state}) is bounded by {!state_budget}. *)

val state_budget : int
(** The verified-state table's budget: the total
    {!Avm_machine.Machine.state_words} (memory plus disk sectors) of
    the states it holds, 2{^21} words (16 MiB of word arrays: 1,024
    states of the 2,048-word fleet guest, 32 of a 65,536-word game
    guest). The per-page hash caches a stored memory keeps add a few
    percent on top and are not counted. *)

val set_enabled : bool -> unit
(** Global kill-switch (all caches, every domain). Off by one
    [Atomic.set]: every lookup is [Off], every store is skipped, and
    audits behave exactly as if no cache were threaded through. *)

val is_enabled : unit -> bool

val clear : t -> unit
(** Forget every remembered chunk and every verified state. *)

val size : t -> int
val capacity : t -> int
val spot_rate : t -> int

(** {1 Fingerprints} *)

type print
(** The fingerprint of one replay chunk {e plus} the chunk's claims:
    [key] (SHA-256 over image digest, memory geometry, landmark
    strictness, pre-state digest and the input-event stream), a
    separate digest of the auditor's peer map (matched only for
    packet-emitting chunks — see {!remember}), the claimed post-state
    digest (the last [Snapshot_ref] in the chunk, [""] if none) and
    the claimed-outputs digest (every [Send] destination/payload and
    every [Snapshot_ref] digest, in sequence order). Claim fields are
    deliberately {e excluded} from [key]: inputs determine execution,
    claims are what execution must be checked against. *)

type fp
(** A streaming fingerprint builder (one pass, no entry list
    materialized — segments feed it straight from {!Avm_tamperlog.Log.iter_range}). *)

val fp_create :
  image:int array ->
  ?mem_words:int ->
  ?strict_landmarks:bool ->
  peers:(int * string) list ->
  pre_state:string ->
  unit ->
  fp

val fp_feed : fp -> Avm_tamperlog.Entry.t -> unit
val fp_finish : fp -> print

val fingerprint :
  image:int array ->
  ?mem_words:int ->
  ?strict_landmarks:bool ->
  peers:(int * string) list ->
  pre_state:string ->
  Avm_tamperlog.Entry.t list ->
  print
(** [fp_create] / [fp_feed] / [fp_finish] over a materialized chunk. *)

val key_hex : print -> string
(** Hex of the lookup key (tests, debugging). *)

val chunk_bytes : print -> int
(** Total {!Avm_tamperlog.Entry.wire_size} of the fingerprinted chunk —
    what a hit saves re-walking at instruction level. *)

(** {1 The memo protocol}

    The one protocol every cached replay path runs — batch replay
    ({!Replay.replay_chunks}), spot checks ({!Spot_check.check_chunk})
    and online sessions ({!Online_audit.Session}): {!lookup} once per
    chunk; on [Hit] the chunk is verified; otherwise replay it (under
    {!measure_replay}) and {!settle} with the result. A hit
    reconstructs the original replay's counts, so every verdict is
    byte-identical cache-on vs cache-off, except against a poisoned
    entry on a fingerprint that is not spot-designated — the window
    the seeded spot checks bound. *)

type cached = { instructions : int; entries_consumed : int }
(** What the original verified replay measured — a hit reconstructs
    the exact [Replay.Verified] payload, so verdict vectors are
    byte-identical cache-on vs cache-off. *)

type lookup =
  | Off  (** no cache, or the kill switch is off: replay, settle nothing *)
  | Hit of cached  (** verified without replay *)
  | Spot of t * print * cached  (** designated: replay fully, then {!settle} *)
  | Miss of t * print  (** replay, then {!settle} *)

val lookup : t option -> fuel:int -> (unit -> print) -> lookup
(** Fingerprint the chunk (the thunk is forced only when a cache is
    present and enabled) and look it up. [Hit c]: fingerprint present
    and {e both} claim digests equal the cached ones. [Spot]: same, but
    this fingerprint is designated for spot-check replay. [Miss]:
    absent, claims differ (counted under
    [replay.cache_claim_mismatches]), or the cached replay needed more
    than [fuel] instructions. Bumps [replay.cache_hits] /
    [replay.cache_misses] / [replay.cache_spot_checks] /
    [replay.cache_bytes_saved]. A key that an {!exclusive} caller is
    replaying is looked up only once that caller has settled it;
    [lookup] itself marks nothing. *)

val exclusive : t option -> fuel:int -> (unit -> print) -> (lookup -> 'a) -> 'a
(** [exclusive cache ~fuel print f] is [f (lookup cache ~fuel print)]
    with the key marked in flight while [f] replays a [Spot] or [Miss]
    ([f] must {!settle} before it returns). A concurrent lookup of a
    key in flight waits until the mark is dropped, then looks the key
    up afresh and finds what the first replay remembered (nothing,
    after a divergence). Each key is thus decided against the same
    table contents on one lane or several, and hit, miss and spot
    counts do not depend on the lane count. The mark is dropped
    however [f] returns, exceptions included. Batch replay and spot
    checks use it; an online session, whose replay of a chunk spans
    calls, uses {!lookup}. *)

val settle : lookup -> emitted:bool -> cached option -> unit
(** Report the replay of a [Spot] or [Miss] chunk: [Some counts] if it
    verified, [None] if it diverged; [emitted] comes from
    {!measure_replay}. A spot check whose replay does not reproduce the
    cached counts means the table lied: the entry is evicted and
    [replay.cache_poisoned] bumped. A verified miss is remembered. A
    no-op on [Off] and [Hit]. *)

val remember :
  t -> print -> ?peers_sensitive:bool -> instructions:int -> entries_consumed:int ->
  unit -> unit
(** Store the result of a full {e verified} replay of [print] — what
    {!settle} does for a verified miss. Only
    verified outcomes may be remembered (divergences must re-replay
    everywhere — they are evidence, not overhead).

    [peers_sensitive] (default [true], the conservative choice) says
    whether that replay emitted any guest packet. The peer map is the
    one execution input kept {e out} of the fingerprint key — it only
    matters when packets are emitted, and fleet nodes all have
    different witness maps, so folding it into the key would kill
    cross-node dedup of the idle majority. Instead the rememberer's
    peers digest is stored with the entry and enforced on hit only
    when [peers_sensitive]; emission is itself determined by the
    fingerprint, so fingerprint-equal chunks agree on the flag. Use
    {!measure_replay} to compute it. *)

val note_packet_emitted : unit -> unit
(** Called by the replay engine once per guest packet emission (mapped
    to a peer or not); feeds {!measure_replay}. *)

val measure_replay : (unit -> 'a) -> 'a * bool
(** Run a replay thunk and report whether it emitted guest packets
    (the calling domain's {!note_packet_emitted} delta around the
    call: replays on other domains do not count). *)

(** {1 Verified states}

    The states the auditor has itself verified against a logged
    [Snapshot_ref] digest, so that a spot check starting from one need
    not download, rebuild and re-hash it (DESIGN.md §24). A state gets
    in only after the auditor recomputed its digest: a download that
    {!Spot_check.authenticate} accepted, or the machine a [Verified]
    replay left at the chunk's closing [Snapshot_ref]. A stored
    machine is never run: callers copy it ({!Avm_machine.Machine.copy})
    before replaying. The table is FIFO within {!state_budget};
    {!clear} and {!set_enabled} cover it, and [replay_cache.states]
    gauges its size.

    A chunk that starts from a remembered state fetches no snapshot,
    just as a [Hit] fetches none, so a target's forged snapshot is
    reported only by a job that needs the download. Whether a given
    job does depends on what earlier jobs, on any lane, left in the
    table: for a target that serves a snapshot its log does not
    commit to, the [Snapshot_mismatch] can move between its jobs with
    the lane count. Verdicts on targets whose snapshots match their
    logs do not depend on the table. *)

val find_state : t -> digest:string -> at_icount:int -> Avm_machine.Machine.t option
(** The remembered state whose digest, taken at [at_icount], is
    [digest]. [None] when absent, when it was stored for another
    [at_icount], or when the kill switch is off. The result is shared:
    do not mutate it. *)

val remember_state : t -> digest:string -> at_icount:int -> Avm_machine.Machine.t -> bool
(** [remember_state t ~digest ~at_icount m] stores [m], whose digest
    {!Avm_machine.Snapshot.machine_digest} [~at_icount m] the caller
    has just computed and found equal to [digest]. [true] means the
    table now owns [m] and the caller must not touch it again;
    [false] (digest already present, [m] larger than the budget, or
    the kill switch off) leaves [m] with the caller. Evicts the oldest
    states to stay within the budget. *)

val states : t -> int
(** Number of states held. *)

type stats = {
  hits : int;
  misses : int;
  spot_checks : int;
  claim_mismatches : int;
  poisoned : int;
  bytes_saved : int;
  instructions_saved : int;
}

val stats : t -> stats
(** This instance's counters (the [replay.cache_*] metrics aggregate
    across instances). *)
