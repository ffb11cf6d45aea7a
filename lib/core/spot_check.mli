(** Spot checking: auditing k consecutive inter-snapshot segments
    instead of the whole log (paper §3.5, §6.12).

    The log is divided into {e segments} by its Snapshot_ref entries;
    [k] consecutive segments form a {e k-chunk}. To check a chunk the
    auditor downloads the machine state at the chunk's first snapshot
    (authenticated against the logged digest — {!authenticate}), the
    compressed log segment, and replays it. Cost is therefore a fixed
    part (state transfer, decompression) plus a part linear in [k] —
    Figure 9. A check pays for the download, the fingerprint, the two
    state digests and the replay; what the log range would cost to
    ship is left to the caller that prints it (DESIGN.md §23). With a
    {!Replay_cache}, a chunk that starts from a state the auditor has
    already verified restores that state instead of downloading it
    (DESIGN.md §24). *)

type boundary = { entry_seq : int; snapshot_seq : int; at_icount : int }

val boundaries : Avm_tamperlog.Log.t -> boundary list
(** The Snapshot_ref entries of a log, in order. *)

type plan
(** A prepared audit plan over one log + snapshot set: the boundary
    index as an array/hashtable (O(1) lookup instead of a list scan
    per chunk) and the snapshot chain sorted and filtered {e once}, on
    the first download, so each chunk slices a prefix instead of
    re-filtering the full snapshot list. Build it once and pass it to
    every chunk check of the same session. Safe to share across
    worker domains. *)

val plan : log:Avm_tamperlog.Log.t -> snapshots:Avm_machine.Snapshot.t list -> plan
val plan_boundaries : plan -> boundary list

val chunk_bounds :
  plan -> start_snapshot:int -> k:int -> (boundary * boundary, string) result
(** The boundaries that open and close the k-chunk starting at
    snapshot [start_snapshot]; [Error] names a snapshot the log does
    not index. *)

(** {1 Authenticating downloaded state} *)

type authenticated =
  | Verified of Avm_machine.Machine.t  (** the state the log committed to *)
  | Forged of Replay.divergence
      (** a download that does not materialize (a page index out of
          range, a page of the wrong length, unparsable meta-state) or
          whose materialized state's digest differs from the logged
          one — a [Snapshot_mismatch] divergence, itself evidence *)
  | Unavailable of string
      (** the snapshot at the boundary was not supplied (yet): no
          verdict either way *)

val authenticate :
  image:int array ->
  ?mem_words:int ->
  chain:Avm_machine.Snapshot.t list ->
  digest:string ->
  boundary ->
  authenticated
(** Materialize the state at boundary [b] from [chain] (ascending, as
    {!Avm_machine.Snapshot.chain_upto} returns it; its last snapshot
    must be [b.snapshot_seq]) and check it against [digest], the
    Snapshot_ref digest logged at [b]. The one state-transfer check
    shared by {!check_chunk} and {!Online_audit.Session}'s re-seating
    after a cache hit. *)

(** {1 Chunk checks} *)

type chunk_report = {
  start_snapshot : int;
  k : int;
  first_seq : int;
  last_seq : int;
      (** the chunk's entry range, [first_seq..last_seq]: the log the
          auditor ships with the state. The check does not price it; a
          caller that prints a transfer size does (DESIGN.md §23). *)
  state_bytes : int;
      (** authenticated state downloaded at chunk start; 0 when nothing
          was downloaded: a forged download or a cache hit (nothing
          replayed, so no log range shipped either), or a replay that
          started from a state the cache had already verified (the log
          range did ship) *)
  replay_instructions : int;
  outcome : Replay.outcome;
}

val check_chunk :
  ?plan:plan ->
  ?cache:Replay_cache.t ->
  image:int array ->
  mem_words:int ->
  snapshots:Avm_machine.Snapshot.t list ->
  log:Avm_tamperlog.Log.t ->
  peers:(int * string) list ->
  start_snapshot:int ->
  k:int ->
  unit ->
  (chunk_report, string) result
(** [check_chunk ~start_snapshot ~k ...] audits the k-chunk beginning
    at snapshot [start_snapshot]: {!authenticate} the downloaded state,
    then replay. A forged snapshot is reported as a [Snapshot_mismatch]
    divergence. [Error] means the chunk could not be checked at all:
    the log has no boundary at [start_snapshot] or [start_snapshot + k],
    or [snapshots] lacks the state at the chunk start. Pass [?plan]
    (built once) when checking many chunks of the same session —
    otherwise each call rebuilds the boundary index and re-sorts the
    snapshot chain.

    With [cache], the chunk is fingerprinted against the {e logged}
    boundary digest (no state materialized) and the {!Replay_cache}
    protocol applies ({!Replay_cache.exclusive}): a hit skips the state
    download and the replay outright — the fleet dedup fast path —
    which is sound because entries are only remembered after a miss
    authenticated that same claimed digest. A chunk that must replay
    starts from the cache's verified state at its opening digest when
    there is one ({!Replay_cache.find_state}), and a verified replay
    leaves its closing state there for the next chunk. Whether the
    snapshot at the chunk start was served is checked before the
    cache is consulted, so a withheld one is [Error] whatever the
    cache holds, a hit included. A forged download is then only seen when the state is not
    already known: with a warm table, a chunk whose target serves a
    forged snapshot at a digest the table holds replays from the
    remembered state and is judged on its log alone, as a hit is.
    The
    [Snapshot_mismatch] for a forged download therefore depends on
    which chunks the cache has seen before, and with several lanes on
    their order ({!Replay_cache.find_state}).

    Each check adds its stages, in rounded microseconds, to the
    counters [spot_check.fingerprint_us] (cached checks only),
    [spot_check.restore_us] (a remembered state restored, or a
    download rebuilt), [spot_check.pre_digest_us] (authenticating a
    download), [spot_check.replay_us] and [spot_check.post_digest_us]
    (the state digests replay recomputes); [spot_check.states_reused]
    counts the chunks that started from a remembered state. *)
