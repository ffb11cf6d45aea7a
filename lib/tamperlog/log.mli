(** The append-only tamper-evident log (paper §4.3), stored as an
    active tail plus sealed segments.

    A hash chain of {!Entry.t}. Appending seals each entry against the
    current head; {!verify_segment} recomputes the chain and is the
    auditor's first line of defence against forged, reordered, omitted
    or modified entries.

    Storage is segment-oriented, matching the auditor workflow of paper
    §3.3–§3.5: the tail of recent entries is sealed into an immutable
    {!Segment_store.seg} when it reaches [seal_every] entries or when a
    [Snapshot_ref] is appended, so segments are bounded by snapshots
    exactly where spot-check auditors cut the log. With the
    [Compressed] backend, sealed segments live compressed at rest and
    are only inflated while a reader streams across them.

    {b The newest sealed segment.} Sealing keeps the entry array it
    built, and every reader serves that segment from it instead of
    inflating: a reader crossing a fresh seal (an online auditor) gets
    the same {!Entry.t} values, decoder marks included, it would have
    read from the tail. The array is RAM, like the inflate cache, not
    stored data ({!stored_bytes} and {!transfer_bytes} ignore it), and
    holds one segment at most. Tamper operations drop it; {!fork}
    keeps it. Reads it serves count as [log.newest_segment_hits]. *)

type t

val create : ?backend:Segment_store.backend -> ?seal_every:int -> unit -> t
(** An empty log; [h_0] is 32 zero bytes. [backend] (default [Memory])
    selects how sealed segments are stored; [seal_every] (default 1024)
    caps the tail length before a size-triggered seal. *)

val of_entries : ?seal_every:int -> Entry.t list -> t
(** Load an externally produced, already-hashed run (e.g. a recording)
    into a segmented store. Sequence numbers must be contiguous from 1.
    Always uses the [Memory] backend: stored hashes are preserved
    verbatim, and so are the entries' decoder marks
    ([Entry.t.derived_from]), so a tampered chain stays tampered for
    the audit to find. *)

val genesis_hash : string
(** [h_0]. *)

val append : t -> Entry.content -> Entry.t
(** [append log c] seals and stores the next entry. *)

val seal_active : t -> unit
(** Seal the current tail into a segment now (no-op on an empty tail). *)

val length : t -> int
(** Number of entries; also the head sequence number (seqs start
    at 1). *)

val head_hash : t -> string
(** [h_i] of the newest entry, or {!genesis_hash} when empty. *)

val entry : t -> int -> Entry.t
(** [entry log seq] fetches by sequence number, inflating (and caching)
    the covering segment if it is compressed and not the newest.
    @raise Invalid_argument if out of range. *)

val prev_hash : t -> int -> string
(** [prev_hash log seq] is [h_{seq-1}] ({!genesis_hash} for [seq = 1]).
    Segment boundaries are answered from the index without inflating. *)

val segment : t -> from:int -> upto:int -> Entry.t list
(** Entries with [from <= seq <= upto] (inclusive; both clamped to
    valid range), materialized as a list. Prefer the streaming readers
    below for audit-sized ranges. *)

(** {1 Streaming readers}

    The audit pipeline consumes the log one sealed segment at a time:
    compressed segments are inflated only while the consumer is inside
    them, never all at once. *)

val chunk_seq : t -> from:int -> upto:int -> Entry.t list Seq.t
(** One entry list per overlapping sealed segment (tail last), produced
    lazily in log order. *)

val iter_range : t -> from:int -> upto:int -> (Entry.t -> unit) -> unit
val iter : t -> (Entry.t -> unit) -> unit

type chunk_spec = {
  spec_from : int;  (** first seq of the chunk *)
  spec_upto : int;  (** last seq (inclusive) *)
  spec_prev_hash : string;  (** stored chain hash just before [spec_from] *)
  spec_load : unit -> Entry.t list;  (** materialize the chunk's entries *)
}

val chunk_specs : t -> from:int -> upto:int -> chunk_spec list
(** The {!chunk_seq} partition (one chunk per overlapping sealed
    segment, tail last) with the index metadata a {e parallel} auditor
    needs to verify each chunk independently. The load thunks are safe
    to force concurrently from worker domains — inflation goes through
    a per-domain cache — provided the log is not mutated meanwhile. *)

(** {1 Index and accounting} *)

val backend : t -> Segment_store.backend
val segments : t -> Segment_store.info list
(** Index records of the sealed segments, oldest first. *)

val snapshot_index : t -> (int * int * int) list
(** [(entry_seq, snapshot_seq, at_icount)] of every [Snapshot_ref]
    entry, oldest first — maintained on append, no scan needed. *)

val byte_size : t -> int
(** Total uncompressed serialized size of all entries — the "log size"
    of Figures 3/4. *)

val stored_bytes : t -> int
(** Bytes the log occupies at rest (compressed segments count their
    blob size). *)

val compression_ratio : t -> float
(** [byte_size / stored_bytes]; 1.0 for a fully in-memory log. *)

val transfer_bytes : t -> from:int -> upto:int -> int
(** Compressed bytes an auditor downloads to stream [from..upto]:
    resident blobs ship whole (segment granularity), memory segments
    and the tail are compressed transiently. *)

(** {1 Wire form} *)

val encode_segment : Entry.t list -> string
(** Wire format for shipping a segment to an auditor: sequence, type
    and content per entry — no hashes (see {!Entry.write_body}). *)

val encode_range : t -> from:int -> upto:int -> string
(** {!encode_segment} of a range, streamed straight off the segments
    without materializing a list. *)

val decode_segment : prev:string -> string -> Entry.t list
(** [decode_segment ~prev blob] rebuilds the entries, recomputing the
    hash chain from [prev] (the hash preceding the segment;
    {!genesis_hash} for a full log). A transmitted segment's integrity
    is established by matching the rebuilt chain against collected
    authenticators, not by trusting shipped hashes.
    @raise Avm_util.Wire.Malformed on garbage. *)

val verify_segment : prev:string -> Entry.t list -> (unit, string) result
(** [verify_segment ~prev entries] checks the hash chain starting
    from [prev] (the hash of the entry preceding the segment) with
    {!Entry.chain_ok}, so only unmarked links are rehashed, and
    checks sequence numbers are consecutive. Returns a human-readable
    reason on failure. *)

(** {1 Tampering (test / adversary API)}

    A faulty node does not call [append] honestly; these helpers let
    tests and the cheat catalog build bad logs. They first flatten the
    log back into a plain in-memory tail (segments are immutable, and a
    broken chain cannot survive the body-only sealed encoding). *)

val tamper_replace : t -> int -> Entry.content -> unit
(** Overwrite entry [seq] in place {e without} resealing later
    entries — exactly what a naive cheater would do. The new entry is
    built with {!Entry.forge}, so it carries no decoder mark. Disables
    further sealing: the inconsistent chain must stay verbatim. *)

val tamper_truncate : t -> int -> unit
(** Drop all entries after [seq]. *)

val tamper_reseal : t -> int -> Entry.content -> unit
(** Overwrite entry [seq] and recompute every later hash, producing an
    internally consistent — but different — chain. The hash chain
    verifies; only previously issued authenticators expose the fork.
    This is the stronger attacker the paper's authenticators exist
    for. *)

val fork : t -> t
(** An independent copy sharing the prefix — for fork attacks and for
    benches that need a log as it is now: the copy costs the segment
    index and the tail array, no entry data, and later appends to or
    tampering with either log leave the other as it was. *)

val newest_segment : t -> Entry.t array option
(** The entries kept for the newest sealed segment, if any. *)
