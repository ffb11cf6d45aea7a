(** Sealed log segments: the unit of storage and of audit transfer.

    A sealed segment is an immutable run of consecutive entries plus an
    index record ({!info}) that answers the auditor's planning queries —
    coverage, chain endpoints, transfer cost, snapshot boundaries —
    without touching entry data. Two backends: [Memory] keeps the
    entries verbatim (stored hashes preserved, so tampered chains
    survive a round trip); [Compressed] stores the body-only wire form
    packed with {!Avm_compress.Codec} and recomputes hashes from
    [info.prev_hash] on inflation. *)

type backend = Memory | Compressed

val backend_name : backend -> string

type info = {
  first_seq : int;
  last_seq : int;
  prev_hash : string;  (** chain hash immediately before [first_seq] *)
  head_hash : string;  (** hash of entry [last_seq] *)
  byte_size : int;  (** uncompressed wire size of the entries *)
  snapshot_boundary : (int * int * int) option;
      (** [(entry_seq, snapshot_seq, at_icount)] when the segment was
          sealed at a [Snapshot_ref] entry *)
}

type repr = Entries of Entry.t array | Blob of string
type seg = { info : info; repr : repr }

val seal : backend -> info:info -> Entry.t array -> seg
(** Seal a run of entries. With [Compressed], the run must be honestly
    chained from [info.prev_hash]: hashes are not stored and are
    recomputed on {!inflate}. *)

val inflate : seg -> Entry.t array
(** Materialize the entries (decompressing if needed). A blob is
    checked against its index record: inflation is capped at the exact
    length the record implies, and the decoded entries must match its
    count, [first_seq] and [head_hash].
    @raise Avm_compress.Codec.Corrupt or [Avm_util.Wire.Malformed] on a
    damaged blob or one that does not match [info]. *)

val stored_bytes : seg -> int
(** Bytes the segment occupies at rest. *)

val transfer_bytes : seg -> int
(** Compressed bytes an auditor downloads for this segment (the
    resident blob, or a transient compression of a memory segment). *)

val encode_entries : Entry.t list -> string
(** Body-only wire form shared with [Log.encode_segment]. *)

val decode_entries : prev:string -> string -> Entry.t list
