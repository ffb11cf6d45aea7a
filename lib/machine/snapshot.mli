(** Incremental snapshots of AVM state with a Merkle hash tree
    (paper §4.4, "Snapshots").

    A snapshot carries the pages written since the previous one (all
    pages for the first), the machine meta-state, and the Merkle root
    over {e all} pages at that instant; the AVMM records
    {!state_digest} in the tamper-evident log, and audits verify both
    downloaded snapshots and replayed executions against it.

    Page hashing is {!Memory}'s job: its write stamps tell a
    {!tracker} which pages changed, and its leaf-hash cache means a
    snapshot or digest rehashes only pages written since they were
    last hashed. Each shipped page carries its own leaf hash so that
    {!materialize} can install it into the rebuilt memory's cache. The
    type is [private] so the hash can only come from {!take} (the
    AVMM's cache) or {!decode} (hashed from the received bytes, never
    read from the wire): a page never travels with a hash of other
    bytes. *)

type page = { index : int; data : string; leaf : string }
(** A shipped page: its index, its {!Memory.page_data} bytes and
    [leaf = Avm_crypto.Merkle.leaf_hash data]. *)

type t = private {
  seq : int;  (** 0-based snapshot number *)
  at_icount : int;  (** instruction count when taken *)
  meta : string;  (** {!Machine.serialize_meta} at that instant *)
  pages : page list;  (** pages written since snapshot [seq-1] *)
  full : bool;  (** [true] for the first snapshot (all pages present) *)
  root : string;  (** Merkle root over all page hashes *)
  page_count : int;
}

type tracker

val tracker : unit -> tracker
(** A fresh tracker; its first {!take} produces a full snapshot. *)

val take : tracker -> Machine.t -> t
(** [take tr m] snapshots [m]'s current state: the pages stamped since
    [tr]'s previous take, with their cached leaf hashes. Must be called
    with the same machine each time. *)

val state_digest : t -> string
(** [H(meta || root || at_icount)]: the value the AVMM logs. *)

val machine_digest : at_icount:int -> Machine.t -> string
(** The same digest over a live machine's meta-state and cached Merkle
    root: what replay recomputes at a Snapshot_ref and what a
    downloaded state is authenticated against. *)

val size_bytes : t -> int
(** Serialized size, the unit of Figure 9's transfer costs. *)

type image_diff
(** A machine's state tracked as the pages that differ from its boot
    image. *)

val image_diff : image:int array -> image_diff
(** A tracker for one machine booted from [image]. *)

val of_image_diff : image_diff -> seq:int -> Machine.t -> t
(** [of_image_diff d ~seq m] is [m]'s state as one snapshot numbered
    [seq]: its meta-state and only the pages that differ from the
    image, so that [materialize ~image [s]] (at [m]'s memory size)
    rebuilds it. Only the pages [m] wrote since the previous call on
    [d] (every page on the first) are compared again. Evidence ships a
    chunk's start state this way. *)

val encode : t -> string
val decode : string -> t
(** Hashes each page once on arrival. Page indices and lengths are not
    checked here; {!materialize} rejects bad ones.
    @raise Avm_util.Wire.Malformed on garbage. *)

val chain_upto : t list -> int -> t list
(** [chain_upto snapshots upto] is the snapshots with [seq <= upto] in
    ascending-seq order — the pre-filtered chain {!materialize}
    expects. Callers replaying many chunks should build the sorted
    chain once and slice prefixes instead of calling this per chunk. *)

val materialize : ?mem_words:int -> image:int array -> t list -> (Machine.t, string) result
(** [materialize ~mem_words ~image chain] reconstructs the machine at
    the last snapshot of [chain] by starting from [image] and applying
    each snapshot's page deltas in order (the chain must be ascending
    and start with a full snapshot or cover every changed page since
    boot — see {!chain_upto}). Each page is installed together with
    its leaf hash, so the rebuilt memory's cache starts warm.
    [Error] names the snapshot (and page) when a page index is out of
    range, a page is not {!Memory.page_size} words long, or the
    meta-state does not parse.
    @raise Invalid_argument on an empty chain. *)

val verify : Machine.t -> expected_root:string -> bool
(** [verify m ~expected_root] compares [m]'s cached Merkle root with
    [expected_root]. *)
