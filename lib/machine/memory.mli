(** Word-addressed guest memory with per-page write stamps and a
    per-page Merkle leaf-hash cache.

    Pages are {!page_size} words. Every write stamps its page with the
    value of a per-memory clock. Two things read the stamps:

    - incremental snapshots ({!Snapshot}): a snapshot ships the pages
      stamped since its tracker's last {!mark};
    - the leaf-hash cache: each page's {!Avm_crypto.Merkle.leaf_hash}
      is computed once and reused until the page is written again, and
      each interior node of the tree is kept until one of its children
      is rehashed. {!root} therefore rehashes only the pages written
      since the previous digest and their ancestors. Every state
      digest in the system (AVMM snapshots, replay checks,
      downloaded-state authentication) reads this cache. *)

type t

val page_size : int
(** 256 words (1 KiB). *)

val create : words:int -> t
(** Zero-filled memory of at least [words] words (rounded up to whole
    pages). *)

val size : t -> int
(** Capacity in words. *)

val page_count : t -> int

exception Fault of int
(** Out-of-range access; carries the offending address. *)

val read : t -> int -> int
(** [read m addr] is the 32-bit word at [addr].
    @raise Fault when out of range. *)

val words : t -> int array
(** The word array, for the interpreter's bounds-checked fetches and
    loads. Read only: a store through it skips stamp and watch hook. *)

val write : t -> int -> int -> unit
(** [write m addr v] stores the low 32 bits of [v] and stamps the
    page.
    @raise Fault when out of range. *)

val load_image : t -> int array -> unit
(** [load_image m words] copies a program image to address 0.
    @raise Fault if the image does not fit. *)

val page_data : t -> int -> string
(** [page_data m p] serializes page [p] (little-endian words). *)

val set_page_data : t -> int -> string -> unit
(** Inverse of {!page_data}; stamps the page.
    @raise Invalid_argument on wrong length. *)

val install_page : t -> int -> string -> leaf:string -> unit
(** [install_page m p data ~leaf] is {!set_page_data} for a page whose
    leaf hash the caller already holds: [leaf] becomes the cached hash
    of page [p]. The caller guarantees
    [leaf = Avm_crypto.Merkle.leaf_hash data] ({!Snapshot} derives it
    from the page bytes it carries).
    @raise Invalid_argument on wrong length. *)

(** {1 Leaf-hash cache} *)

val leaf_hash : t -> int -> string
(** [leaf_hash m p] is the Merkle leaf hash of page [p], rehashed from
    the words only if the page was written since it was last hashed.
    Each rehash bumps the [memory.pages_hashed] counter. *)

val merkle : t -> Avm_crypto.Merkle.t
(** The Merkle tree over every page's cached leaf hash (stale pages
    are rehashed first). Equal to
    [Merkle.of_leaves (List.init (page_count m) (page_data m))]. *)

val root : t -> string
(** [Merkle.root (merkle m)], from the cached interior nodes: only the
    ancestors of pages rehashed since the last root are recomputed,
    each counted under [memory.nodes_hashed]. *)

(** {1 Write clock} *)

val mark : t -> int
(** [mark m] advances the clock and returns a mark: every page written
    after this call is in [written_since m mark]. *)

val written_since : t -> int -> int list
(** [written_since m mark] is the pages written (by {!write},
    {!set_page_data}, {!install_page} or {!load_image}) after the
    {!mark} call that returned [mark], ascending. *)

val copy : t -> t
(** Deep copy (stamps, clock and both hash caches included; the watch
    hook is not copied). *)

val assign : dst:t -> t -> unit
(** [assign ~dst src] makes [dst] a copy of [src] in place, as {!copy}
    would, without allocating: word arrays are copied by a typed loop
    rather than a per-element [caml_modify]. The watch hook of [dst]
    is cleared.
    @raise Invalid_argument if the page counts differ. *)

val set_watch : t -> (int -> old:int -> value:int -> unit) option -> unit
(** [set_watch m hook] installs (or clears) a write observer, invoked
    on every {!write} with the address, previous and new value. Used
    by replay-time analyses ({!Avm_analysis.Watchpoints}); costs one
    branch per write when unset. *)
