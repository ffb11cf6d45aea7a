(** Merkle hash trees over snapshot pages (paper §4.4).

    The AVMM maintains a hash tree over the AVM's state pages; after
    each snapshot it records the root in the tamper-evident log. An
    auditor who downloads only the pages touched during replay can
    authenticate them against the root with {!verify_proof}, and prune
    the rest for privacy (paper §7.3). *)

type t
(** An immutable tree over a fixed, ordered list of leaves. *)

val of_leaves : string list -> t
(** [of_leaves pages] builds the tree over the given page payloads
    (each leaf is hashed; interior nodes hash child digests with
    distinct domain-separation tags). An empty list yields a
    well-defined sentinel root. *)

val of_leaf_hashes : string list -> t
(** Like {!of_leaves} for callers that already hold the 32-byte leaf
    digests. *)

val root : t -> string
(** 32-byte root digest. *)

val leaf_count : t -> int

val leaf_hash : string -> string
(** [leaf_hash page] is the domain-separated digest of a page. *)

val leaf_hash_bytes : Bytes.t -> string
(** [leaf_hash_bytes b] is [leaf_hash (Bytes.to_string b)] without the
    copy. *)

val node_hash : string -> string -> string
(** [node_hash left right] is the interior node over two child
    digests. A node without a right sibling is promoted unchanged, so
    callers that keep their own interior nodes ({!Avm_machine.Memory})
    reproduce {!of_leaf_hashes} exactly. *)

type proof = { index : int; path : string list }
(** Authentication path from leaf [index] to the root; [path] lists the
    sibling digest at each level, bottom-up. *)

val prove : t -> int -> proof
(** [prove t i] is the inclusion proof for leaf [i].
    @raise Invalid_argument if [i] is out of range. *)

val verify_proof : root:string -> leaf_count:int -> leaf:string -> proof -> bool
(** [verify_proof ~root ~leaf_count ~leaf p] checks that [leaf] (the
    page payload) sits at [p.index] in a tree with the given root. *)
