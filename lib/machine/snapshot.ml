module Merkle = Avm_crypto.Merkle

type page = { index : int; data : string; leaf : string }

type t = {
  seq : int;
  at_icount : int;
  meta : string;
  pages : page list;
  full : bool;
  root : string;
  page_count : int;
}

type tracker = { mutable mark : int; mutable next_seq : int }

let tracker () = { mark = 0; next_seq = 0 }

let take tr machine =
  let mem = Machine.mem machine in
  let n = Memory.page_count mem in
  let full = tr.next_seq = 0 in
  let changed = if full then List.init n Fun.id else Memory.written_since mem tr.mark in
  tr.mark <- Memory.mark mem;
  let root = Memory.root mem in
  let pages =
    List.map
      (fun index -> { index; data = Memory.page_data mem index; leaf = Memory.leaf_hash mem index })
      changed
  in
  let seq = tr.next_seq in
  tr.next_seq <- seq + 1;
  {
    seq;
    at_icount = Machine.icount machine;
    meta = Machine.serialize_meta machine;
    pages;
    full;
    root;
    page_count = n;
  }

(* The digest a Snapshot_ref seals, for a shipped snapshot and for a
   live machine alike. *)
let digest ~meta ~root ~at_icount =
  Avm_crypto.Sha256.digest_list [ meta; root; string_of_int at_icount ]

let state_digest t = digest ~meta:t.meta ~root:t.root ~at_icount:t.at_icount

let machine_digest ~at_icount machine =
  digest ~meta:(Machine.serialize_meta machine) ~root:(Memory.root (Machine.mem machine))
    ~at_icount

let encode t =
  let open Avm_util in
  let w = Wire.writer () in
  Wire.varint w t.seq;
  Wire.varint w t.at_icount;
  Wire.bytes w t.meta;
  Wire.bool w t.full;
  Wire.bytes w t.root;
  Wire.varint w t.page_count;
  Wire.list w
    (fun w pg ->
      Wire.varint w pg.index;
      Wire.bytes w pg.data)
    t.pages;
  Wire.contents w

(* Leaves are derived from the received bytes, never read off the
   wire: a [t] can only carry the hash of the page it ships. *)
let decode s =
  let open Avm_util in
  let r = Wire.reader s in
  let seq = Wire.read_varint r in
  let at_icount = Wire.read_varint r in
  let meta = Wire.read_bytes r in
  let full = Wire.read_bool r in
  let root = Wire.read_bytes r in
  let page_count = Wire.read_varint r in
  let pages =
    Wire.read_list r (fun r ->
        let index = Wire.read_varint r in
        let data = Wire.read_bytes r in
        { index; data; leaf = Merkle.leaf_hash data })
  in
  Wire.expect_end r;
  { seq; at_icount; meta; pages; full; root; page_count }

let size_bytes t = String.length (encode t)

(* A machine's state over the boot image: the pages it has changed
   from it. Each call rescans only the pages written since the last
   (all of them the first time), so a caller refreshing the state at
   every chunk boundary pays for the pages the chunk wrote. *)
type image_diff = { image : int array; changed : (int, page) Hashtbl.t; mutable since : int }

let image_diff ~image = { image; changed = Hashtbl.create 16; since = 0 }

let of_image_diff d ~seq machine =
  let mem = Machine.mem machine and ps = Memory.page_size in
  let words = Memory.words mem and len = Array.length d.image in
  let differs i =
    let j = ref (i * ps) and hi = (i + 1) * ps in
    while !j < hi && words.(!j) = if !j < len then d.image.(!j) land 0xffffffff else 0 do incr j done;
    !j < hi
  in
  List.iter
    (fun i ->
      if differs i then
        Hashtbl.replace d.changed i
          { index = i; data = Memory.page_data mem i; leaf = Memory.leaf_hash mem i }
      else Hashtbl.remove d.changed i)
    (Memory.written_since mem d.since);
  d.since <- Memory.mark mem;
  let pages = List.sort compare (List.of_seq (Hashtbl.to_seq_values d.changed)) in
  { seq; at_icount = Machine.icount machine; meta = Machine.serialize_meta machine; pages;
    full = false; root = Memory.root mem; page_count = Memory.page_count mem }

(* Snapshots with seq <= upto, in the ascending-seq order [materialize]
   applies them. Callers replaying many chunks should sort/filter once
   and slice prefixes rather than calling this per chunk. *)
let chain_upto snapshots upto =
  List.sort
    (fun a b -> compare a.seq b.seq)
    (List.filter (fun s -> s.seq <= upto) snapshots)

exception Bad_snapshot of string

let materialize ?mem_words ~image chain =
  let last =
    match List.rev chain with
    | [] -> invalid_arg "Snapshot.materialize: empty chain"
    | last :: _ -> last
  in
  let machine =
    match mem_words with
    | Some w -> Machine.create ~mem_words:w image
    | None -> Machine.create image
  in
  let mem = Machine.mem machine in
  let n = Memory.page_count mem in
  let install snap pg =
    let bad what =
      raise (Bad_snapshot (Printf.sprintf "snapshot %d page %d: %s" snap.seq pg.index what))
    in
    if pg.index < 0 || pg.index >= n then bad (Printf.sprintf "index out of range (%d pages)" n);
    if String.length pg.data <> Memory.page_size * 4 then
      bad (Printf.sprintf "%d bytes, not %d" (String.length pg.data) (Memory.page_size * 4));
    Memory.install_page mem pg.index pg.data ~leaf:pg.leaf
  in
  match
    List.iter (fun snap -> List.iter (install snap) snap.pages) chain;
    try Machine.restore_meta machine last.meta
    with Avm_util.Wire.Truncated | Avm_util.Wire.Malformed _ ->
      raise (Bad_snapshot (Printf.sprintf "snapshot %d: malformed machine state" last.seq))
  with
  | () -> Ok machine
  | exception Bad_snapshot msg -> Error msg

let verify machine ~expected_root = String.equal (Memory.root (Machine.mem machine)) expected_root
