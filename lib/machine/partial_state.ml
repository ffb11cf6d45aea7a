type page = { index : int; data : string; proof : Avm_crypto.Merkle.proof }

type t = { root : string; page_count : int; meta : string; pages : page list }

let extract machine ~pages =
  let mem = Machine.mem machine in
  let n = Memory.page_count mem in
  let tree = Memory.merkle mem in
  let wanted = List.sort_uniq compare (List.filter (fun p -> p >= 0 && p < n) pages) in
  {
    root = Avm_crypto.Merkle.root tree;
    page_count = n;
    meta = Machine.serialize_meta machine;
    pages =
      List.map
        (fun index ->
          { index; data = Memory.page_data mem index; proof = Avm_crypto.Merkle.prove tree index })
        wanted;
  }

let verify t ~expected_root =
  String.equal t.root expected_root
  && List.for_all
       (fun p ->
         p.proof.Avm_crypto.Merkle.index = p.index
         && Avm_crypto.Merkle.verify_proof ~root:expected_root ~leaf_count:t.page_count
              ~leaf:p.data p.proof)
       t.pages

let write_proof w (p : Avm_crypto.Merkle.proof) =
  Avm_util.Wire.varint w p.Avm_crypto.Merkle.index;
  Avm_util.Wire.list w (fun w h -> Avm_util.Wire.bytes w h) p.Avm_crypto.Merkle.path

let read_proof r =
  let index = Avm_util.Wire.read_varint r in
  let path = Avm_util.Wire.read_list r Avm_util.Wire.read_bytes in
  { Avm_crypto.Merkle.index; path }

let encode t =
  let open Avm_util in
  let w = Wire.writer () in
  Wire.bytes w t.root;
  Wire.varint w t.page_count;
  Wire.bytes w t.meta;
  Wire.list w
    (fun w p ->
      Wire.varint w p.index;
      Wire.bytes w p.data;
      write_proof w p.proof)
    t.pages;
  Wire.contents w

let decode s =
  let open Avm_util in
  let r = Wire.reader s in
  let root = Wire.read_bytes r in
  let page_count = Wire.read_varint r in
  let meta = Wire.read_bytes r in
  let pages =
    Wire.read_list r (fun r ->
        let index = Wire.read_varint r in
        let data = Wire.read_bytes r in
        let proof = read_proof r in
        { index; data; proof })
  in
  Wire.expect_end r;
  { root; page_count; meta; pages }

let disclosed_bytes t = String.length (encode t)
