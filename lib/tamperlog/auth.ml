type t = {
  node : string;
  seq : int;
  hash : string;
  prev_hash : string;
  tag : int;
  content_digest : string;
  signature : string;
}

let signed_payload ~node ~seq ~hash =
  let w = Avm_util.Wire.writer () in
  Avm_util.Wire.bytes w "avm-authenticator";
  Avm_util.Wire.bytes w node;
  Avm_util.Wire.varint w seq;
  Avm_util.Wire.bytes w hash;
  Avm_util.Wire.contents w

let make identity ~entry ~prev_hash =
  let { Entry.seq; content; hash; _ } = entry in
  let node = Avm_crypto.Identity.name identity in
  {
    node;
    seq;
    hash;
    prev_hash;
    tag = Entry.type_tag content;
    content_digest = Entry.content_digest content;
    signature = Avm_crypto.Identity.sign identity (signed_payload ~node ~seq ~hash);
  }

let hash_consistent a =
  String.equal a.hash
    (Entry.chain_hash_raw ~prev:a.prev_hash ~seq:a.seq ~tag:a.tag
       ~content_digest:a.content_digest)

let verify cert a =
  String.equal (Avm_crypto.Identity.cert_name cert) a.node
  && hash_consistent a
  && Avm_crypto.Identity.verify cert
       ~msg:(signed_payload ~node:a.node ~seq:a.seq ~hash:a.hash)
       ~signature:a.signature

let matches_content a content =
  a.tag = Entry.type_tag content
  && String.equal a.content_digest (Entry.content_digest content)
  && hash_consistent a

let matches_send a ~payload ~dest ~nonce =
  matches_content a (Entry.Send { dest; nonce; payload })

let matches_entry a (e : Entry.t) = a.seq = e.seq && String.equal a.hash e.hash

let conflicts a b =
  String.equal a.node b.node && a.seq = b.seq && not (String.equal a.hash b.hash)

let write w a =
  let open Avm_util in
  Wire.bytes w a.node;
  Wire.varint w a.seq;
  Wire.bytes w a.hash;
  Wire.bytes w a.prev_hash;
  Wire.u8 w a.tag;
  Wire.bytes w a.content_digest;
  Wire.bytes w a.signature

let read r =
  let open Avm_util in
  let node = Wire.read_bytes r in
  let seq = Wire.read_varint r in
  let hash = Wire.read_bytes r in
  let prev_hash = Wire.read_bytes r in
  let tag = Wire.read_u8 r in
  let content_digest = Wire.read_bytes r in
  let signature = Wire.read_bytes r in
  { node; seq; hash; prev_hash; tag; content_digest; signature }

let encode a =
  let w = Avm_util.Wire.writer () in
  write w a;
  Avm_util.Wire.contents w

let decode s =
  let r = Avm_util.Wire.reader s in
  let a = read r in
  Avm_util.Wire.expect_end r;
  a

let wire_size a = String.length (encode a)

let pp fmt a =
  Format.fprintf fmt "@[<h>auth{%s #%d h=%s}@]" a.node a.seq (Avm_util.Hex.short a.hash)
