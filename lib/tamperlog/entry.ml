type content =
  | Send of { dest : string; nonce : int; payload : string }
  | Recv of { src : string; nonce : int; payload : string; signature : string }
  | Ack of { src : string; acked_seq : int; signature : string }
  | Exec of Avm_machine.Event.t
  | Snapshot_ref of { digest : string; snapshot_seq : int; at_icount : int }
  | Note of string

type t = { seq : int; content : content; hash : string; derived_from : string }

let type_tag = function
  | Send _ -> 1
  | Recv _ -> 2
  | Ack _ -> 3
  | Exec _ -> 4
  | Snapshot_ref _ -> 5
  | Note _ -> 6

let write_content w content =
  let open Avm_util in
  match content with
  | Send { dest; nonce; payload } ->
    Wire.bytes w dest;
    Wire.varint w nonce;
    Wire.bytes w payload
  | Recv { src; nonce; payload; signature } ->
    Wire.bytes w src;
    Wire.varint w nonce;
    Wire.bytes w payload;
    Wire.bytes w signature
  | Ack { src; acked_seq; signature } ->
    Wire.bytes w src;
    Wire.varint w acked_seq;
    Wire.bytes w signature
  | Exec ev -> Avm_machine.Event.write w ev
  | Snapshot_ref { digest; snapshot_seq; at_icount } ->
    Wire.bytes w digest;
    Wire.varint w snapshot_seq;
    Wire.varint w at_icount
  | Note s -> Wire.bytes w s

let content_bytes content =
  let w = Avm_util.Wire.writer () in
  write_content w content;
  Avm_util.Wire.contents w

(* Hashing the chain is the audit engine's innermost loop, so the
   serialized forms below are digested straight from per-domain
   scratch writers — no intermediate strings. *)
let content_scratch = Domain.DLS.new_key (fun () -> Avm_util.Wire.writer ())

let content_digest content =
  let w = Domain.DLS.get content_scratch in
  Avm_util.Wire.reset w;
  write_content w content;
  Avm_crypto.Sha256.digest_buffer (Avm_util.Wire.buffer w)

let content_of_bytes ~tag bytes =
  let open Avm_util in
  let r = Wire.reader bytes in
  let content =
    match tag with
    | 1 ->
      let dest = Wire.read_bytes r in
      let nonce = Wire.read_varint r in
      let payload = Wire.read_bytes r in
      Send { dest; nonce; payload }
    | 2 ->
      let src = Wire.read_bytes r in
      let nonce = Wire.read_varint r in
      let payload = Wire.read_bytes r in
      let signature = Wire.read_bytes r in
      Recv { src; nonce; payload; signature }
    | 3 ->
      let src = Wire.read_bytes r in
      let acked_seq = Wire.read_varint r in
      let signature = Wire.read_bytes r in
      Ack { src; acked_seq; signature }
    | 4 -> Exec (Avm_machine.Event.read r)
    | 5 ->
      let digest = Wire.read_bytes r in
      let snapshot_seq = Wire.read_varint r in
      let at_icount = Wire.read_varint r in
      Snapshot_ref { digest; snapshot_seq; at_icount }
    | 6 -> Note (Wire.read_bytes r)
    | n -> raise (Wire.Malformed (Printf.sprintf "bad entry tag %d" n))
  in
  Wire.expect_end r;
  content

let chain_scratch = Domain.DLS.new_key (fun () -> Avm_util.Wire.writer ())

let chain_hash_raw ~prev ~seq ~tag ~content_digest =
  let open Avm_util in
  let w = Domain.DLS.get chain_scratch in
  Wire.reset w;
  Wire.raw w prev;
  Wire.varint w seq;
  Wire.u8 w tag;
  Wire.raw w content_digest;
  Avm_crypto.Sha256.digest_buffer (Wire.buffer w)

let chain_hash ~prev ~seq content =
  chain_hash_raw ~prev ~seq ~tag:(type_tag content)
    ~content_digest:(content_digest content)

(* [derived_from] is set only where [hash] was just computed from it,
   so a matching mark makes the comparison below a tautology. *)
let derived ~prev t = String.length t.derived_from > 0 && String.equal t.derived_from prev

let chain_ok ~prev t =
  derived ~prev t || String.equal (chain_hash ~prev ~seq:t.seq t.content) t.hash

let seal ~prev ~seq content =
  { seq; content; hash = chain_hash ~prev ~seq content; derived_from = prev }

let forge ?seq ?content ?hash t =
  {
    seq = Option.value seq ~default:t.seq;
    content = Option.value content ~default:t.content;
    hash = Option.value hash ~default:t.hash;
    derived_from = "";
  }

let write_body w t =
  let open Avm_util in
  Wire.varint w t.seq;
  Wire.u8 w (type_tag t.content);
  Wire.bytes w (content_bytes t.content)

let read_body ~prev r =
  let open Avm_util in
  let seq = Wire.read_varint r in
  let tag = Wire.read_u8 r in
  let bytes = Wire.read_bytes r in
  let content = content_of_bytes ~tag bytes in
  (* Decoding is canonical (minimal varints, exact lengths, no trailing
     bytes), so [bytes] is the encoding of [content] and its digest
     equals [content_digest content] without re-serializing. *)
  {
    seq;
    content;
    hash = chain_hash_raw ~prev ~seq ~tag ~content_digest:(Avm_crypto.Sha256.digest bytes);
    derived_from = prev;
  }

let wire_size t =
  let w = Avm_util.Wire.writer () in
  write_body w t;
  Avm_util.Wire.length w

let describe = function
  | Send _ -> "SEND"
  | Recv _ -> "RECV"
  | Ack _ -> "ACK"
  | Exec _ -> "EXEC"
  | Snapshot_ref _ -> "SNAP"
  | Note _ -> "NOTE"

let pp fmt t =
  let detail =
    match t.content with
    | Send { dest; nonce; payload } ->
      Printf.sprintf "to=%s n=%d %dB" dest nonce (String.length payload)
    | Recv { src; nonce; payload; _ } ->
      Printf.sprintf "from=%s n=%d %dB" src nonce (String.length payload)
    | Ack { src; acked_seq; _ } -> Printf.sprintf "from=%s acks=%d" src acked_seq
    | Exec ev -> Format.asprintf "%a" Avm_machine.Event.pp ev
    | Snapshot_ref { snapshot_seq; _ } -> Printf.sprintf "snapshot=%d" snapshot_seq
    | Note s -> s
  in
  Format.fprintf fmt "@[<h>#%d %s %s h=%s@]" t.seq (describe t.content) detail
    (Avm_util.Hex.short t.hash)
