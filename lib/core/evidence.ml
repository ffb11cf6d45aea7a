open Avm_tamperlog
module Snapshot = Avm_machine.Snapshot
module Identity = Avm_crypto.Identity
module Wire = Avm_util.Wire

type chunk =
  { start : Snapshot.t option; prev_hash : string; entries : Entry.t list; cover : Auth.t }

type accusation =
  | Tampered_log of { entry_seq : int; reason : string; chunk : chunk }
  | Replay_divergence of { divergence : Replay.divergence; chunk : chunk }
  | Unanswered_challenge of { auth : Auth.t }
  | Equivocation of { a : Auth.t; b : Auth.t }

type t = { accused : string; accusation : accusation }
type checked = t

let describe t =
  let signed c =
    Printf.sprintf "signed entries %d..%d from %s"
      (match c.entries with e :: _ -> e.Entry.seq | [] -> 0)
      c.cover.Auth.seq
      (if c.start = None then "boot" else "a snapshot")
  in
  Printf.sprintf "evidence against %s: %s" t.accused
    (match t.accusation with
    | Tampered_log { entry_seq; reason; chunk } ->
      Printf.sprintf "tampered log at entry %d (%s): %s" entry_seq (signed chunk) reason
    | Replay_divergence { divergence; chunk } ->
      Format.asprintf "%a (%s)" Replay.pp_outcome (Replay.Diverged divergence) (signed chunk)
    | Unanswered_challenge { auth } ->
      Printf.sprintf "challenge: the machine owes its committed log up to #%d" auth.Auth.seq
    | Equivocation { a; b } ->
      Printf.sprintf "equivocation: two signed commitments at seq %d (%s vs %s)" a.Auth.seq
        (Avm_util.Hex.short a.Auth.hash) (Avm_util.Hex.short b.Auth.hash))

(* --- what a third party checks ------------------------------------------ *)

(* A sender this verifier has no certificate for proves nothing: the
   accused may know it, and a verifier can always drop a certificate. *)
let forged_recv ~node ~peer_certs (e : Entry.t) =
  match e.content with
  | Entry.Recv { src; nonce; payload; signature } when signature <> "" -> (
    match List.assoc_opt src peer_certs with
    | None -> false
    | Some cert ->
      let msg = Wireformat.message_body ~src ~dest:node ~nonce ~payload in
      not (Identity.verify cert ~msg ~signature))
  | _ -> false

let commits c =
  match List.rev c.entries with
  | last :: _ ->
    last.Entry.seq = c.cover.Auth.seq
    && String.equal last.Entry.hash c.cover.Auth.hash
    && Log.verify_segment ~prev:c.prev_hash c.entries = Ok ()
  | [] -> false

(* Replay the chunk from its start: the boot image for a chunk from
   entry 1, otherwise the shipped state, which must rebuild into the
   digest its first entry (a Snapshot_ref) logged. *)
let diverges ~image ~mem_words ~peers c =
  let replay ?start entries =
    Replay.verified (Replay.replay ~image ?mem_words ?start ~peers ~entries ()) = None
  in
  match (c.start, c.entries) with
  | None, ({ Entry.seq = 1; _ } :: _ as entries) ->
    String.equal c.prev_hash Log.genesis_hash && replay entries
  | Some s, { seq; content = Snapshot_ref { digest; snapshot_seq; at_icount }; _ } :: rest -> (
    match
      Spot_check.authenticate ~image ?mem_words ~chain:[ s ] ~digest
        { Spot_check.entry_seq = seq; snapshot_seq; at_icount }
    with
    | Spot_check.Verified start -> replay ~start rest
    | _ -> false)
  | _ -> false

let genuine t ~node_cert (a : Auth.t) =
  String.equal (Identity.cert_name node_cert) t.accused
  && String.equal a.node t.accused && Auth.verify node_cert a

let challenge_genuine t ~node_cert =
  match t.accusation with Unanswered_challenge { auth } -> genuine t ~node_cert auth | _ -> false

let confirm t ~node_cert ~peer_certs ~image ~mem_words ~peers =
  let genuine = genuine t ~node_cert in
  let signed c = genuine c.cover && commits c in
  let holds =
    match t.accusation with
    | Unanswered_challenge _ -> false
    | Equivocation { a; b } -> Auth.conflicts a b && genuine a && genuine b
    | Tampered_log { entry_seq; chunk; _ } ->
      let named (e : Entry.t) = e.seq = entry_seq && forged_recv ~node:t.accused ~peer_certs e in
      signed chunk && List.exists named chunk.entries
    | Replay_divergence { chunk; _ } -> signed chunk && diverges ~image ~mem_words ~peers chunk
  in
  if holds then Some t else None

(* --- serialization ------------------------------------------------------ *)

let magic = "AVMEVID2"

let kinds =
  Replay.
    [| Input_mismatch; Irq_landmark_mismatch; Output_mismatch; Missing_output; Snapshot_mismatch;
       Crossref_mismatch; Guest_halted_early; Guest_stalled; Guest_fault |]

(* A chunk travels as a recording does: entry bodies without hashes,
   which the reader rederives from [prev_hash]. *)
let write_chunk w c =
  Wire.option w (fun w s -> Wire.bytes w (Snapshot.encode s)) c.start;
  Wire.bytes w c.prev_hash;
  Wire.bytes w (Log.encode_segment c.entries);
  Auth.write w c.cover

let read_chunk r =
  let start = Wire.read_option r (fun r -> Snapshot.decode (Wire.read_bytes r)) in
  let prev_hash = Wire.read_bytes r in
  let entries = Log.decode_segment ~prev:prev_hash (Wire.read_bytes r) in
  let cover = Auth.read r in
  { start; prev_hash; entries; cover }

let write_accusation w = function
  | Tampered_log { entry_seq; reason; chunk } ->
    Wire.u8 w 0;
    Wire.varint w entry_seq;
    Wire.bytes w reason;
    write_chunk w chunk
  | Replay_divergence { divergence = d; chunk } ->
    Wire.u8 w 1;
    Wire.u8 w (Option.get (Array.find_index (( = ) d.Replay.kind) kinds));
    Avm_machine.Landmark.write w d.Replay.at;
    Wire.option w Wire.varint d.Replay.entry_seq;
    Wire.bytes w d.Replay.detail;
    write_chunk w chunk
  | Unanswered_challenge { auth } ->
    Wire.u8 w 2;
    Auth.write w auth
  | Equivocation { a; b } ->
    Wire.u8 w 3;
    Auth.write w a;
    Auth.write w b

let read_accusation r =
  match Wire.read_u8 r with
  | 0 ->
    let entry_seq = Wire.read_varint r in
    let reason = Wire.read_bytes r in
    Tampered_log { entry_seq; reason; chunk = read_chunk r }
  | 1 ->
    let kind = kinds.(Wire.read_u8 r) in
    let at = Avm_machine.Landmark.read r in
    let entry_seq = Wire.read_option r Wire.read_varint in
    let detail = Wire.read_bytes r in
    Replay_divergence { divergence = { Replay.kind; at; entry_seq; detail }; chunk = read_chunk r }
  | 2 -> Unanswered_challenge { auth = Auth.read r }
  | 3 ->
    let a = Auth.read r in
    let b = Auth.read r in
    Equivocation { a; b }
  | n -> raise (Wire.Malformed (Printf.sprintf "bad accusation tag %d" n))

let encode t =
  let w = Wire.writer () in
  Wire.raw w magic;
  Wire.bytes w t.accused;
  write_accusation w t.accusation;
  Wire.contents w

let decode s =
  let n = String.length magic in
  if String.length s < n || not (String.equal (String.sub s 0 n) magic) then
    Error "not an evidence file (bad magic)"
  else
    let r = Wire.reader (String.sub s n (String.length s - n)) in
    match
      let accused = Wire.read_bytes r in
      let accusation = read_accusation r in
      Wire.expect_end r;
      { accused; accusation }
    with
    | t -> Ok t
    | exception Wire.Truncated -> Error "truncated evidence"
    | exception (Wire.Malformed msg | Invalid_argument msg | Failure msg) ->
      Error ("malformed evidence: " ^ msg)
