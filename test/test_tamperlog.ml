open Avm_tamperlog
module Identity = Avm_crypto.Identity
module Rng = Avm_util.Rng

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let rng = Rng.create 2024L
let ca = Identity.create_ca rng ~bits:512 "ca"
let alice = Identity.issue ca rng ~bits:512 "alice"
let bob = Identity.issue ca rng ~bits:512 "bob"

let sample_contents =
  [
    Entry.Send { dest = "bob"; nonce = 1; payload = "hello" };
    Entry.Recv { src = "bob"; nonce = 4; payload = "re: hello"; signature = "sig" };
    Entry.Exec (Avm_machine.Event.Io_in { port = 0x20; value = 12345; msg = -1 });
    Entry.Exec
      (Avm_machine.Event.Irq
         { landmark = { Avm_machine.Landmark.icount = 99; pc = 7; branches = 3 }; line = 1 });
    Entry.Ack { src = "bob"; acked_seq = 1; signature = "acksig" };
    Entry.Snapshot_ref { digest = String.make 32 'd'; snapshot_seq = 0; at_icount = 500 };
    Entry.Note "game start";
  ]

let build_log contents =
  let log = Log.create () in
  List.iter (fun c -> ignore (Log.append log c)) contents;
  log

let full_segment log = Log.segment log ~from:1 ~upto:(Log.length log)

(* --- hash chain ---------------------------------------------------------- *)

let test_chain_verifies () =
  let log = build_log sample_contents in
  Alcotest.(check int) "length" (List.length sample_contents) (Log.length log);
  match Log.verify_segment ~prev:Log.genesis_hash (full_segment log) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_partial_segment_verifies () =
  let log = build_log sample_contents in
  let seg = Log.segment log ~from:3 ~upto:5 in
  Alcotest.(check int) "segment size" 3 (List.length seg);
  match Log.verify_segment ~prev:(Log.prev_hash log 3) seg with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_tamper_replace_detected () =
  let log = build_log sample_contents in
  Log.tamper_replace log 2 (Entry.Note "innocuous");
  match Log.verify_segment ~prev:Log.genesis_hash (full_segment log) with
  | Ok () -> Alcotest.fail "tampering not detected"
  | Error e -> Alcotest.(check bool) "mentions entry" true (String.length e > 0)

let test_tamper_reseal_passes_chain () =
  (* The stronger attacker: rewrite history and recompute all hashes.
     The chain itself verifies — only authenticators catch this. *)
  let log = build_log sample_contents in
  let a2 =
    let e = Log.entry log 2 in
    Auth.make alice ~entry:e ~prev_hash:(Log.prev_hash log 2)
  in
  Log.tamper_reseal log 2 (Entry.Note "rewritten");
  (match Log.verify_segment ~prev:Log.genesis_hash (full_segment log) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "resealed chain should verify: %s" e);
  (* ... but the previously issued authenticator no longer matches. *)
  Alcotest.(check bool) "auth mismatch" false (Auth.matches_entry a2 (Log.entry log 2))

let test_fork_detected_by_auths () =
  let log = build_log [ List.hd sample_contents ] in
  let fork = Log.fork log in
  ignore (Log.append log (Entry.Note "branch A"));
  ignore (Log.append fork (Entry.Note "branch B"));
  let auth_a = Auth.make alice ~entry:(Log.entry log 2) ~prev_hash:(Log.prev_hash log 2) in
  (* Branch B's entry 2 conflicts with the authenticator from branch A. *)
  Alcotest.(check bool) "conflict" false (Auth.matches_entry auth_a (Log.entry fork 2))

let test_truncate () =
  let log = build_log sample_contents in
  Log.tamper_truncate log 3;
  Alcotest.(check int) "shorter" 3 (Log.length log)

let test_sequence_gap_detected () =
  let log = build_log sample_contents in
  let seg = [ Log.entry log 1; Log.entry log 3 ] in
  match Log.verify_segment ~prev:Log.genesis_hash seg with
  | Ok () -> Alcotest.fail "gap not detected"
  | Error e -> Alcotest.(check bool) "mentions gap" true (String.length e > 0)

let test_byte_size_counts () =
  let log = build_log sample_contents in
  let manual =
    List.fold_left (fun acc e -> acc + Entry.wire_size e) 0 (full_segment log)
  in
  Alcotest.(check int) "byte_size" manual (Log.byte_size log)

(* --- entry serialization ---------------------------------------------------- *)

let test_segment_roundtrip () =
  let log = build_log sample_contents in
  let seg = full_segment log in
  let seg' = Log.decode_segment ~prev:Log.genesis_hash (Log.encode_segment seg) in
  Alcotest.(check bool) "entries equal incl. recomputed hashes" true (seg = seg');
  (* a mid-log segment round-trips given the correct prev *)
  let mid = Log.segment log ~from:3 ~upto:5 in
  let mid' = Log.decode_segment ~prev:(Log.prev_hash log 3) (Log.encode_segment mid) in
  Alcotest.(check bool) "mid segment" true (mid = mid');
  (* hashes are not on the wire: corrupting content changes the
     recomputed chain, so previously issued authenticators expose it *)
  let a5 = Auth.make alice ~entry:(Log.entry log 5) ~prev_hash:(Log.prev_hash log 5) in
  let blob = Log.encode_segment seg in
  let corrupted = Bytes.of_string blob in
  (* flip a content byte of entry 1, upstream of entry 5 *)
  Bytes.set corrupted 5 (Char.chr (Char.code (Bytes.get corrupted 5) lxor 1));
  (match Log.decode_segment ~prev:Log.genesis_hash (Bytes.to_string corrupted) with
  | decoded ->
    let e5 = List.nth decoded 4 in
    Alcotest.(check bool) "auth exposes corruption" false (Auth.matches_entry a5 e5)
  | exception Avm_util.Wire.Malformed _ -> () (* also acceptable: framing broke *))

let test_content_bytes_stable () =
  (* The hash preimage must not change across versions: pin one. *)
  let c = Entry.Send { dest = "bob"; nonce = 1; payload = "hello" } in
  Alcotest.(check string) "canonical bytes" "\x03bob\x01\x05hello" (Entry.content_bytes c)

let test_bad_tag_rejected () =
  Alcotest.(check bool) "tag 99" true
    (match Entry.content_of_bytes ~tag:99 "" with
    | _ -> false
    | exception Avm_util.Wire.Malformed _ -> true)

let prop_content_roundtrip =
  let open QCheck2.Gen in
  let gen =
    oneof
      [
        map3
          (fun dest nonce payload -> Entry.Send { dest; nonce; payload })
          string nat string;
        map3
          (fun src nonce payload -> Entry.Recv { src; nonce; payload; signature = "s" })
          string nat string;
        map2 (fun src acked_seq -> Entry.Ack { src; acked_seq; signature = "x" }) string nat;
        map (fun s -> Entry.Note s) string;
      ]
  in
  qtest ~count:200 "entry: content roundtrip" gen (fun c ->
      Entry.content_of_bytes ~tag:(Entry.type_tag c) (Entry.content_bytes c) = c)

let test_entry_wire_size_compact () =
  (* Guard: the wire encoding must stay hash-free — a clock event is a
     dozen-odd bytes, not 45+. Fig. 3/4 magnitudes depend on this. *)
  let log = build_log sample_contents in
  let clock_entry = Log.entry log 3 in
  Alcotest.(check bool) "compact exec entry" true (Entry.wire_size clock_entry < 20);
  (* and the in-memory hash is still present and correct *)
  Alcotest.(check int) "hash present" 32 (String.length clock_entry.Entry.hash)

(* --- segment store ------------------------------------------------------- *)

(* A workload long enough to seal several segments, with snapshot
   boundaries in the stream like a real AVMM produces. *)
let busy_contents n =
  List.init n (fun i ->
      if i mod 25 = 24 then
        Entry.Snapshot_ref
          { digest = String.make 32 (Char.chr (65 + (i mod 26))); snapshot_seq = i / 25; at_icount = i * 100 }
      else if i mod 7 = 3 then
        Entry.Send
          { dest = "bob"; nonce = i; payload = String.make 48 'p' ^ string_of_int i }
      else Entry.Exec (Avm_machine.Event.Io_in { port = 0x20; value = 1000 + i; msg = -1 }))

let build_backed backend contents =
  let log = Log.create ~backend ~seal_every:16 () in
  List.iter (fun c -> ignore (Log.append log c)) contents;
  log

let test_decode_truncated () =
  let log = build_log sample_contents in
  let blob = Log.encode_segment (full_segment log) in
  for cut = 1 to min 10 (String.length blob - 1) do
    let truncated = String.sub blob 0 (String.length blob - cut) in
    match Log.decode_segment ~prev:Log.genesis_hash truncated with
    | _ -> Alcotest.failf "truncated blob (cut %d) decoded" cut
    | exception (Avm_util.Wire.Truncated | Avm_util.Wire.Malformed _) -> ()
  done

let test_decode_garbage () =
  List.iter
    (fun garbage ->
      match Log.decode_segment ~prev:Log.genesis_hash garbage with
      | _ -> Alcotest.fail "garbage decoded"
      | exception (Avm_util.Wire.Truncated | Avm_util.Wire.Malformed _) -> ())
    [ "\xff\xff\xff\xff\xff"; "\x07\x63garbage!"; String.make 64 '\xee' ]

(* A one-entry SEND segment whose nonce is spelled by [nonce] verbatim,
   bypassing the canonical writer. *)
let crafted_send_segment nonce =
  let module W = Avm_util.Wire in
  let content = W.writer () in
  W.bytes content "bob";
  W.raw content nonce;
  W.bytes content "hi";
  let w = W.writer () in
  W.varint w 1 (* entries *);
  W.varint w 1 (* seq *);
  W.u8 w 1 (* SEND *);
  W.bytes w (W.contents content);
  W.contents w

(* The decoder mark is sound only if decoding is canonical: a
   non-minimal varint (0 spelled [0x80 0x00]) would derive a hash over
   bytes that the content does not re-encode to, and a 9-byte varint
   above [max_int] would wrap to a negative nonce that the encoder
   refuses. Both must be rejected as malformed at decode. *)
let test_decode_noncanonical_varint () =
  let canonical = crafted_send_segment "\x00" in
  (match Log.decode_segment ~prev:Log.genesis_hash canonical with
  | [ e ] ->
    Alcotest.(check bool) "canonical decodes to nonce 0" true
      (e.Entry.content = Entry.Send { dest = "bob"; nonce = 0; payload = "hi" });
    Alcotest.(check string) "re-encodes" canonical (Log.encode_segment [ e ])
  | _ -> Alcotest.fail "canonical segment: expected one entry");
  List.iter
    (fun (name, nonce) ->
      match Log.decode_segment ~prev:Log.genesis_hash (crafted_send_segment nonce) with
      | _ -> Alcotest.failf "%s varint decoded" name
      | exception Avm_util.Wire.Malformed _ -> ())
    [ ("non-minimal", "\x80\x00"); ("above max_int", String.make 8 '\xff' ^ "\x7f") ]

(* A hand-rolled body encoder for NOTE and SEND segments whose varints
   take their extra continuation bytes from [pads] (0 = minimal): the
   non-minimal spellings a canonical decoder must refuse. *)
let sloppy_segment ~pads entries =
  let module W = Avm_util.Wire in
  let pads = ref pads in
  let varint buf v =
    let pad = match !pads with [] -> 0 | p :: rest -> pads := rest; p in
    let w = W.writer () in
    W.varint w v;
    let s = W.contents w in
    let n = String.length s in
    if pad = 0 then Buffer.add_string buf s
    else begin
      Buffer.add_string buf (String.sub s 0 (n - 1));
      Buffer.add_char buf (Char.chr (Char.code s.[n - 1] lor 0x80));
      Buffer.add_string buf (String.make (pad - 1) '\x80');
      Buffer.add_char buf '\x00'
    end
  in
  let bytes buf s =
    varint buf (String.length s);
    Buffer.add_string buf s
  in
  let buf = Buffer.create 64 in
  varint buf (List.length entries);
  List.iteri
    (fun i (send, s, nonce) ->
      let content = Buffer.create 16 in
      if send then begin
        bytes content s;
        varint content nonce;
        bytes content s
      end
      else bytes content s;
      varint buf (i + 1);
      Buffer.add_char buf (if send then '\x01' else '\x06');
      bytes buf (Buffer.contents content))
    entries;
  Buffer.contents buf

(* Any blob the decoder accepts is the canonical encoding of what it
   decoded to. Blobs are segments with occasional non-minimal varints,
   then random byte overwrites and insertions, which reach bad tags and
   broken framing as well. *)
let decode_reencodes (entries, pads, edits) =
  let blob =
    List.fold_left
      (fun b (overwrite, at, byte) ->
        let at = at mod (String.length b + 1) in
        let c = String.make 1 (Char.chr byte) in
        if overwrite && at < String.length b then
          String.sub b 0 at ^ c ^ String.sub b (at + 1) (String.length b - at - 1)
        else String.sub b 0 at ^ c ^ String.sub b at (String.length b - at))
      (sloppy_segment ~pads entries) edits
  in
  match Log.decode_segment ~prev:Log.genesis_hash blob with
  | entries -> String.equal (Log.encode_segment entries) blob
  | exception (Avm_util.Wire.Truncated | Avm_util.Wire.Malformed _) -> true

let prop_decode_reencodes =
  let open QCheck2.Gen in
  let entries = list_size (int_range 1 4) (triple bool (string_size (int_range 0 3)) nat) in
  let pads = list_size (int_range 0 12) (frequency [ (8, pure 0); (1, pure 1); (1, pure 2) ]) in
  let edits = list_size (int_range 0 2) (triple bool nat (int_range 0 255)) in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |])
    (QCheck2.Test.make ~count:500 ~name:"segment: accepted blobs re-encode byte for byte"
       (triple entries pads edits) decode_reencodes)

let test_verify_broken_chain () =
  let log = build_log sample_contents in
  let seg =
    List.map
      (fun (e : Entry.t) -> if e.seq = 4 then Entry.forge ~hash:(String.make 32 'z') e else e)
      (full_segment log)
  in
  match Log.verify_segment ~prev:Log.genesis_hash seg with
  | Ok () -> Alcotest.fail "broken chain not detected"
  | Error e -> Alcotest.(check bool) "mentions break" true (String.length e > 0)

let test_sealed_equivalence () =
  (* The same appends through Memory and Compressed backends must be
     observationally identical: same chain, same entries, same slices. *)
  let contents = busy_contents 100 in
  let mem = build_backed Segment_store.Memory contents in
  let zip = build_backed Segment_store.Compressed contents in
  Alcotest.(check int) "length" (Log.length mem) (Log.length zip);
  Alcotest.(check string) "head hash" (Log.head_hash mem) (Log.head_hash zip);
  Alcotest.(check bool) "sealed segments exist" true (List.length (Log.segments zip) >= 4);
  for seq = 1 to Log.length mem do
    if Log.entry mem seq <> Log.entry zip seq then
      Alcotest.failf "entry %d differs between backends" seq
  done;
  Alcotest.(check bool) "mid slice equal" true
    (Log.segment mem ~from:20 ~upto:70 = Log.segment zip ~from:20 ~upto:70);
  Alcotest.(check int) "byte size equal" (Log.byte_size mem) (Log.byte_size zip);
  (match Log.verify_segment ~prev:Log.genesis_hash (full_segment zip) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "compressed chain broken: %s" e);
  Alcotest.(check bool) "snapshot index equal" true
    (Log.snapshot_index mem = Log.snapshot_index zip)

let test_snapshot_boundary_seals () =
  let zip = build_backed Segment_store.Compressed (busy_contents 100) in
  (* Every Snapshot_ref must close its segment: some sealed segment ends
     exactly at each snapshot entry and carries the boundary record. *)
  let infos = Log.segments zip in
  List.iter
    (fun (entry_seq, snapshot_seq, at_icount) ->
      match
        List.find_opt (fun (i : Segment_store.info) -> i.last_seq = entry_seq) infos
      with
      | None -> Alcotest.failf "no segment sealed at snapshot entry %d" entry_seq
      | Some i ->
        Alcotest.(check bool)
          (Printf.sprintf "boundary record at %d" entry_seq)
          true
          (i.snapshot_boundary = Some (entry_seq, snapshot_seq, at_icount)))
    (Log.snapshot_index zip);
  (* and the segment index tiles the log exactly *)
  let covered =
    List.fold_left
      (fun next (i : Segment_store.info) ->
        Alcotest.(check int) "contiguous segments" next i.first_seq;
        i.last_seq + 1)
      1 infos
  in
  Alcotest.(check bool) "tail after last seal" true (covered <= Log.length zip + 1)

let test_tamper_on_sealed () =
  let zip = build_backed Segment_store.Compressed (busy_contents 60) in
  Log.tamper_replace zip 10 (Entry.Note "rewritten under the seal");
  (match Log.verify_segment ~prev:Log.genesis_hash (full_segment zip) with
  | Ok () -> Alcotest.fail "tamper under a sealed segment not detected"
  | Error _ -> ());
  (* the broken chain must survive further appends verbatim *)
  ignore (Log.append zip (Entry.Note "post-tamper append"));
  (match Log.verify_segment ~prev:Log.genesis_hash (full_segment zip) with
  | Ok () -> Alcotest.fail "tamper evidence lost after append"
  | Error _ -> ());
  (* reseal produces a consistent chain even across former seal points *)
  let zip2 = build_backed Segment_store.Compressed (busy_contents 60) in
  let auth = Auth.make alice ~entry:(Log.entry zip2 10) ~prev_hash:(Log.prev_hash zip2 10) in
  Log.tamper_reseal zip2 10 (Entry.Note "quietly rewritten");
  (match Log.verify_segment ~prev:Log.genesis_hash (full_segment zip2) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "resealed chain should verify: %s" e);
  Alcotest.(check bool) "auth exposes reseal" false (Auth.matches_entry auth (Log.entry zip2 10));
  (* truncation below the seal line *)
  let zip3 = build_backed Segment_store.Compressed (busy_contents 60) in
  Log.tamper_truncate zip3 20;
  Alcotest.(check int) "truncated" 20 (Log.length zip3);
  match Log.verify_segment ~prev:Log.genesis_hash (full_segment zip3) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "truncated prefix should verify: %s" e

let test_fork_with_sealed_segments () =
  let log = build_backed Segment_store.Compressed (busy_contents 40) in
  let fork = Log.fork log in
  ignore (Log.append log (Entry.Note "branch A"));
  ignore (Log.append fork (Entry.Note "branch B"));
  Alcotest.(check bool) "prefix shared" true (Log.entry log 40 = Log.entry fork 40);
  Alcotest.(check bool) "heads diverge" true (Log.head_hash log <> Log.head_hash fork);
  let auth = Auth.make alice ~entry:(Log.entry log 41) ~prev_hash:(Log.prev_hash log 41) in
  Alcotest.(check bool) "fork detected" false (Auth.matches_entry auth (Log.entry fork 41))

(* Sealing keeps the newest segment's entries (DESIGN.md §26): driven
   past many seals the log holds exactly one segment's worth, reads of
   that segment are served from it, the tamper operations drop it, and
   fork and the at-rest conversions keep it. *)
let test_newest_segment_kept () =
  let counter name = Avm_obs.Metrics.counter (Avm_obs.Metrics.snapshot ()) name in
  let contents = busy_contents 400 in
  let build () = build_backed Segment_store.Compressed contents in
  let log = build () in
  let twin = build_backed Segment_store.Memory contents in
  let segs = Log.segments log in
  Alcotest.(check bool) "many seals" true (List.length segs >= 20);
  let newest = List.nth segs (List.length segs - 1) in
  let kept () = match Log.newest_segment log with Some a -> a | None -> Alcotest.fail "nothing kept" in
  let a = kept () in
  Alcotest.(check int) "exactly the newest segment"
    (newest.Segment_store.last_seq - newest.Segment_store.first_seq + 1)
    (Array.length a);
  Alcotest.(check bool) "its entries, as sealed" true
    (Array.to_list a
    = Log.segment twin ~from:newest.Segment_store.first_seq ~upto:newest.Segment_store.last_seq);
  (* Reads of the newest segment never inflate; an older one does. *)
  let hits0 = counter "log.newest_segment_hits" and misses0 = counter "log.inflate_cache_misses" in
  ignore (Log.entry log newest.Segment_store.first_seq : Entry.t);
  ignore (Log.prev_hash log newest.Segment_store.last_seq : string);
  Alcotest.(check int) "served from the kept entries" (hits0 + 2) (counter "log.newest_segment_hits");
  Alcotest.(check int) "nothing inflated" misses0 (counter "log.inflate_cache_misses");
  ignore (Log.entry log 1 : Entry.t);
  Alcotest.(check int) "an older segment inflates" (misses0 + 1) (counter "log.inflate_cache_misses");
  (* Kept across fork. *)
  Alcotest.(check bool) "fork shares it" true
    (match Log.newest_segment (Log.fork log) with Some b -> b == a | None -> false);
  (* The next seal replaces it. *)
  for _ = 1 to 16 do
    ignore (Log.append log (Entry.Note "more") : Entry.t)
  done;
  Alcotest.(check bool) "replaced by the next seal" true
    (match Log.newest_segment log with Some b -> b != a && Array.length b = 16 | None -> false);
  (* Every tamper operation drops it. *)
  List.iter
    (fun (what, tamper) ->
      let l = build () in
      tamper l;
      Alcotest.(check bool) (what ^ " drops it") true (Log.newest_segment l = None))
    [
      ("tamper_replace", fun l -> Log.tamper_replace l 5 (Entry.Note "x"));
      ("tamper_truncate", fun l -> Log.tamper_truncate l 300);
      ("tamper_reseal", fun l -> Log.tamper_reseal l 5 (Entry.Note "x"));
    ]

let test_compression_accounting () =
  (* Compression only pays on realistically sized segments (an AVMM
     snapshot interval is hundreds of entries); tiny segments lose to
     the codec's fixed table overhead. *)
  let contents =
    List.init 600 (fun i ->
        if i mod 200 = 199 then
          Entry.Snapshot_ref
            { digest = String.make 32 'd'; snapshot_seq = i / 200; at_icount = i * 100 }
        else if i mod 3 = 0 then
          Entry.Send { dest = "bob"; nonce = i; payload = String.make 64 'p' }
        else Entry.Exec (Avm_machine.Event.Io_in { port = 0x20; value = 1000 + i; msg = -1 }))
  in
  let zip = Log.create ~backend:Segment_store.Compressed ~seal_every:256 () in
  List.iter (fun c -> ignore (Log.append zip c)) contents;
  Alcotest.(check bool) "stored < raw" true (Log.stored_bytes zip < Log.byte_size zip);
  Alcotest.(check bool) "ratio > 1" true (Log.compression_ratio zip > 1.0);
  (* encode_range must agree with encoding the materialized slice *)
  Alcotest.(check string) "encode_range = encode_segment"
    (Log.encode_segment (Log.segment zip ~from:10 ~upto:90))
    (Log.encode_range zip ~from:10 ~upto:90);
  (* transfer accounting covers the requested range *)
  Alcotest.(check bool) "transfer bytes positive" true
    (Log.transfer_bytes zip ~from:1 ~upto:(Log.length zip) > 0)

(* A compressed segment sealed directly, with the index record [Log]
   would write for it. *)
let compressed_run ~prev ~first contents =
  let _, rev =
    List.fold_left
      (fun (prev, acc) c ->
        let e = Entry.seal ~prev ~seq:(first + List.length acc) c in
        (e.Entry.hash, e :: acc))
      (prev, []) contents
  in
  let entries = Array.of_list (List.rev rev) in
  let n = Array.length entries in
  let info =
    {
      Segment_store.first_seq = first;
      last_seq = first + n - 1;
      prev_hash = prev;
      head_hash = entries.(n - 1).Entry.hash;
      byte_size = Array.fold_left (fun acc e -> acc + Entry.wire_size e) 0 entries;
      snapshot_boundary = None;
    }
  in
  (entries, Segment_store.seal Segment_store.Compressed ~info entries)

let io_run values =
  List.map
    (fun v -> Entry.Exec (Avm_machine.Event.Io_in { port = 0x20; value = v; msg = -1 }))
    values

let expect_corrupt what ~reason seg =
  match Segment_store.inflate seg with
  | _ -> Alcotest.failf "%s: inflated" what
  | exception Avm_compress.Codec.Corrupt m -> Alcotest.(check string) what reason m

let with_blob seg blob = { seg with Segment_store.repr = Segment_store.Blob blob }

let blob_of (seg : Segment_store.seg) =
  match seg.Segment_store.repr with
  | Segment_store.Blob blob -> blob
  | Segment_store.Entries _ -> Alcotest.fail "compressed seal kept entries"

let test_inflate_checks_index () =
  let genesis = Log.genesis_hash in
  let e1, s1 = compressed_run ~prev:genesis ~first:1 (io_run [ 1000; 1001; 1002; 1003 ]) in
  let _, s2 = compressed_run ~prev:e1.(3).Entry.hash ~first:5 (io_run [ 1004; 1005; 1006; 1007 ]) in
  (* The same seqs with other values: same length, other chain. *)
  let _, s1' = compressed_run ~prev:genesis ~first:1 (io_run [ 2000; 2001; 2002; 2003 ]) in
  let hashes a = Array.to_list (Array.map (fun e -> e.Entry.hash) a) in
  Alcotest.(check (list string)) "honest blob inflates" (hashes e1)
    (hashes (Segment_store.inflate s1));
  let index_says what = "segment blob: " ^ what ^ " differs from the index" in
  expect_corrupt "swapped: other seqs" ~reason:(index_says "first seq")
    (with_blob s1 (blob_of s2));
  expect_corrupt "swapped: other chain" ~reason:(index_says "head hash")
    (with_blob s1 (blob_of s1'));
  (* Two entries indexed; one entry of the same body length shipped. *)
  let two = [ Entry.Note (String.make 10 'a'); Entry.Note (String.make 10 'b') ] in
  let _, s_two = compressed_run ~prev:genesis ~first:1 two in
  let one_of_len l =
    snd (compressed_run ~prev:genesis ~first:1 [ Entry.Note (String.make l 'c') ])
  in
  let size (seg : Segment_store.seg) = seg.Segment_store.info.Segment_store.byte_size in
  let rec same_size l =
    let seg = one_of_len l in
    if size seg = size s_two then seg else same_size (l + 1)
  in
  expect_corrupt "short: fewer entries" ~reason:(index_says "entry count")
    (with_blob s_two (blob_of (same_size 0)));
  (* Three entries where the index records four. *)
  let _, s_three = compressed_run ~prev:genesis ~first:1 (io_run [ 1000; 1001; 1002 ]) in
  expect_corrupt "short: fewer bytes" ~reason:(index_says "length")
    (with_blob s1 (blob_of s_three));
  let blob = blob_of s1 in
  expect_corrupt "truncated blob" ~reason:"truncated payload"
    (with_blob s1 (String.sub blob 0 (String.length blob - 3)));
  (* A valid stream one byte longer than the index allows: refused by
     the cap, before the output buffer is sized. *)
  let raw = Segment_store.encode_entries (Array.to_list e1) in
  let over = Avm_compress.Codec.compress (raw ^ "x") in
  expect_corrupt "over-claiming blob" ~reason:"length exceeds cap" (with_blob s1 over);
  Alcotest.check_raises "cap refuses the claim" (Avm_compress.Codec.Corrupt "length exceeds cap")
    (fun () -> ignore (Avm_compress.Codec.decompress ~max_len:(String.length raw) over))

(* --- authenticators ------------------------------------------------------------- *)

let test_auth_verify () =
  let log = build_log sample_contents in
  let e = Log.entry log 1 in
  let a = Auth.make alice ~entry:e ~prev_hash:(Log.prev_hash log 1) in
  Alcotest.(check bool) "verifies" true (Auth.verify (Identity.certificate alice) a);
  Alcotest.(check bool) "wrong cert" false (Auth.verify (Identity.certificate bob) a);
  Alcotest.(check bool) "matches entry" true (Auth.matches_entry a e)

let test_auth_matches_send () =
  let log = build_log sample_contents in
  let a = Auth.make alice ~entry:(Log.entry log 1) ~prev_hash:Log.genesis_hash in
  Alcotest.(check bool) "send" true (Auth.matches_send a ~payload:"hello" ~dest:"bob" ~nonce:1);
  Alcotest.(check bool) "wrong payload" false
    (Auth.matches_send a ~payload:"evil" ~dest:"bob" ~nonce:1);
  Alcotest.(check bool) "wrong nonce" false
    (Auth.matches_send a ~payload:"hello" ~dest:"bob" ~nonce:2)

let test_auth_tampered_hash () =
  let log = build_log sample_contents in
  let a = Auth.make alice ~entry:(Log.entry log 1) ~prev_hash:Log.genesis_hash in
  let bad = { a with Auth.hash = String.make 32 'x' } in
  Alcotest.(check bool) "bad hash" false (Auth.verify (Identity.certificate alice) bad)

let test_auth_roundtrip () =
  let log = build_log sample_contents in
  let a = Auth.make alice ~entry:(Log.entry log 1) ~prev_hash:Log.genesis_hash in
  Alcotest.(check bool) "roundtrip" true (Auth.decode (Auth.encode a) = a)

(* --- chunk specs and sealed-segment conversion ------------------------------ *)

let many_notes n =
  List.init n (fun i -> Entry.Note (Printf.sprintf "note %d %s" i (String.make 80 'x')))

let test_chunk_specs_partition () =
  List.iter
    (fun backend ->
      let log = build_backed backend (many_notes 50) in
      let n = Log.length log in
      List.iter
        (fun (from, upto) ->
          let specs = Log.chunk_specs log ~from ~upto in
          (* the specs tile [from..upto] in order, each one loading its
             exact range with the index's chain hash at its door *)
          let expect = ref from in
          List.iter
            (fun (s : Log.chunk_spec) ->
              Alcotest.(check int) "contiguous" !expect s.Log.spec_from;
              Alcotest.(check string)
                "prev hash from index"
                (Log.prev_hash log s.Log.spec_from)
                s.Log.spec_prev_hash;
              let entries = s.Log.spec_load () in
              List.iteri
                (fun i (e : Entry.t) ->
                  Alcotest.(check int) "entry seq" (s.Log.spec_from + i) e.Entry.seq)
                entries;
              Alcotest.(check int)
                "load covers range"
                (s.Log.spec_upto - s.Log.spec_from + 1)
                (List.length entries);
              (match Log.verify_segment ~prev:s.Log.spec_prev_hash entries with
              | Ok () -> ()
              | Error e -> Alcotest.failf "chunk does not verify: %s" e);
              expect := s.Log.spec_upto + 1)
            specs;
          Alcotest.(check int) "tiles the whole range" (upto + 1) !expect;
          Alcotest.(check bool)
            "concatenation = flat segment" true
            (List.concat_map (fun (s : Log.chunk_spec) -> s.Log.spec_load ()) specs
            = Log.segment log ~from ~upto))
        [ (1, n); (7, n - 3); (1, 1); (n, n) ];
      Alcotest.(check (list int)) "empty range" []
        (List.map
           (fun (s : Log.chunk_spec) -> s.Log.spec_from)
           (Log.chunk_specs log ~from:5 ~upto:4)))
    [ Segment_store.Memory; Segment_store.Compressed ]

let () =
  Alcotest.run "tamperlog"
    [
      ( "chain",
        [
          Alcotest.test_case "honest chain verifies" `Quick test_chain_verifies;
          Alcotest.test_case "partial segment verifies" `Quick test_partial_segment_verifies;
          Alcotest.test_case "naive tamper detected" `Quick test_tamper_replace_detected;
          Alcotest.test_case "resealed tamper beats chain, not auths" `Quick
            test_tamper_reseal_passes_chain;
          Alcotest.test_case "fork detected by auths" `Quick test_fork_detected_by_auths;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "sequence gap" `Quick test_sequence_gap_detected;
          Alcotest.test_case "byte accounting" `Quick test_byte_size_counts;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "segment roundtrip" `Quick test_segment_roundtrip;
          Alcotest.test_case "canonical bytes pinned" `Quick test_content_bytes_stable;
          Alcotest.test_case "bad tag" `Quick test_bad_tag_rejected;
          Alcotest.test_case "wire size compact (no hashes)" `Quick test_entry_wire_size_compact;
          prop_content_roundtrip;
        ] );
      ( "segments",
        [
          Alcotest.test_case "truncated blob rejected" `Quick test_decode_truncated;
          Alcotest.test_case "garbage blob rejected" `Quick test_decode_garbage;
          Alcotest.test_case "non-canonical varints rejected" `Quick
            test_decode_noncanonical_varint;
          prop_decode_reencodes;
          Alcotest.test_case "broken chain detected" `Quick test_verify_broken_chain;
          Alcotest.test_case "backends observationally equal" `Quick test_sealed_equivalence;
          Alcotest.test_case "snapshot boundaries seal segments" `Quick
            test_snapshot_boundary_seals;
          Alcotest.test_case "chunk specs tile the log" `Quick test_chunk_specs_partition;
          Alcotest.test_case "tamper ops on sealed logs" `Quick test_tamper_on_sealed;
          Alcotest.test_case "fork with sealed segments" `Quick test_fork_with_sealed_segments;
          Alcotest.test_case "compression accounting" `Quick test_compression_accounting;
          Alcotest.test_case "newest sealed segment kept" `Quick test_newest_segment_kept;
          Alcotest.test_case "inflate checked against the index" `Quick test_inflate_checks_index;
        ] );
      ( "authenticators",
        [
          Alcotest.test_case "verify" `Quick test_auth_verify;
          Alcotest.test_case "matches_send" `Quick test_auth_matches_send;
          Alcotest.test_case "tampered hash" `Quick test_auth_tampered_hash;
          Alcotest.test_case "wire roundtrip" `Quick test_auth_roundtrip;
        ] );
    ]
