(* Sealed log segments: the unit of storage and of audit transfer.

   A segment is an immutable run of consecutive entries together with an
   index record describing it (sequence range, the hash chained just
   before it, the hash it ends on, its uncompressed wire size, and the
   snapshot boundary it was sealed at, if any). The index record alone
   answers the auditor's planning queries — which segments cover a
   seq range, where the snapshot boundaries are, how many bytes a
   transfer costs — without inflating any entry data.

   Two backends:
   - [Memory]    entries kept as-is. Preserves stored hashes verbatim,
                 so even a tampered (chain-inconsistent) run survives a
                 round trip. Used for hot data and untrusted loads.
   - [Compressed] entries serialized body-only (seq, tag, content) and
                 LZSS+Huffman-packed via [Avm_compress.Codec]. Hashes
                 are recomputed from [info.prev_hash] on inflation, so
                 this backend is only sealed over honestly-chained runs
                 (which is what an AVMM produces; [Log] flattens to
                 memory before any tamper operation). *)

type backend = Memory | Compressed

let backend_name = function Memory -> "memory" | Compressed -> "compressed"

type info = {
  first_seq : int;
  last_seq : int;
  prev_hash : string; (* chain hash immediately before [first_seq] *)
  head_hash : string; (* hash of entry [last_seq] *)
  byte_size : int; (* uncompressed wire size of the entries *)
  snapshot_boundary : (int * int * int) option;
      (* (entry_seq, snapshot_seq, at_icount) when sealed at a Snapshot_ref *)
}

type repr = Entries of Entry.t array | Blob of string
type seg = { info : info; repr : repr }

(* Body-only wire form shared with [Log.encode_segment]: hashes are
   redundant given the chain base, so they never hit storage. *)
let encode_entries entries =
  let w = Avm_util.Wire.writer () in
  Avm_util.Wire.list w Entry.write_body entries;
  Avm_util.Wire.contents w

let decode_entries ~prev s =
  let r = Avm_util.Wire.reader s in
  let n = Avm_util.Wire.read_varint r in
  let rec go prev i acc =
    if i = n then List.rev acc
    else begin
      let e = Entry.read_body ~prev r in
      go e.Entry.hash (i + 1) (e :: acc)
    end
  in
  let entries = go prev 0 [] in
  Avm_util.Wire.expect_end r;
  entries

let seal backend ~info entries =
  match backend with
  | Memory -> { info; repr = Entries entries }
  | Compressed ->
    let blob = Avm_compress.Codec.compress (encode_entries (Array.to_list entries)) in
    Avm_obs.Metrics.incr ~by:(String.length blob) "log.bytes_compressed";
    { info; repr = Blob blob }

let varint_size v =
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

(* The index record says exactly what a blob must hold: [count]
   entries in [byte_size] body bytes behind a count varint, starting
   at [first_seq] and chaining from [prev_hash] to [head_hash]. The
   length caps the inflation before it allocates; the rest turns a
   swapped or short blob into [Corrupt] here rather than a wrong entry
   or an index error in a reader. *)
let inflate seg =
  match seg.repr with
  | Entries a -> a
  | Blob blob ->
    let info = seg.info in
    let corrupt msg = raise (Avm_compress.Codec.Corrupt ("segment blob: " ^ msg)) in
    let count = info.last_seq - info.first_seq + 1 in
    if count < 1 then corrupt "empty index range";
    let expected = varint_size count + info.byte_size in
    let raw = Avm_compress.Codec.decompress ~max_len:expected blob in
    if String.length raw <> expected then corrupt "length differs from the index";
    let a =
      try Array.of_list (decode_entries ~prev:info.prev_hash raw)
      with Avm_util.Wire.Truncated -> corrupt "entries truncated"
    in
    if Array.length a <> count then corrupt "entry count differs from the index";
    if a.(0).Entry.seq <> info.first_seq then corrupt "first seq differs from the index";
    if not (String.equal a.(count - 1).Entry.hash info.head_hash) then
      corrupt "head hash differs from the index";
    a

(* Bytes this segment occupies at rest. *)
let stored_bytes seg =
  match seg.repr with
  | Entries _ -> seg.info.byte_size
  | Blob blob -> String.length blob

(* Bytes an auditor downloads for this segment: the resident blob if it
   is already compressed, a transient compression otherwise. *)
let transfer_bytes seg =
  match seg.repr with
  | Blob blob -> String.length blob
  | Entries a -> String.length (Avm_compress.Codec.compress (encode_entries (Array.to_list a)))
