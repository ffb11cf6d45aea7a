let genesis_hash = String.make 32 '\000'

(* The log is an active tail of recent entries plus a chronological run
   of sealed, immutable segments (see [Segment_store]). Appends go to
   the tail; the tail is sealed into a segment when it reaches
   [seal_every] entries or when a [Snapshot_ref] is appended (the
   paper's auditors fetch snapshot-bounded segments, so snapshots are
   natural seal points). With the [Compressed] backend, sealed segments
   live compressed at rest and are only inflated when a reader streams
   them; a per-domain one-slot cache keeps random access over a hot
   segment cheap, and lets parallel audit jobs inflate different
   segments concurrently without sharing mutable state. The log also
   keeps the entries of its newest sealed segment, the array sealing
   just built: a reader that crosses a fresh seal (an online auditor
   reading the slice it has not seen yet) gets the very entries it
   would have read from the tail, with no inflation and no re-derived
   links. That array is RAM, like the cache slot, not stored data.

   Tamper operations (the test adversary) first flatten the log back
   into a plain in-memory tail: a broken hash chain cannot survive the
   body-only sealed encoding, and segments are immutable by design. *)

type t = {
  mutable id : int; (* per-domain cache key; bumped when sealed data changes *)
  mutable sealed : Segment_store.seg array; (* chronological; [nsealed] live *)
  mutable nsealed : int;
  mutable tail : Entry.t array;
  mutable tail_count : int;
  mutable newest : Entry.t array;
      (* entries of sealed.(nsealed - 1) as sealed here; [||] when not kept *)
  mutable tail_bytes : int;
  mutable bytes : int; (* total uncompressed wire bytes *)
  mutable snap_index : (int * int * int) list;
      (* (entry_seq, snapshot_seq, at_icount), newest first *)
  backend : Segment_store.backend;
  seal_every : int;
  mutable sealable : bool; (* cleared by tamper_replace: broken chains must stay verbatim *)
}

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

let dummy_entry = Entry.seal ~prev:"" ~seq:0 (Entry.Note "")
let no_seg : Segment_store.seg array = [||]

let create ?(backend = Segment_store.Memory) ?(seal_every = 1024) () =
  if seal_every < 1 then invalid_arg "Log.create: seal_every < 1";
  {
    id = fresh_id ();
    sealed = no_seg;
    nsealed = 0;
    tail = Array.make 64 dummy_entry;
    tail_count = 0;
    newest = [||];
    tail_bytes = 0;
    bytes = 0;
    snap_index = [];
    backend;
    seal_every;
    sealable = true;
  }

let sealed_upto t =
  if t.nsealed = 0 then 0 else t.sealed.(t.nsealed - 1).Segment_store.info.last_seq

let length t = sealed_upto t + t.tail_count
let byte_size t = t.bytes
let backend t = t.backend

let head_hash t =
  if t.tail_count > 0 then t.tail.(t.tail_count - 1).Entry.hash
  else if t.nsealed > 0 then t.sealed.(t.nsealed - 1).Segment_store.info.head_hash
  else genesis_hash

let push_sealed t seg =
  if t.nsealed = Array.length t.sealed then begin
    let bigger = Array.make (max 8 (2 * t.nsealed)) seg in
    Array.blit t.sealed 0 bigger 0 t.nsealed;
    t.sealed <- bigger
  end;
  t.sealed.(t.nsealed) <- seg;
  t.nsealed <- t.nsealed + 1

let seal_active t =
  if t.tail_count > 0 && t.sealable then begin
    let last = t.tail.(t.tail_count - 1) in
    let prev_hash =
      if t.nsealed = 0 then genesis_hash
      else t.sealed.(t.nsealed - 1).Segment_store.info.head_hash
    in
    let snapshot_boundary =
      match last.Entry.content with
      | Entry.Snapshot_ref { snapshot_seq; at_icount; _ } ->
        Some (last.Entry.seq, snapshot_seq, at_icount)
      | _ -> None
    in
    let info =
      {
        Segment_store.first_seq = sealed_upto t + 1;
        last_seq = last.Entry.seq;
        prev_hash;
        head_hash = last.Entry.hash;
        byte_size = t.tail_bytes;
        snapshot_boundary;
      }
    in
    let entries = Array.sub t.tail 0 t.tail_count in
    push_sealed t (Segment_store.seal t.backend ~info entries);
    t.newest <- entries;
    Avm_obs.Metrics.incr "log.segments_sealed";
    Avm_obs.Metrics.incr ~by:t.tail_bytes "log.bytes_sealed";
    t.tail_count <- 0;
    t.tail_bytes <- 0
  end

let ensure_tail_capacity t =
  if t.tail_count = Array.length t.tail then begin
    let bigger = Array.make (2 * Array.length t.tail) dummy_entry in
    Array.blit t.tail 0 bigger 0 t.tail_count;
    t.tail <- bigger
  end

(* Install an already-sealed entry (its stored hash is kept verbatim). *)
let push_raw t (e : Entry.t) =
  Avm_obs.Metrics.incr "log.entries_appended";
  ensure_tail_capacity t;
  t.tail.(t.tail_count) <- e;
  t.tail_count <- t.tail_count + 1;
  let size = Entry.wire_size e in
  t.tail_bytes <- t.tail_bytes + size;
  t.bytes <- t.bytes + size;
  match e.Entry.content with
  | Entry.Snapshot_ref { snapshot_seq; at_icount; _ } ->
    t.snap_index <- (e.Entry.seq, snapshot_seq, at_icount) :: t.snap_index;
    seal_active t
  | _ -> if t.tail_count >= t.seal_every then seal_active t

let append t content =
  let e = Entry.seal ~prev:(head_hash t) ~seq:(length t + 1) content in
  push_raw t e;
  e

(* Load an externally produced, already-hashed run (e.g. a recording)
   into a segmented store. Always sealed with the Memory backend:
   stored hashes are preserved verbatim, so if the producer tampered
   with the chain the inconsistency survives for the audit to find. *)
let of_entries ?(seal_every = 1024) entries =
  let t = create ~backend:Segment_store.Memory ~seal_every () in
  List.iter
    (fun (e : Entry.t) ->
      if e.Entry.seq <> length t + 1 then
        invalid_arg "Log.of_entries: sequence not contiguous from 1";
      push_raw t e)
    entries;
  t

(* --- segment index ------------------------------------------------------ *)

let segments t = Array.to_list (Array.map (fun s -> s.Segment_store.info) (Array.sub t.sealed 0 t.nsealed))
let snapshot_index t = List.rev t.snap_index

(* Binary search for the sealed segment holding [seq]. *)
let find_seg t seq =
  let lo = ref 0 and hi = ref (t.nsealed - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.sealed.(mid).Segment_store.info.last_seq < seq then lo := mid + 1 else hi := mid
  done;
  !lo

(* One inflated segment per domain: concurrent audit jobs each keep
   their own hot segment, with no cross-domain mutable state. Keyed by
   the log's [id], which is bumped whenever sealed data changes, so a
   slot can never serve stale entries. *)
let inflate_slot : (int * int * Entry.t array) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The newest sealed segment is answered from the entries sealing
   kept, before any slot: they are the entries the log sealed in this
   process, exactly what inflating its record would re-derive. *)
let inflate t i =
  if i = t.nsealed - 1 && Array.length t.newest > 0 then begin
    Avm_obs.Metrics.incr "log.newest_segment_hits";
    t.newest
  end
  else begin
    let slot = Domain.DLS.get inflate_slot in
    match !slot with
    | Some (id, j, a) when id = t.id && j = i ->
      Avm_obs.Metrics.incr "log.inflate_cache_hits";
      a
    | _ ->
      Avm_obs.Metrics.incr "log.inflate_cache_misses";
      let a = Segment_store.inflate t.sealed.(i) in
      slot := Some (t.id, i, a);
      a
  end

let entry t seq =
  if seq < 1 || seq > length t then invalid_arg "Log.entry: out of range";
  let su = sealed_upto t in
  if seq > su then t.tail.(seq - su - 1)
  else begin
    let i = find_seg t seq in
    (inflate t i).(seq - t.sealed.(i).Segment_store.info.first_seq)
  end

let prev_hash t seq =
  if seq <= 1 then genesis_hash
  else begin
    (* Segment boundaries answer from the index, without inflating. *)
    let target = seq - 1 in
    let su = sealed_upto t in
    if target > su then t.tail.(target - su - 1).Entry.hash
    else begin
      let i = find_seg t target in
      let info = t.sealed.(i).Segment_store.info in
      if target = info.last_seq then info.head_hash
      else (inflate t i).(target - info.first_seq).Entry.hash
    end
  end

(* --- streaming readers -------------------------------------------------- *)

let slice a ~first_seq ~len ~from ~upto =
  let lo = max from first_seq - first_seq in
  let hi = min upto (first_seq + len - 1) - first_seq in
  let rec go k acc = if k < lo then acc else go (k - 1) (a.(k) :: acc) in
  go hi []

(* One entry list per overlapping segment (tail last), produced lazily:
   a compressed segment is only inflated when the consumer reaches it. *)
let chunk_seq t ~from ~upto =
  let from = max 1 from and upto = min (length t) upto in
  if upto < from then Seq.empty
  else begin
    let su = sealed_upto t in
    let thunks = ref [] in
    if upto > su then begin
      let tail = t.tail and len = t.tail_count in
      thunks := (fun () -> slice tail ~first_seq:(su + 1) ~len ~from ~upto) :: !thunks
    end;
    for i = t.nsealed - 1 downto 0 do
      let info = t.sealed.(i).Segment_store.info in
      if info.last_seq >= from && info.first_seq <= upto then
        thunks :=
          (fun () ->
            slice (inflate t i) ~first_seq:info.first_seq
              ~len:(info.last_seq - info.first_seq + 1)
              ~from ~upto)
          :: !thunks
    done;
    Seq.map (fun f -> f ()) (List.to_seq !thunks)
  end

let iter_range t ~from ~upto f = Seq.iter (List.iter f) (chunk_seq t ~from ~upto)
let iter t f = iter_range t ~from:1 ~upto:(length t) f

let segment t ~from ~upto = List.concat (List.of_seq (chunk_seq t ~from ~upto))

(* The same partition as [chunk_seq], but with the index metadata a
   parallel auditor needs to check each chunk independently: the chain
   hash just before the chunk and its seq range, plus a load thunk
   that is safe to force from a worker domain (inflation goes through
   the per-domain cache; the log must be quiescent meanwhile). *)

type chunk_spec = {
  spec_from : int;
  spec_upto : int;
  spec_prev_hash : string;
  spec_load : unit -> Entry.t list;
}

let chunk_specs t ~from ~upto =
  let from = max 1 from and upto = min (length t) upto in
  if upto < from then []
  else begin
    let su = sealed_upto t in
    let specs = ref [] in
    if upto > su then begin
      (* materialized eagerly: the tail array may grow under appends *)
      let entries = slice t.tail ~first_seq:(su + 1) ~len:t.tail_count ~from ~upto in
      let c_from = max from (su + 1) in
      specs :=
        {
          spec_from = c_from;
          spec_upto = upto;
          spec_prev_hash = prev_hash t c_from;
          spec_load = (fun () -> entries);
        }
        :: !specs
    end;
    for i = t.nsealed - 1 downto 0 do
      let info = t.sealed.(i).Segment_store.info in
      if info.last_seq >= from && info.first_seq <= upto then begin
        let c_from = max from info.first_seq in
        let ph = if c_from = info.first_seq then info.prev_hash else prev_hash t c_from in
        specs :=
          {
            spec_from = c_from;
            spec_upto = min upto info.last_seq;
            spec_prev_hash = ph;
            spec_load =
              (fun () ->
                slice (inflate t i) ~first_seq:info.first_seq
                  ~len:(info.last_seq - info.first_seq + 1)
                  ~from ~upto);
          }
          :: !specs
      end
    done;
    !specs
  end

(* --- wire form ---------------------------------------------------------- *)

let encode_segment entries = Segment_store.encode_entries entries
let decode_segment ~prev s = Segment_store.decode_entries ~prev s

(* Body-only encoding of a range, streamed straight off the segments. *)
let encode_range t ~from ~upto =
  let from = max 1 from and upto = min (length t) upto in
  let w = Avm_util.Wire.writer () in
  Avm_util.Wire.varint w (max 0 (upto - from + 1));
  iter_range t ~from ~upto (fun e -> Entry.write_body w e);
  Avm_util.Wire.contents w

let verify_segment ~prev entries =
  let rec go prev expected_seq = function
    | [] -> Ok ()
    | (e : Entry.t) :: rest ->
      if expected_seq >= 0 && e.seq <> expected_seq then
        Error (Printf.sprintf "sequence gap: expected %d, found %d" expected_seq e.seq)
      else if not (Entry.chain_ok ~prev e) then
        Error (Printf.sprintf "hash chain broken at entry %d" e.seq)
      else go e.hash (e.seq + 1) rest
  in
  match entries with
  | [] -> Ok ()
  | first :: _ -> go prev first.Entry.seq entries

(* --- storage accounting ------------------------------------------------- *)

let stored_bytes t =
  let acc = ref t.tail_bytes in
  for i = 0 to t.nsealed - 1 do
    acc := !acc + Segment_store.stored_bytes t.sealed.(i)
  done;
  !acc

let compression_ratio t =
  let stored = stored_bytes t in
  if stored = 0 then 1.0 else float_of_int t.bytes /. float_of_int stored

(* Compressed bytes an auditor downloads to stream [from..upto]:
   resident blobs are shipped whole (segment granularity); memory
   segments and the tail are compressed transiently. *)
let transfer_bytes t ~from ~upto =
  let from = max 1 from and upto = min (length t) upto in
  if upto < from then 0
  else begin
    let su = sealed_upto t in
    let acc = ref 0 in
    for i = 0 to t.nsealed - 1 do
      let info = t.sealed.(i).Segment_store.info in
      if info.last_seq >= from && info.first_seq <= upto then
        acc := !acc + Segment_store.transfer_bytes t.sealed.(i)
    done;
    if upto > su then begin
      let entries = slice t.tail ~first_seq:(su + 1) ~len:t.tail_count ~from ~upto in
      acc := !acc + String.length (Avm_compress.Codec.compress (encode_segment entries))
    end;
    !acc
  end

(* --- tamper operations (the test adversary) ----------------------------- *)

let rebuild_snap_index t =
  let idx = ref [] in
  for i = 0 to t.tail_count - 1 do
    match t.tail.(i).Entry.content with
    | Entry.Snapshot_ref { snapshot_seq; at_icount; _ } ->
      idx := (t.tail.(i).Entry.seq, snapshot_seq, at_icount) :: !idx
    | _ -> ()
  done;
  t.snap_index <- !idx

let retally t =
  let bytes = ref 0 in
  for i = 0 to t.tail_count - 1 do
    bytes := !bytes + Entry.wire_size t.tail.(i)
  done;
  t.bytes <- !bytes;
  t.tail_bytes <- !bytes;
  rebuild_snap_index t

(* Materialize everything back into the tail. Mutation can then use
   plain array surgery, and hash-chain breakage stays representable. *)
let flatten t =
  if t.nsealed > 0 then begin
    let n = length t in
    let all = Array.make (max 64 n) dummy_entry in
    let k = ref 0 in
    iter t (fun e ->
        all.(!k) <- e;
        incr k);
    t.sealed <- no_seg;
    t.nsealed <- 0;
    t.newest <- [||];
    (* fresh cache key: later re-seals must not hit a stale slot *)
    t.id <- fresh_id ();
    t.tail <- all;
    t.tail_count <- n;
    t.tail_bytes <- t.bytes
  end

let tamper_replace t seq content =
  if seq < 1 || seq > length t then invalid_arg "Log.tamper_replace: out of range";
  flatten t;
  t.tail.(seq - 1) <- Entry.forge ~content t.tail.(seq - 1);
  t.sealable <- false;
  retally t

let tamper_truncate t seq =
  if seq < 0 || seq > length t then invalid_arg "Log.tamper_truncate: out of range";
  flatten t;
  t.tail_count <- seq;
  retally t

let tamper_reseal t seq content =
  if seq < 1 || seq > length t then invalid_arg "Log.tamper_reseal: out of range";
  flatten t;
  let prev = ref (if seq <= 1 then genesis_hash else t.tail.(seq - 2).Entry.hash) in
  t.tail.(seq - 1) <- Entry.seal ~prev:!prev ~seq content;
  prev := t.tail.(seq - 1).Entry.hash;
  for i = seq to t.tail_count - 1 do
    let e = t.tail.(i) in
    t.tail.(i) <- Entry.seal ~prev:!prev ~seq:e.Entry.seq e.Entry.content;
    prev := t.tail.(i).Entry.hash
  done;
  retally t

let fork t =
  {
    t with
    id = fresh_id ();
    sealed = Array.copy t.sealed;
    tail = Array.copy t.tail;
  }

let newest_segment t = if Array.length t.newest > 0 then Some t.newest else None
