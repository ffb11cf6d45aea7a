(* Fleet-wide replay memoization (DESIGN.md §14).

   Soundness rests on replay being a pure function of (image, memory
   geometry, landmark strictness, peer map, pre-state, input events):
   two chunks with equal fingerprints replay identically, so if one
   verified against its claims, the other verifies iff its claims are
   byte-equal to the cached ones. [find] therefore only answers `Hit
   when BOTH claim digests match — a tampered chunk can share an
   honest fingerprint (same inputs) but never its claims, so it falls
   through to full replay and diverges exactly as it would uncached.

   Claim fields are excluded from the key and folded into their own
   digests instead:

   - input digest:  every entry's seq, plus Exec/Recv/Ack/Note content
     verbatim, Send's nonce, Snapshot_ref's (snapshot_seq, at_icount);
   - output digest: Send's (dest, payload) and Snapshot_ref's digest,
     in sequence order; the last Snapshot_ref digest doubles as the
     claimed post-state.

   Recv/Ack signatures are inputs here (conservative: they are not
   read by replay, but including them only splits fingerprints, never
   merges what must stay apart). The idle-majority chunks that carry
   the fleet dedup win contain no messages at all. *)

module Metrics = Avm_obs.Metrics
module Sha256 = Avm_crypto.Sha256
module Machine = Avm_machine.Machine
open Avm_tamperlog

type cached = { instructions : int; entries_consumed : int }

(* What one verified replay established for a fingerprint key. The
   peer map is held out of the key so fleet peers (every node has
   different witnesses) can share idle chunks; it is enforced on hit
   only when the veried replay actually emitted packets
   ([s_peers_sensitive]) — emission is itself a pure function of the
   fingerprint, so fingerprint-equal chunks agree on it. *)
type slot = {
  s_peers : string; (* peers digest of the auditor that replayed *)
  s_peers_sensitive : bool; (* did that replay emit any packet? *)
  s_post : string; (* post-state claim *)
  s_outputs : string; (* outputs claim *)
  s_counts : cached;
}

type stripe = {
  lock : Mutex.t;
  tbl : (string, slot) Hashtbl.t;
  order : string Queue.t; (* insertion order, for FIFO eviction *)
  flight : (string, unit) Hashtbl.t; (* keys an [exclusive] caller is replaying *)
  landed : Condition.t; (* signalled when a key leaves [flight] *)
}

(* States the auditor verified itself, keyed by the digest it
   recomputed (DESIGN.md §24). An entry is never mutated once stored:
   callers replay on a copy. FIFO within [state_budget] words of
   memory and disk. *)
type states = {
  st_lock : Mutex.t;
  st_tbl : (string, int * Machine.t) Hashtbl.t; (* digest -> (at_icount, state) *)
  st_order : string Queue.t;
  mutable st_words : int;
}

type stats = {
  hits : int;
  misses : int;
  spot_checks : int;
  claim_mismatches : int;
  poisoned : int;
  bytes_saved : int;
  instructions_saved : int;
}

type t = {
  stripes : stripe array;
  states : states;
  stripe_cap : int;
  rate : int;
  seed : int64;
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_spots : int Atomic.t;
  c_mismatches : int Atomic.t;
  c_poisoned : int Atomic.t;
  c_bytes : int Atomic.t;
  c_instr : int Atomic.t;
}

let rec pow2_above n k = if k >= n then k else pow2_above n (k * 2)

let state_budget = 1 lsl 21

let create ?(capacity = 8192) ?(stripes = 16) ?(spot_rate = 8) ?(seed = 0L) () =
  if capacity < 1 then invalid_arg "Replay_cache.create: capacity < 1";
  if spot_rate < 0 then invalid_arg "Replay_cache.create: spot_rate < 0";
  let stripes = pow2_above (max 1 stripes) 1 in
  {
    stripes =
      Array.init stripes (fun _ ->
          {
            lock = Mutex.create ();
            tbl = Hashtbl.create 64;
            order = Queue.create ();
            flight = Hashtbl.create 4;
            landed = Condition.create ();
          });
    states =
      {
        st_lock = Mutex.create ();
        st_tbl = Hashtbl.create 64;
        st_order = Queue.create ();
        st_words = 0;
      };
    stripe_cap = max 1 ((capacity + stripes - 1) / stripes);
    rate = spot_rate;
    seed;
    c_hits = Atomic.make 0;
    c_misses = Atomic.make 0;
    c_spots = Atomic.make 0;
    c_mismatches = Atomic.make 0;
    c_poisoned = Atomic.make 0;
    c_bytes = Atomic.make 0;
    c_instr = Atomic.make 0;
  }

let capacity t = t.stripe_cap * Array.length t.stripes
let spot_rate t = t.rate

let stripe t key = t.stripes.(Hashtbl.hash key land (Array.length t.stripes - 1))

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let with_stripe t key f =
  let s = stripe t key in
  with_lock s.lock (fun () -> f s)

let clear t =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      Hashtbl.reset s.tbl;
      Queue.clear s.order;
      Mutex.unlock s.lock)
    t.stripes;
  let st = t.states in
  with_lock st.st_lock (fun () ->
      Hashtbl.reset st.st_tbl;
      Queue.clear st.st_order;
      st.st_words <- 0)

let size t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let n = Hashtbl.length s.tbl in
      Mutex.unlock s.lock;
      acc + n)
    0 t.stripes

let stats t =
  {
    hits = Atomic.get t.c_hits;
    misses = Atomic.get t.c_misses;
    spot_checks = Atomic.get t.c_spots;
    claim_mismatches = Atomic.get t.c_mismatches;
    poisoned = Atomic.get t.c_poisoned;
    bytes_saved = Atomic.get t.c_bytes;
    instructions_saved = Atomic.get t.c_instr;
  }

(* --- fingerprinting ------------------------------------------------------ *)

(* The image digest is memoized per domain by physical identity: a
   fleet audit fingerprints thousands of chunks against the very same
   image array, and hashing it once per domain is free while hashing
   it per chunk would dominate the hit path. *)
let image_digests = Domain.DLS.new_key (fun () -> ref ([] : (int array * string) list))

let image_digest (img : int array) =
  let memo = Domain.DLS.get image_digests in
  match List.find_opt (fun (a, _) -> a == img) !memo with
  | Some (_, d) -> d
  | None ->
    let b = Buffer.create (Array.length img * 8) in
    Array.iter (fun w -> Buffer.add_int64_le b (Int64.of_int w)) img;
    let d = Sha256.digest_buffer b in
    memo := (img, d) :: (if List.length !memo >= 8 then [] else !memo);
    d

type print = {
  key : string;
  peers : string; (* digest of the (dest id, name) map, kept out of [key] *)
  post_state : string;
  outputs : string;
  bytes : int;
}

let key_hex p =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
                      (List.init (String.length p.key) (String.get p.key)))

let chunk_bytes p = p.bytes

type fp = {
  header : string; (* digest over everything execution depends on but the entries *)
  f_peers : string;
  f_in : Sha256.ctx;
  f_out : Sha256.ctx;
  f_buf : Buffer.t;
  mutable f_post : string;
  mutable f_bytes : int;
}

let fp_create ~image ?mem_words ?(strict_landmarks = true) ~peers ~pre_state () =
  let b = Buffer.create 256 in
  Buffer.add_string b (image_digest image);
  Buffer.add_int64_le b (Int64.of_int (Option.value mem_words ~default:(-1)));
  Buffer.add_char b (if strict_landmarks then '\001' else '\000');
  Buffer.add_string b pre_state;
  let header = Sha256.digest_buffer b in
  Buffer.clear b;
  List.iter
    (fun (id, name) ->
      Buffer.add_int64_le b (Int64.of_int id);
      Buffer.add_int64_le b (Int64.of_int (String.length name));
      Buffer.add_string b name)
    peers;
  {
    header;
    f_peers = Sha256.digest_buffer b;
    f_in = Sha256.init ();
    f_out = Sha256.init ();
    f_buf = Buffer.create 256;
    f_post = "";
    f_bytes = 0;
  }

let fp_feed f (e : Entry.t) =
  f.f_bytes <- f.f_bytes + Entry.wire_size e;
  let buf = f.f_buf in
  Buffer.clear buf;
  Buffer.add_int64_le buf (Int64.of_int e.Entry.seq);
  match e.Entry.content with
  | Entry.Send { dest; nonce; payload } ->
    Buffer.add_char buf 'S';
    Buffer.add_int64_le buf (Int64.of_int nonce);
    Sha256.feed_buffer f.f_in buf;
    Buffer.clear buf;
    Buffer.add_int64_le buf (Int64.of_int e.Entry.seq);
    Buffer.add_char buf 's';
    Buffer.add_int64_le buf (Int64.of_int (String.length dest));
    Buffer.add_string buf dest;
    Buffer.add_int64_le buf (Int64.of_int (String.length payload));
    Buffer.add_string buf payload;
    Sha256.feed_buffer f.f_out buf
  | Entry.Snapshot_ref { digest; snapshot_seq; at_icount } ->
    Buffer.add_char buf 'P';
    Buffer.add_int64_le buf (Int64.of_int snapshot_seq);
    Buffer.add_int64_le buf (Int64.of_int at_icount);
    Sha256.feed_buffer f.f_in buf;
    Buffer.clear buf;
    Buffer.add_int64_le buf (Int64.of_int e.Entry.seq);
    Buffer.add_char buf 'p';
    Buffer.add_string buf digest;
    Sha256.feed_buffer f.f_out buf;
    f.f_post <- digest
  | content ->
    Buffer.add_char buf (Char.chr (0x40 + Entry.type_tag content));
    Sha256.feed_buffer f.f_in buf;
    Sha256.feed f.f_in (Entry.content_bytes content)

let fp_finish f =
  let key = Sha256.digest_list [ f.header; Sha256.finalize f.f_in ] in
  {
    key;
    peers = f.f_peers;
    post_state = f.f_post;
    outputs = Sha256.finalize f.f_out;
    bytes = f.f_bytes;
  }

let fingerprint ~image ?mem_words ?strict_landmarks ~peers ~pre_state entries =
  let f = fp_create ~image ?mem_words ?strict_landmarks ~peers ~pre_state () in
  List.iter (fp_feed f) entries;
  fp_finish f

(* --- the memo protocol --------------------------------------------------- *)

(* Spot-check designation is a pure function of (seed, fingerprint
   key): 1-in-rate keys always replay fully, hit or not, regardless of
   cache contents, worker count or audit order — which is exactly what
   keeps verdict vectors deterministic AND denies a cache-poisoning
   adversary any fingerprint that is safe to lie about. One verdict
   does depend on the table: a hit, or a replay that starts from a
   remembered state (DESIGN.md §24), fetches no snapshot, so a target
   that serves a forged one is caught by whichever of its jobs first
   needs the download. Which job that is can vary with the lane count;
   for targets whose snapshots match their logs, verdicts do not. *)
let spot_due t (p : print) =
  t.rate > 0
  && (let h = ref (Int64.to_int t.seed land max_int) in
      String.iter (fun c -> h := (((!h * 131) + Char.code c) land max_int)) p.key;
      !h mod t.rate = 0)

let miss t =
  Atomic.incr t.c_misses;
  Metrics.incr "replay.cache_misses";
  `Miss

(* Decide and count a lookup of [p], given what its stripe holds. *)
let find t ~fuel (p : print) found =
  match found with
  | Some { s_peers; s_peers_sensitive; s_post; s_outputs; s_counts = c }
    when String.equal s_post p.post_state
         && String.equal s_outputs p.outputs
         && ((not s_peers_sensitive) || String.equal s_peers p.peers)
         && c.instructions <= fuel ->
    if spot_due t p then begin
      Atomic.incr t.c_spots;
      Metrics.incr "replay.cache_spot_checks";
      `Spot c
    end
    else begin
      Atomic.incr t.c_hits;
      ignore (Atomic.fetch_and_add t.c_bytes p.bytes);
      ignore (Atomic.fetch_and_add t.c_instr c.instructions);
      Metrics.incr "replay.cache_hits";
      Metrics.incr ~by:p.bytes "replay.cache_bytes_saved";
      `Hit c
    end
  | Some _ ->
    (* Fingerprint collision with different claims: the canonical
       cheat shape. Full replay will produce the honest claims and
       diverge from this chunk's forged ones. *)
    Atomic.incr t.c_mismatches;
    Metrics.incr "replay.cache_claim_mismatches";
    miss t
  | None -> miss t

let remember t (p : print) ?(peers_sensitive = true) ~instructions ~entries_consumed () =
  with_stripe t p.key (fun s ->
      if not (Hashtbl.mem s.tbl p.key) then begin
        while Hashtbl.length s.tbl >= t.stripe_cap && not (Queue.is_empty s.order) do
          Hashtbl.remove s.tbl (Queue.pop s.order)
        done;
        Hashtbl.replace s.tbl p.key
          {
            s_peers = p.peers;
            s_peers_sensitive = peers_sensitive;
            s_post = p.post_state;
            s_outputs = p.outputs;
            s_counts = { instructions; entries_consumed };
          };
        Queue.add p.key s.order
      end)

(* Whether a replay thunk emitted guest packets, read off a per-domain
   count the replay engine bumps per emission (mapped or not) via
   {!note_packet_emitted}. A replay runs on the domain that called the
   thunk, so another domain's replay cannot move the count: whether a
   remembered chunk is peers-sensitive does not depend on what ran
   beside it. A dedicated cell rather than the metrics counter:
   reading a counter means merging every shard's full table, far too
   slow for once-per-miss. *)
let packets_emitted = Domain.DLS.new_key (fun () -> ref 0)
let note_packet_emitted () = incr (Domain.DLS.get packets_emitted)

let measure_replay f =
  let c = Domain.DLS.get packets_emitted in
  let e0 = !c in
  let r = f () in
  (r, !c > e0)

let confirm_spot t (p : print) ~matched =
  if not matched then begin
    Atomic.incr t.c_poisoned;
    Metrics.incr "replay.cache_poisoned";
    with_stripe t p.key (fun s -> Hashtbl.remove s.tbl p.key)
  end

(* --- the one protocol every cached replay path runs ---------------------- *)

type lookup = Off | Hit of cached | Spot of t * print * cached | Miss of t * print

(* The in-flight mark: a key being replayed by one [exclusive] caller
   is not looked up by another until the first has settled it, so each
   key is decided against the same table contents at any lane count.
   [decide] waits out a mark, looks the key up and, with [~mark], holds
   the mark itself unless the key hit. *)
let decide t ~fuel ~mark (p : print) =
  let s = stripe t p.key in
  with_lock s.lock (fun () ->
      while Hashtbl.mem s.flight p.key do
        Condition.wait s.landed s.lock
      done;
      match find t ~fuel p (Hashtbl.find_opt s.tbl p.key) with
      | `Hit c -> Hit c
      | `Spot c ->
        if mark then Hashtbl.replace s.flight p.key ();
        Spot (t, p, c)
      | `Miss ->
        if mark then Hashtbl.replace s.flight p.key ();
        Miss (t, p))

(* The mark is dropped however [f] returns. *)
let exclusive cache ~fuel print f =
  match cache with
  | Some t -> (
    let p = print () in
    match decide t ~fuel ~mark:true p with
    | Hit _ as l -> f l
    | l ->
      let s = stripe t p.key in
      Fun.protect
        ~finally:(fun () ->
          with_lock s.lock (fun () ->
              Hashtbl.remove s.flight p.key;
              Condition.broadcast s.landed))
        (fun () -> f l))
  | None -> f Off

let lookup cache ~fuel print =
  match cache with Some t -> decide t ~fuel ~mark:false (print ()) | None -> Off

(* A spot-designated hit must reproduce the cached counts exactly; a
   miss is remembered only when its replay verified. *)
let settle l ~emitted verified =
  match (l, verified) with
  | Spot (t, p, cached), _ -> confirm_spot t p ~matched:(verified = Some cached)
  | Miss (t, p), Some { instructions; entries_consumed } ->
    remember t p ~peers_sensitive:emitted ~instructions ~entries_consumed ()
  | (Off | Hit _ | Miss _), _ -> ()

(* --- verified states ------------------------------------------------------ *)

let states t = with_lock t.states.st_lock (fun () -> Hashtbl.length t.states.st_tbl)

let find_state t ~digest ~at_icount =
  let st = t.states in
  match with_lock st.st_lock (fun () -> Hashtbl.find_opt st.st_tbl digest) with
  | Some (a, m) when a = at_icount -> Some m
  | _ -> None

let remember_state t ~digest ~at_icount m =
  let st = t.states in
  let words = Machine.state_words m in
  words <= state_budget
  && with_lock st.st_lock (fun () ->
         if Hashtbl.mem st.st_tbl digest then false
         else begin
           while st.st_words + words > state_budget do
             let old = Queue.pop st.st_order in
             (match Hashtbl.find_opt st.st_tbl old with
             | Some (_, o) -> st.st_words <- st.st_words - Machine.state_words o
             | None -> ());
             Hashtbl.remove st.st_tbl old
           done;
           Hashtbl.replace st.st_tbl digest (at_icount, m);
           Queue.add digest st.st_order;
           st.st_words <- st.st_words + words;
           Metrics.set "replay_cache.states" (float_of_int (Hashtbl.length st.st_tbl));
           true
         end)
