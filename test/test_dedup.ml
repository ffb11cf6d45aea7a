(* Deduplicated re-execution (Replay_cache, DESIGN.md §14): the memo
   protocol's unit behavior, its adversarial edges — a planted cheat
   whose fingerprint collides with a cached honest chunk, and a
   poisoned table entry — and the QCheck equivalence property that
   audits draw identical verdicts with a cold, warm or cleared cache
   and with none, at 1 and 4 auditor jobs, over randomly tampered
   logs. *)

open Avm_core
open Avm_tamperlog
module Identity = Avm_crypto.Identity
module Rng = Avm_util.Rng

(* --- fixtures (a small echo session, as in test_core) -------------------- *)

let guest_src =
  {|
fn main() {
  out(NET_TX, 1);
  out(NET_TX, 77);
  out(NET_TX, in(CLOCK));
  out(NET_TX_SEND, 0);
  while (1) {
    var avail = in(NET_RX_AVAIL);
    while (avail > 0) {
      var len = in(NET_RX_LEN);
      out(NET_TX, 1);
      while (len > 0) { out(NET_TX, in(NET_RX) + 1); len = len - 1; }
      out(NET_RX_NEXT, 0);
      out(NET_TX_SEND, 0);
      avail = in(NET_RX_AVAIL);
    }
  }
}
|}

let guest_image = lazy (Avm_mlang.Compile.compile ~stack_top:4096 guest_src).Avm_isa.Asm.words
let image () = Lazy.force guest_image
let idrng = Rng.create 909L
let ca = Identity.create_ca idrng ~bits:512 "ca"
let alice = Identity.issue ca idrng ~bits:512 "alice"
let bob = Identity.issue ca idrng ~bits:512 "bob"
let cert_of name = Identity.certificate (if name = "alice" then alice else bob)
let peers_a = [ (0, "alice"); (1, "bob") ]
let peers_b = [ (0, "bob"); (1, "alice") ]

(* A recorded session of [slices] 10 ms slices (bob is the node under
   audit), with the authenticators a witness would have collected. *)
let record ?(mem_words = 4096) ~slices () =
  let config = Config.make ~snapshot_every_us:(Some 100_000) Config.Avmm_rsa768 in
  let a_out = Queue.create () and b_out = Queue.create () in
  let a =
    Avmm.create ~identity:alice ~config ~image:(image ()) ~mem_words
      ~peers:peers_a
      ~on_send:(fun e -> Queue.add e a_out)
      ()
  in
  let b =
    Avmm.create ~identity:bob ~config ~image:(image ()) ~mem_words ~peers:peers_b
      ~on_send:(fun e -> Queue.add e b_out)
      ()
  in
  let auths = ref [] in
  let shuttle src dst outq =
    while not (Queue.is_empty outq) do
      let env = Queue.pop outq in
      auths := env.Wireformat.auth :: !auths;
      match Avmm.deliver dst env ~sender_cert:(cert_of env.Wireformat.src) with
      | `Ack ack | `Duplicate ack ->
        ignore (Avmm.accept_ack src ack ~acker_cert:(cert_of ack.Wireformat.acker))
      | `Rejected r -> Alcotest.failf "rejected: %s" r
    done
  in
  let t = ref 0.0 in
  for _ = 1 to slices do
    t := !t +. 10_000.0;
    ignore (Avmm.run_slice a ~until_us:!t);
    ignore (Avmm.run_slice b ~until_us:!t);
    shuttle a b a_out;
    shuttle b a b_out
  done;
  (b, !auths)

(* Recorded once; the tests fork its log rather than re-running it. *)
let session = lazy (record ~slices:30 ())

let bob_ctx () =
  let _, auths = Lazy.force session in
  Audit.ctx ~node_cert:(cert_of "bob")
    ~peer_certs:[ ("alice", cert_of "alice"); ("bob", cert_of "bob") ]
    ~auths ()

let counts = function
  | Replay.Verified { instructions; entries_consumed } -> (instructions, entries_consumed)
  | o -> Alcotest.failf "expected verified, got %s" (Format.asprintf "%a" Replay.pp_outcome o)

(* --- unit: the memo protocol --------------------------------------------- *)

(* The memo tests run the library's one cached replay, a spot check of
   the chunk between bob's first two snapshots. *)
let chunk_bounds log =
  match Spot_check.boundaries log with
  | b0 :: b1 :: _ -> (b0, b1)
  | _ -> Alcotest.fail "session has fewer than two snapshots"

(* The chunk's entries and the fingerprint a check computes for them:
   keyed on the digest logged at the chunk's opening boundary. *)
let chunk_fingerprint log =
  let b0, b1 = chunk_bounds log in
  let pre_state =
    match (Log.entry log b0.Spot_check.entry_seq).Entry.content with
    | Entry.Snapshot_ref { digest; _ } -> digest
    | _ -> Alcotest.fail "boundary is not a Snapshot_ref"
  in
  let entries =
    Log.segment log ~from:(b0.Spot_check.entry_seq + 1) ~upto:b1.Spot_check.entry_seq
  in
  (entries, Replay_cache.fingerprint ~image:(image ()) ~mem_words:4096 ~peers:peers_b ~pre_state entries)

let check_chunk ~cache log =
  let b, _ = Lazy.force session in
  let b0, _ = chunk_bounds log in
  match
    Spot_check.check_chunk ~cache ~image:(image ()) ~mem_words:4096
      ~snapshots:(Avmm.snapshots b) ~log ~peers:peers_b
      ~start_snapshot:b0.Spot_check.snapshot_seq ~k:1 ()
  with
  | Ok r -> r.Spot_check.outcome
  | Error e -> Alcotest.failf "chunk not checkable: %s" e

(* The first entry of [kind] inside the checked chunk. *)
let first_in_chunk log kind =
  let entries, _ = chunk_fingerprint log in
  match List.find_opt (fun (e : Entry.t) -> kind e.Entry.content) entries with
  | Some e -> e
  | None -> Alcotest.fail "no such entry in the chunk"

let is_send = function Entry.Send _ -> true | _ -> false

(* Second check of the same chunk hits, and the hit reconstructs the
   first replay's exact Verified payload. *)
let test_hit_reconstructs_outcome () =
  let cache = Replay_cache.create ~spot_rate:0 () in
  let b, _ = Lazy.force session in
  let log = Avmm.log b in
  let first = check_chunk ~cache log in
  let second = check_chunk ~cache log in
  Alcotest.(check (pair int int)) "same payload" (counts first) (counts second);
  let s = Replay_cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Replay_cache.misses;
  Alcotest.(check int) "one hit" 1 s.Replay_cache.hits;
  Alcotest.(check bool) "bytes saved" true (s.Replay_cache.bytes_saved > 0)

(* A cheat that shares an honest chunk's inputs (hence its fingerprint
   key) cannot share its claims: the lookup must answer Miss, full
   replay must run, and the cheat must be caught — a poisoned-by-
   construction collision cannot launder a tampered log through a
   warm cache. *)
let test_planted_cheat_colliding_fingerprint_caught () =
  let cache = Replay_cache.create ~spot_rate:0 () in
  let b, _ = Lazy.force session in
  (* Warm the cache with the honest chunk. *)
  (match check_chunk ~cache (Avmm.log b) with
  | Replay.Verified _ -> ()
  | o -> Alcotest.failf "honest replay diverged: %s" (Format.asprintf "%a" Replay.pp_outcome o));
  (* Tamper a SEND payload: the payload is a claim (outputs digest),
     not an input — the tampered chunk fingerprints to the SAME key. *)
  let forked = Log.fork (Avmm.log b) in
  let send = first_in_chunk forked is_send in
  (match send.Entry.content with
  | Entry.Send s ->
    Log.tamper_reseal forked send.Entry.seq (Entry.Send { s with payload = s.payload ^ "x" })
  | _ -> assert false);
  let key log = Replay_cache.key_hex (snd (chunk_fingerprint log)) in
  Alcotest.(check string) "fingerprints collide" (key (Avmm.log b)) (key forked);
  (match check_chunk ~cache forked with
  | Replay.Diverged _ -> ()
  | Replay.Verified _ -> Alcotest.fail "tampered chunk laundered through the cache");
  let s = Replay_cache.stats cache in
  Alcotest.(check bool) "claim mismatch counted" true (s.Replay_cache.claim_mismatches >= 1)

(* Cache poisoning: an adversary writes the cheater's own claims into
   the table as "verified", so the lookup hits. At spot rate 1 every
   hit is designated for full replay: the replay diverges from the
   forged entry, the verdict stands, and the entry is evicted under
   [poisoned]. *)
let test_poisoned_entry_caught_by_spot_check () =
  let cache = Replay_cache.create ~spot_rate:1 () in
  let b, _ = Lazy.force session in
  let forked = Log.fork (Avmm.log b) in
  Log.tamper_reseal forked (first_in_chunk forked is_send).Entry.seq (Entry.Note "poisoned");
  let tampered, p = chunk_fingerprint forked in
  (* The poison: claims of the tampered log, fabricated counts. *)
  Replay_cache.remember cache p ~instructions:1 ~entries_consumed:(List.length tampered) ();
  (match check_chunk ~cache forked with
  | Replay.Diverged _ -> ()
  | Replay.Verified _ -> Alcotest.fail "poisoned cache entry laundered a cheat");
  let s = Replay_cache.stats cache in
  Alcotest.(check int) "spot designated" 1 s.Replay_cache.spot_checks;
  Alcotest.(check int) "poison detected and evicted" 1 s.Replay_cache.poisoned;
  Alcotest.(check int) "entry gone" 0 (Replay_cache.size cache)

(* Honest spot-designated hits replay fully, agree, and keep the entry. *)
let test_spot_check_confirms_honest_entry () =
  let cache = Replay_cache.create ~spot_rate:1 () in
  let b, _ = Lazy.force session in
  let log = Avmm.log b in
  let first = check_chunk ~cache log in
  let second = check_chunk ~cache log in
  Alcotest.(check (pair int int)) "same payload" (counts first) (counts second);
  let s = Replay_cache.stats cache in
  Alcotest.(check int) "spot designated" 1 s.Replay_cache.spot_checks;
  Alcotest.(check int) "no poison" 0 s.Replay_cache.poisoned;
  Alcotest.(check int) "entry kept" 1 (Replay_cache.size cache)

let test_fifo_bound () =
  let cache = Replay_cache.create ~capacity:4 ~stripes:1 ~spot_rate:0 () in
  for i = 1 to 10 do
    let p =
      Replay_cache.fingerprint ~image:(image ()) ~peers:[]
        ~pre_state:(Printf.sprintf "state-%d" i)
        []
    in
    Replay_cache.remember cache p ~instructions:i ~entries_consumed:0 ()
  done;
  Alcotest.(check bool) "bounded" true (Replay_cache.size cache <= 4);
  Alcotest.(check int) "capacity" 4 (Replay_cache.capacity cache)

(* --- the in-flight mark ----------------------------------------------------- *)

let print_of pre_state =
  Replay_cache.fingerprint ~image:(image ()) ~peers:[] ~pre_state []

(* A second lane's lookup of a key the first lane is replaying waits
   for it, then finds what the first lane remembered: a hit, not a
   second miss. *)
let test_exclusive_waits_for_settle () =
  let cache = Replay_cache.create ~spot_rate:0 () in
  let p = print_of "in-flight" in
  let kind = function
    | Replay_cache.Off -> "off"
    | Replay_cache.Hit _ -> "hit"
    | Replay_cache.Spot _ -> "spot"
    | Replay_cache.Miss _ -> "miss"
  in
  let other_done = Atomic.make false in
  let other = ref None in
  let first =
    Replay_cache.exclusive (Some cache) ~fuel:max_int (fun () -> p) (fun l ->
        other :=
          Some
            (Domain.spawn (fun () ->
                 let k = Replay_cache.exclusive (Some cache) ~fuel:max_int (fun () -> p) kind in
                 Atomic.set other_done true;
                 k));
        Unix.sleepf 0.05;
        (* The other lane cannot have decided while the mark is held. *)
        let waited = not (Atomic.get other_done) in
        Replay_cache.settle l ~emitted:false
          (Some { Replay_cache.instructions = 5; entries_consumed = 0 });
        (kind l, waited))
  in
  let second = Domain.join (Option.get !other) in
  Alcotest.(check (pair string bool)) "first lane replays, second waits" ("miss", true) first;
  Alcotest.(check string) "second lane hits" "hit" second;
  let s = Replay_cache.stats cache in
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1)
    (s.Replay_cache.misses, s.Replay_cache.hits)

(* The mark is dropped when the replay raises: a later lookup of the
   key, on another domain, neither waits forever nor finds anything. *)
let test_exclusive_releases_on_exception () =
  let cache = Replay_cache.create ~spot_rate:0 () in
  let p = print_of "raises" in
  (try Replay_cache.exclusive (Some cache) ~fuel:max_int (fun () -> p) (fun _ -> raise Exit)
   with Exit -> ());
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let miss =
          Replay_cache.exclusive (Some cache) ~fuel:max_int (fun () -> p) (function
            | Replay_cache.Miss _ -> true
            | _ -> false)
        in
        Atomic.set finished true;
        miss)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get finished) then Alcotest.fail "mark leaked: the second lookup never returned";
  Alcotest.(check bool) "nothing remembered by the failed replay" true (Domain.join d)

(* --- the verified-state table bound ----------------------------------------- *)

(* Check every k=1 chunk of bob's log twice with one cache, every hit
   spot-designated so each chunk replays from a start state. With a
   4,096-word guest every state fits; with a 2^20-word one only two fit
   in [Replay_cache.state_budget], so the table evicts as it goes.
   Either way it stays within the budget and the outcomes equal the
   cacheless ones. *)
let test_state_table_bound () =
  List.iter
    (fun (mem_words, slices, max_states) ->
      let what = Printf.sprintf "%d-word guest" mem_words in
      let b, _ = record ~mem_words ~slices () in
      let log = Avmm.log b and snapshots = Avmm.snapshots b in
      let plan = Spot_check.plan ~log ~snapshots in
      let check ?cache (bd : Spot_check.boundary) =
        match
          Spot_check.check_chunk ~plan ?cache ~image:(image ()) ~mem_words ~snapshots ~log
            ~peers:peers_b ~start_snapshot:bd.Spot_check.snapshot_seq ~k:1 ()
        with
        | Ok r -> Ok (r.Spot_check.outcome, r.Spot_check.replay_instructions)
        | Error e -> Error e
      in
      let bounds = Spot_check.plan_boundaries plan in
      Alcotest.(check bool) (what ^ ": several chunks") true (List.length bounds >= 4);
      let baseline = List.map (fun bd -> check bd) bounds in
      let cache = Replay_cache.create ~spot_rate:1 () in
      let held = ref 0 in
      let pass () =
        List.map
          (fun bd ->
            let r = check ~cache bd in
            held := max !held (Replay_cache.states cache);
            r)
          bounds
      in
      let reused () =
        Avm_obs.Metrics.counter (Avm_obs.Metrics.snapshot ()) "spot_check.states_reused"
      in
      let reused0 = reused () in
      let cold = pass () in
      let warm = pass () in
      Alcotest.(check bool) (what ^ ": states reused") true (reused () > reused0);
      Alcotest.(check bool) (what ^ ": cold = cacheless") true (cold = baseline);
      Alcotest.(check bool) (what ^ ": warm = cacheless") true (warm = baseline);
      Alcotest.(check bool)
        (Printf.sprintf "%s: at most %d states held (saw %d)" what max_states !held)
        true (!held <= max_states);
      Alcotest.(check bool) (what ^ ": the table filled") true (!held >= min 2 max_states))
    [
      (4096, 80, Replay_cache.state_budget / 4096);
      (1 lsl 20, 60, Replay_cache.state_budget / (1 lsl 20));
    ]

(* --- QCheck: audit equivalence cache-on/off/cleared, jobs 1 and 4 -------- *)

(* One audit's verdict-relevant projection. *)
let project (o : Audit.outcome) =
  ( (match o.Audit.verdict with Ok () -> None | Error e -> Some e),
    o.Audit.syntactic.Audit.failures,
    match o.Audit.semantic with
    | Some (Replay.Verified { instructions; entries_consumed }) ->
      Some (instructions, entries_consumed)
    | Some (Replay.Diverged d) -> Some (Option.value d.Replay.entry_seq ~default:0, -1)
    | None -> None )

let equivalence_prop =
  QCheck2.Test.make ~count:8 ~name:"audit verdicts: cache on = off = cleared, jobs 1 and 4"
    QCheck2.Gen.(pair (int_bound 1000) bool)
    (fun (salt, tamper) ->
      let b, _ = Lazy.force session in
      let log = Log.fork (Avmm.log b) in
      let n = Log.length log in
      if tamper then begin
        (* Mutate a random committed entry, reseal the chain after it —
           the strong attacker from test_core's completeness property. *)
        let seq = 1 + (salt mod (n - 1)) in
        let mutated =
          match (Log.entry log seq).Entry.content with
          | Entry.Send s -> Entry.Send { s with payload = s.payload ^ "x" }
          | Entry.Recv r -> Entry.Recv { r with payload = r.payload ^ "x" }
          | Entry.Ack k -> Entry.Ack { k with acked_seq = k.acked_seq + 1 }
          | Entry.Exec (Avm_machine.Event.Io_in io) ->
            Entry.Exec
              (Avm_machine.Event.Io_in { io with value = (io.value + 1) land 0xffffffff })
          | Entry.Snapshot_ref sr ->
            Entry.Snapshot_ref { sr with digest = Avm_crypto.Sha256.digest sr.digest }
          | c -> Entry.Note (Entry.describe c ^ "!")
        in
        Log.tamper_reseal log seq mutated
      end;
      let snapshots = Avmm.snapshots b in
      let plan = Spot_check.plan ~log ~snapshots in
      (* The batch audit (whole-log memo) and a k=1 spot check of every
         chunk (per-chunk memo off the logged boundary digests). *)
      let audit ?cache jobs =
        ( project
            (Audit.full_of_log ~ctx:(bob_ctx ()) ~image:(image ()) ~mem_words:4096
               ~peers:peers_b ?cache ~log ~par:(Audit.parallel jobs) ()),
          List.map
            (fun (bd : Spot_check.boundary) ->
              match
                Spot_check.check_chunk ~plan ?cache ~image:(image ()) ~mem_words:4096
                  ~snapshots ~log ~peers:peers_b ~start_snapshot:bd.Spot_check.snapshot_seq
                  ~k:1 ()
              with
              | Ok r -> Ok r.Spot_check.outcome
              | Error e -> Error e)
            (Spot_check.plan_boundaries plan) )
      in
      let baseline = audit 1 in
      List.for_all
        (fun jobs ->
          let cache = Replay_cache.create ~spot_rate:8 ~seed:(Int64.of_int salt) () in
          let cold = audit ~cache jobs in
          let warm = audit ~cache jobs in
          Replay_cache.clear cache;
          let cleared = audit ~cache jobs in
          let plain = audit jobs in
          if
            not
              (baseline = cold && baseline = warm && baseline = cleared
             && baseline = plain)
          then
            QCheck2.Test.fail_reportf
              "verdict differs at jobs=%d (tamper=%b salt=%d): cold/warm/cleared/plain \
               must equal the no-cache baseline"
              jobs tamper salt
          else true)
        [ 1; 4 ])

let () =
  Alcotest.run "dedup"
    [
      ( "replay_cache",
        [
          Alcotest.test_case "hit reconstructs outcome" `Quick test_hit_reconstructs_outcome;
          Alcotest.test_case "colliding-fingerprint cheat caught" `Quick
            test_planted_cheat_colliding_fingerprint_caught;
          Alcotest.test_case "poisoned entry caught by spot check" `Quick
            test_poisoned_entry_caught_by_spot_check;
          Alcotest.test_case "spot check confirms honest entry" `Quick
            test_spot_check_confirms_honest_entry;
          Alcotest.test_case "fifo bound" `Quick test_fifo_bound;
          Alcotest.test_case "exclusive: concurrent lookup waits for settle" `Quick
            test_exclusive_waits_for_settle;
          Alcotest.test_case "exclusive: mark dropped on exception" `Quick
            test_exclusive_releases_on_exception;
          Alcotest.test_case "state table: bounded, verdicts unchanged" `Quick
            test_state_table_bound;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest ~long:false equivalence_prop ] );
    ]
