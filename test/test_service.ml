open Avm_core
open Avm_tamperlog
module Identity = Avm_crypto.Identity
module Rng = Avm_util.Rng
module Daemon = Avm_service.Daemon
module H = Avm_scenario.Fleet_harness
module Session = Online_audit.Session

(* Session-level fixtures: one accountable machine running a small
   guest, so the backpressure and mid-session-verdict paths can be
   driven by hand without the netsim fleet. *)

let guest_src =
  {|
global n;

fn main() {
  while (1) {
    var t = in(CLOCK);
    n = n + (t & 3);
  }
}
|}

let guest_image () = (Avm_mlang.Compile.compile ~stack_top:4096 guest_src).Avm_isa.Asm.words

let rng = Rng.create 991L
let ca = Identity.create_ca rng ~bits:512 "ca"
let carol = Identity.issue ca rng ~bits:512 "carol"
let peers = [ (0, "carol") ]
let carol_ctx = Audit.ctx ~node_cert:(Identity.certificate carol) ()

let recorded_log ~slices () =
  let config = Config.make ~snapshot_every_us:(Some 50_000) Config.Avmm_rsa768 in
  let m =
    Avmm.create ~identity:carol ~config ~image:(guest_image ()) ~mem_words:4096 ~peers
      ~on_send:(fun _ -> ()) ()
  in
  let t = ref 0.0 in
  for _ = 1 to slices do
    t := !t +. 10_000.0;
    ignore (Avmm.run_slice m ~until_us:!t)
  done;
  Avmm.log m

let counter name = Avm_obs.Metrics.counter (Avm_obs.Metrics.snapshot ()) name

(* --- backpressure --------------------------------------------------------- *)

(* Ingest refuses above the high watermark, keeps refusing until replay
   drains the lag under the low watermark (hysteresis), then accepts
   again — with the engaged/released counters ticking once each. *)
let test_backpressure_watermarks () =
  let log = recorded_log ~slices:40 () in
  let n = Log.length log in
  Alcotest.(check bool) "enough entries to overflow" true (n > 12);
  let s =
    Session.open_session ~ctx:carol_ctx ~image:(guest_image ()) ~mem_words:4096 ~high_watermark:8
      ~low_watermark:4 ~peers ()
  in
  let engaged0 = counter "online_audit.backpressure_engaged" in
  let released0 = counter "online_audit.backpressure_released" in
  (* The watermark is checked before pulling, so an offer of 9 entries
     is accepted wholesale and only the next one sees the oversized
     lag. *)
  (match Session.ingest ~upto:9 s log with
  | `Accepted -> ()
  | `Backpressure _ -> Alcotest.fail "first ingest must be accepted");
  Alcotest.(check int) "everything buffered" 9 (Session.lag_entries s);
  (match Session.ingest s log with
  | `Backpressure lag -> Alcotest.(check int) "refusal reports the lag" 9 lag
  | `Accepted -> Alcotest.fail "ingest above the high watermark must refuse");
  Alcotest.(check bool) "status shows throttled" true (Session.status s).Online_audit.throttled;
  Alcotest.(check int) "engaged counter ticked" (engaged0 + 1)
    (counter "online_audit.backpressure_engaged");
  (* Drain a handful of instructions at a time so the lag walks down
     through the hysteresis band entry by entry; while it sits between
     the watermarks the session must keep refusing, and once it drops
     under the low mark the next offer is accepted. *)
  let saw_hysteresis = ref false in
  let rounds = ref 0 in
  while Session.lag_entries s > 4 && !rounds < 100_000 do
    incr rounds;
    ignore (Session.step s ~budget_instructions:5 : Online_audit.verdict option);
    let lag = Session.lag_entries s in
    if lag <= 8 && lag > 4 then
      match Session.ingest s log with
      | `Backpressure _ -> saw_hysteresis := true
      | `Accepted -> Alcotest.fail "accepted between the watermarks while throttled"
  done;
  Alcotest.(check bool) "drained under the low watermark" true (Session.lag_entries s <= 4);
  Alcotest.(check bool) "lag passed through the hysteresis band" true !saw_hysteresis;
  (match Session.ingest s log with
  | `Accepted -> ()
  | `Backpressure _ -> Alcotest.fail "ingest under the low watermark must accept");
  Alcotest.(check bool) "throttle released" false (Session.status s).Online_audit.throttled;
  Alcotest.(check int) "released counter ticked" (released0 + 1)
    (counter "online_audit.backpressure_released");
  (* The session is still honest: drain fully and close clean. *)
  while Session.lag_entries s > 0 do
    ignore (Session.step s ~budget_instructions:10_000_000 : Online_audit.verdict option)
  done;
  Alcotest.(check bool) "honest log closes clean" true (Session.close s = None)

(* --- mid-session verdict -------------------------------------------------- *)

(* A tampered entry in the second half of the log is reported by the
   very ingest that observes it — before close — naming the entry. *)
let test_cheat_reported_before_close () =
  let log = recorded_log ~slices:40 () in
  let n = Log.length log in
  let s = Session.open_session ~ctx:carol_ctx ~image:(guest_image ()) ~mem_words:4096 ~peers () in
  let half = n / 2 in
  (match Session.ingest ~upto:half s log with
  | `Accepted -> ()
  | `Backpressure _ -> Alcotest.fail "first half refused");
  while Session.lag_entries s > 0 do
    ignore (Session.step s ~budget_instructions:10_000_000 : Online_audit.verdict option)
  done;
  Alcotest.(check bool) "clean so far" true
    ((Session.status s).Online_audit.verdict = None);
  let tampered_seq = half + ((n - half) / 2) + 1 in
  Log.tamper_replace log tampered_seq (Entry.Note "rewritten");
  (match Session.ingest s log with
  | `Accepted | `Backpressure _ -> ());
  (match (Session.status s).Online_audit.verdict with
  | Some (Online_audit.Tampered { entry_seq = Some seq; _ }) ->
    Alcotest.(check int) "verdict names the tampered entry" tampered_seq seq
  | v ->
    Alcotest.failf "expected a Tampered verdict before close, got %s"
      (match v with
      | None -> "no verdict"
      | Some v -> Format.asprintf "%a" Online_audit.pp_verdict v));
  match Session.close s with
  | Some (Online_audit.Tampered _) -> ()
  | _ -> Alcotest.fail "close must repeat the terminal verdict"

(* --- daemon: evidence built at the verdict ---------------------------- *)

(* A daemon verdict's outcome is built when the verdict lands, from
   what the session holds, and reads no log: a producer that rewrites
   an earlier entry and keeps appending afterwards changes no evidence.
   The verdict is a chain break, which unsigned entries cannot show a
   third party, so the evidence is the challenge for carol's first
   collected authenticator at or after the broken entry. *)
let test_daemon_evidence_pinned_at_verdict () =
  let log = recorded_log ~slices:40 () in
  let n = Log.length log in
  let auths =
    List.filter_map
      (fun seq ->
        if seq mod 10 = 0 then
          Some (Auth.make carol ~entry:(Log.entry log seq) ~prev_hash:(Log.prev_hash log seq))
        else None)
      (List.init n (fun i -> i + 1))
  in
  let ctx = Audit.ctx ~node_cert:(Identity.certificate carol) ~auths () in
  let events = ref [] and at_verdict = ref None in
  let on_verdict (ev : Daemon.event) =
    at_verdict := Option.map Evidence.encode ev.Daemon.ev_outcome.Audit.evidence;
    events := ev :: !events
  in
  let d = Daemon.create ~on_verdict () in
  Daemon.attach d ~id:"carol" ~ctx ~image:(guest_image ()) ~mem_words:4096 ~peers ();
  let half = n / 2 in
  let first_half = Log.fork log in
  Log.tamper_truncate first_half half;
  ignore (Daemon.ingest d ~id:"carol" first_half : [ `Accepted | `Backpressure of int ]);
  ignore (Daemon.pump d ~budget_instructions:max_int () : int);
  let tampered_seq = half + ((n - half) / 2) + 1 in
  Log.tamper_replace log tampered_seq (Entry.Note "rewritten");
  ignore (Daemon.ingest d ~id:"carol" log : [ `Accepted | `Backpressure of int ]);
  let ev =
    match !events with [ ev ] -> ev | l -> Alcotest.failf "expected one event, got %d" (List.length l)
  in
  Alcotest.(check (option int)) "verdict names the entry" (Some tampered_seq) ev.Daemon.ev_entry_seq;
  Log.tamper_replace log 3 (Entry.Note "rewritten later");
  for _ = 1 to 20 do
    ignore (Log.append log (Entry.Note "after the verdict") : Entry.t)
  done;
  ignore (Daemon.ingest d ~id:"carol" log : [ `Accepted | `Backpressure of int ]);
  ignore (Daemon.detach d ~id:"carol" : Daemon.event option);
  match ev.Daemon.ev_outcome.Audit.evidence with
  | Some ({ Evidence.accusation = Evidence.Unanswered_challenge { auth }; _ } as e) ->
    Alcotest.(check (option string)) "the producer's later tampering changes nothing" !at_verdict
      (Some (Evidence.encode e));
    Alcotest.(check int) "challenges the first authenticator from the broken entry"
      (((tampered_seq + 9) / 10) * 10) auth.Auth.seq;
    Alcotest.(check bool) "the challenge is genuine" true
      (Evidence.challenge_genuine e ~node_cert:(Identity.certificate carol));
    Alcotest.(check bool) "and proves nothing" false
      (Audit.check_evidence e ~ctx:carol_ctx ~image:(guest_image ()) ~mem_words:4096 ~peers ())
  | _ -> Alcotest.fail "a chain break with collected authenticators carries a challenge"

(* A divergence found before any collected authenticator covers it
   carries no evidence when the event fires. Once carol's authenticator
   for a later entry is offered and the log ingested up to it, the
   daemon's outcome is the signed chunk, which a third party confirms. *)
let test_daemon_cover_after_verdict () =
  let config = Config.make ~snapshot_every_us:(Some 50_000) Config.Avmm_rsa768 in
  let m =
    Avmm.create ~identity:carol ~config ~image:(guest_image ()) ~mem_words:4096 ~peers
      ~on_send:(fun _ -> ()) ()
  in
  let addr = Avm_isa.Asm.symbol (Avm_mlang.Compile.compile ~stack_top:4096 guest_src) "g_n" in
  let events = ref [] in
  let d = Daemon.create ~on_verdict:(fun ev -> events := ev :: !events) () in
  Daemon.attach d ~id:"carol" ~ctx:carol_ctx ~image:(guest_image ()) ~mem_words:4096 ~peers ();
  let t = ref 0.0 in
  let slice () =
    t := !t +. 10_000.0;
    ignore (Avmm.run_slice m ~until_us:!t);
    ignore (Daemon.ingest d ~id:"carol" (Avmm.log m) : [ `Accepted | `Backpressure of int ]);
    ignore (Daemon.pump d ~budget_instructions:max_int () : int)
  in
  for i = 1 to 30 do
    if i = 8 then Avmm.poke m ~addr ~value:4242;
    if !events = [] then slice ()
  done;
  let ev = match !events with [ ev ] -> ev | _ -> Alcotest.fail "expected one verdict" in
  (match ev.Daemon.ev_verdict with
  | Online_audit.Diverged _ -> ()
  | v -> Alcotest.failf "expected a divergence, got %a" Online_audit.pp_verdict v);
  Alcotest.(check bool) "no authenticator yet: no evidence" true
    (ev.Daemon.ev_outcome.Audit.evidence = None);
  for _ = 1 to 3 do
    slice ()
  done;
  let log = Avmm.log m in
  let n = Log.length log in
  (match
     Daemon.offer_auth d ~id:"carol"
       (Auth.make carol ~entry:(Log.entry log n) ~prev_hash:(Log.prev_hash log n))
   with
  | Witness.Fresh -> ()
  | _ -> Alcotest.fail "a genuine authenticator is fresh");
  slice ();
  Alcotest.(check int) "the verdict fired once" 1 (List.length !events);
  match (Daemon.outcome d ~id:"carol").Audit.evidence with
  | Some ({ Evidence.accusation = Evidence.Replay_divergence { chunk; _ }; _ } as e) ->
    Alcotest.(check int) "covered by the offered authenticator" n chunk.Evidence.cover.Auth.seq;
    Alcotest.(check bool) "third party confirms" true
      (Audit.check_evidence e ~ctx:carol_ctx ~image:(guest_image ()) ~mem_words:4096 ~peers ())
  | Some e -> Alcotest.failf "not a signed chunk: %s" (Evidence.describe e)
  | None -> Alcotest.fail "no evidence after the cover arrived"

(* --- daemon: bounded lag at steady state ---------------------------------- *)

let small_spec = { H.service with H.seed = 23L }
let small_size = { H.service.smoke with H.nodes = 8; epochs = 2; key_pool = 8 }

let test_lag_bounded_steady_state () =
  let o = H.run { small_spec with H.cheat_frac = 0.0 } small_size in
  Alcotest.(check (list int)) "no false flags" [] (H.false_flagged o);
  Alcotest.(check (list int)) "nothing to miss" [] (H.missed o);
  Alcotest.(check (list int)) "every session drained" [] o.H.undrained;
  Alcotest.(check bool) "entries flowed" true (H.count o "entries_ingested" > 0);
  Alcotest.(check bool) "p99 lag within the bound" true (H.lag o 99.0 <= H.max_lag);
  Alcotest.(check bool) "worst sampled lag within the bound" true (H.lag o 100.0 <= H.max_lag)

(* --- daemon: cheats detected with the right chunk/entry ------------------- *)

let cheat_spec = { small_spec with H.cheat_frac = 0.25 }
let cheat_size = { small_size with H.nodes = 12 }

let test_cheats_located () =
  let o = H.run cheat_spec cheat_size in
  Alcotest.(check bool) "some cheats planted" true (o.H.cheats <> []);
  Alcotest.(check (list int)) "all cheats detected" [] (H.missed o);
  Alcotest.(check (list int)) "no honest session flagged" [] (H.false_flagged o);
  List.iter
    (fun (c : H.cheat) ->
      let id = Printf.sprintf "n%d" c.node in
      match List.find_opt (fun (ev : Daemon.event) -> ev.Daemon.ev_session = id) o.H.events with
      | None -> Alcotest.failf "no event delivered for cheater %s" id
      | Some ev -> (
        match c.adversary with
        | H.Poke ->
          (* One chunk per epoch (the baseline snapshot is chunk 0), so
             a poke in epoch e diverges in chunk e — exactly e chunks
             retire first. *)
          Alcotest.(check int)
            (id ^ ": divergence lands in the cheat epoch's chunk")
            c.epoch ev.Daemon.ev_chunk
        | H.Rewrite -> (
          match (ev.Daemon.ev_verdict, ev.Daemon.ev_entry_seq) with
          | Online_audit.Tampered _, Some _ -> ()
          | _ -> Alcotest.failf "%s: rewrite must yield a Tampered verdict naming the entry" id)
        | H.Fork -> Alcotest.failf "%s: the service mix plants no forks" id))
    o.H.cheats

(* --- daemon: verdict vector invariants ------------------------------------ *)

(* The verdict vector (who is flagged, with what, at which entry) must
   not depend on pump parallelism or on the shared replay cache. *)
let test_verdicts_invariant_jobs_and_cache () =
  let base = H.run cheat_spec cheat_size in
  let sig_base = H.signature base in
  Alcotest.(check bool) "baseline detects the cheats" true (H.detected base <> []);
  let jobs4 = H.run ~jobs:4 cheat_spec cheat_size in
  Alcotest.(check string) "jobs 1 = jobs 4" sig_base (H.signature jobs4);
  let nocache = H.run ~dedup:false cheat_spec cheat_size in
  Alcotest.(check string) "cache on = cache off" sig_base (H.signature nocache);
  Alcotest.(check bool) "cache-on run actually hit the cache" true
    (match base.H.cache with Some s -> s.Replay_cache.hits > 0 | None -> false)

let () =
  Alcotest.run "avm_service"
    [
      ( "backpressure",
        [ Alcotest.test_case "watermarks engage and release" `Quick test_backpressure_watermarks ] );
      ( "online-verdicts",
        [
          Alcotest.test_case "mid-session cheat reported before close" `Quick
            test_cheat_reported_before_close;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "evidence pinned at the verdict" `Quick
            test_daemon_evidence_pinned_at_verdict;
          Alcotest.test_case "cover offered after the verdict" `Quick test_daemon_cover_after_verdict;
          Alcotest.test_case "lag bounded at steady state" `Slow test_lag_bounded_steady_state;
          Alcotest.test_case "cheats located by chunk and entry" `Slow test_cheats_located;
          Alcotest.test_case "verdicts invariant across jobs and cache" `Slow
            test_verdicts_invariant_jobs_and_cache;
        ] );
    ]
