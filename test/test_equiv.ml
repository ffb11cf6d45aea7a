open Avm_core
open Avm_tamperlog
module Identity = Avm_crypto.Identity
module Rng = Avm_util.Rng
module Witness = Avm_core.Witness
module Daemon = Avm_service.Daemon
module H = Avm_scenario.Fleet_harness

(* Fixtures: one identity whose log we commit to honestly, plus a
   second to play the wrong-certificate offerer. *)

let rng = Rng.create 417L
let ca = Identity.create_ca rng ~bits:512 "ca"
let alice = Identity.issue ca rng ~bits:512 "alice"
let bob = Identity.issue ca rng ~bits:512 "bob"
let alice_cert = Identity.certificate alice
let bob_cert = Identity.certificate bob

(* An honest log of [n] Note entries and alice's authenticator over
   each — the commitment stream a witness would collect. *)
let honest_auths n =
  let log = Log.create () in
  List.init n (fun i ->
      let prev = Log.head_hash log in
      let entry = Log.append log (Entry.Note (Printf.sprintf "note %d" i)) in
      Auth.make alice ~entry ~prev_hash:prev)

(* A conflicting head for the same seq: a different Note sealed onto
   the same prev, signed with alice's real key — genuine equivocation. *)
let conflicting_auth (a : Auth.t) =
  let entry =
    Entry.seal ~prev:a.Auth.prev_hash ~seq:a.Auth.seq (Entry.Note "the other history")
  in
  Auth.make alice ~entry ~prev_hash:a.Auth.prev_hash

(* --- Auth.conflicts and the Equivocation evidence ------------------------- *)

let test_conflicts_predicate () =
  let auths = honest_auths 3 in
  let a = List.nth auths 1 in
  let b = conflicting_auth a in
  Alcotest.(check bool) "forked pair conflicts" true (Auth.conflicts a b);
  Alcotest.(check bool) "symmetric" true (Auth.conflicts b a);
  Alcotest.(check bool) "self" false (Auth.conflicts a a);
  Alcotest.(check bool) "different seqs" false (Auth.conflicts a (List.nth auths 2));
  Alcotest.(check bool) "both verify" true (Auth.verify alice_cert a && Auth.verify alice_cert b)

let test_evidence_roundtrip_and_check () =
  let a = List.nth (honest_auths 2) 1 in
  let b = conflicting_auth a in
  let ev =
    {
      Evidence.accused = "alice";
      prev_hash = "";
      segment = [];
      auths = [];
      accusation = Evidence.Equivocation { a; b };
    }
  in
  let ev' = Evidence.decode (Evidence.encode ev) in
  (match ev'.Evidence.accusation with
  | Evidence.Equivocation { a = a'; b = b' } ->
    Alcotest.(check bool) "auths survive the wire" true (a = a' && b = b')
  | _ -> Alcotest.fail "accusation tag lost in roundtrip");
  (* A third party verifies with only the accused's certificate — no
     log, no image, no peers. *)
  let ctx = Audit.ctx ~node_cert:alice_cert () in
  Alcotest.(check bool) "checks standalone" true
    (Audit.check_evidence ev' ~ctx ~image:[||] ~peers:[] ());
  (* Under the wrong certificate it proves nothing. *)
  let bob_ctx = Audit.ctx ~node_cert:bob_cert () in
  Alcotest.(check bool) "wrong cert rejected" false
    (Audit.check_evidence ev ~ctx:bob_ctx ~image:[||] ~peers:[] ());
  (* A non-conflicting pair is an unsupported claim. *)
  let bogus = { ev with Evidence.accusation = Evidence.Equivocation { a; b = a } } in
  Alcotest.(check bool) "same-hash pair rejected" false
    (Audit.check_evidence bogus ~ctx ~image:[||] ~peers:[] ());
  (* A corrupt signature on either half invalidates the proof. *)
  let corrupt (x : Auth.t) =
    let s = Bytes.of_string x.Auth.signature in
    Bytes.set s 0 (Char.chr (Char.code (Bytes.get s 0) lxor 1));
    { x with Auth.signature = Bytes.to_string s }
  in
  let forged = { ev with Evidence.accusation = Evidence.Equivocation { a; b = corrupt b } } in
  Alcotest.(check bool) "corrupt half rejected" false
    (Audit.check_evidence forged ~ctx ~image:[||] ~peers:[] ())

(* --- Witness.offer ------------------------------------------------------- *)

let test_offer_semantics () =
  let store = Witness.equiv_store () in
  let auths = honest_auths 3 in
  let a = List.nth auths 1 in
  List.iter
    (fun x ->
      match Witness.offer store ~cert:alice_cert x with
      | Witness.Fresh -> ()
      | _ -> Alcotest.fail "first offer of each seq should be Fresh")
    auths;
  (match Witness.offer store ~cert:alice_cert a with
  | Witness.Known -> ()
  | _ -> Alcotest.fail "honest retransmission should be Known");
  (match Witness.offer store ~cert:bob_cert a with
  | Witness.Rejected _ -> ()
  | _ -> Alcotest.fail "wrong certificate should be Rejected");
  Alcotest.(check int) "no proofs from honest offers" 0
    (List.length (Witness.equiv_proofs store));
  let b = conflicting_auth a in
  (match Witness.offer store ~cert:alice_cert b with
  | Witness.Conflict ev ->
    Alcotest.(check string) "accuses alice" "alice" ev.Evidence.accused;
    let ctx = Audit.ctx ~node_cert:alice_cert () in
    Alcotest.(check bool) "proof verifies" true
      (Audit.check_evidence ev ~ctx ~image:[||] ~peers:[] ())
  | _ -> Alcotest.fail "conflicting head should be Conflict");
  Alcotest.(check int) "one proof banked" 1 (List.length (Witness.equiv_proofs store))

let test_offer_conservative_on_corruption () =
  (* A corrupt copy of a would-be conflicting head must be dropped
     without accusing anyone — only a verified pair is a proof. *)
  let store = Witness.equiv_store () in
  let a = List.nth (honest_auths 2) 1 in
  (match Witness.offer store ~cert:alice_cert a with
  | Witness.Fresh -> ()
  | _ -> Alcotest.fail "expected Fresh");
  let b = conflicting_auth a in
  let corrupt_sig =
    let s = Bytes.of_string b.Auth.signature in
    Bytes.set s 1 (Char.chr (Char.code (Bytes.get s 1) lxor 0x40));
    { b with Auth.signature = Bytes.to_string s }
  in
  (match Witness.offer store ~cert:alice_cert corrupt_sig with
  | Witness.Rejected _ -> ()
  | _ -> Alcotest.fail "corrupt signature must be Rejected");
  let corrupt_hash = { b with Auth.hash = String.map (fun c -> Char.chr (Char.code c lxor 1)) b.Auth.hash } in
  (match Witness.offer store ~cert:alice_cert corrupt_hash with
  | Witness.Rejected _ -> ()
  | _ -> Alcotest.fail "inconsistent hash must be Rejected");
  Alcotest.(check int) "no proof from corruption" 0 (List.length (Witness.equiv_proofs store));
  (* The genuine second head still pairs with the stored first. *)
  match Witness.offer store ~cert:alice_cert b with
  | Witness.Conflict _ -> ()
  | _ -> Alcotest.fail "genuine conflicting head should still convict"

(* QCheck: no pile of forged, replayed or honestly-duplicated copies
   of honest authenticators ever yields an equivocation proof. Only a
   second history actually signed by the key can. *)
let prop_no_false_proof =
  let gen =
    QCheck2.Gen.(
      pair (int_range 2 8)
        (list_size (int_range 1 30) (pair (int_range 0 5) (int_range 0 7))))
  in
  QCheck2.Test.make ~count:40 ~name:"forgeries and replays never convict" gen
    (fun (n, script) ->
      let auths = Array.of_list (honest_auths n) in
      let store = Witness.equiv_store () in
      List.iter
        (fun (mutation, idx) ->
          let a = auths.(idx mod n) in
          let offered =
            match mutation with
            | 0 -> a (* honest duplicate *)
            | 1 ->
              let s = Bytes.of_string a.Auth.signature in
              Bytes.set s 0 (Char.chr (Char.code (Bytes.get s 0) lxor 1));
              { a with Auth.signature = Bytes.to_string s }
            | 2 -> { a with Auth.hash = a.Auth.prev_hash } (* spliced hash *)
            | 3 -> { a with Auth.seq = a.Auth.seq + 1 } (* replayed at wrong seq *)
            | 4 -> { a with Auth.content_digest = String.make 32 '\000' }
            | _ -> { a with Auth.node = "bob" } (* stolen identity *)
          in
          match Witness.offer store ~cert:alice_cert offered with
          | Witness.Conflict _ ->
            QCheck2.Test.fail_report "a forged or replayed copy produced a proof"
          | Witness.Fresh | Witness.Known | Witness.Rejected _ -> ())
        script;
      Witness.equiv_proofs store = [])

(* --- the ingress dedup window (satellite) --------------------------------- *)

let make_target ~window =
  let config =
    Config.make ~snapshot_every_us:None ~rx_dedup_window:window Config.Avmm_rsa768
  in
  let image = [| 0 |] in
  (* HALT: the guest never runs; we only exercise ingress *)
  Avmm.create ~identity:bob ~config ~image ~mem_words:1024
    ~peers:[ (0, "bob"); (1, "alice") ]
    ~on_send:(fun _ -> ())
    ()

let envelope log ~nonce =
  let payload = Printf.sprintf "p%03d" nonce in
  let prev = Log.head_hash log in
  let entry = Log.append log (Entry.Send { dest = "bob"; nonce; payload }) in
  let auth = Auth.make alice ~entry ~prev_hash:prev in
  let signature =
    Identity.sign alice (Wireformat.message_body ~src:"alice" ~dest:"bob" ~nonce ~payload)
  in
  { Wireformat.src = "alice"; dest = "bob"; nonce; payload; signature; auth }

let test_seen_window_bounded () =
  let evicted0 = Avm_obs.Metrics.counter (Avm_obs.Metrics.snapshot ()) "net.seen_evicted" in
  let b = make_target ~window:4 in
  let log = Log.create () in
  let envs = List.init 6 (fun i -> envelope log ~nonce:(i + 1)) in
  let deliver e =
    Avmm.deliver b e ~sender_cert:alice_cert
  in
  let first4 = List.filteri (fun i _ -> i < 4) envs in
  List.iter
    (fun e ->
      match deliver e with
      | `Ack _ -> ()
      | _ -> Alcotest.fail "fresh envelope not acked")
    first4;
  Alcotest.(check int) "cache holds the window" 4 (Avmm.seen_size b);
  (* Within the window a retransmission is still recognized. *)
  (match deliver (List.nth envs 0) with
  | `Duplicate _ -> ()
  | _ -> Alcotest.fail "retransmission within window not deduplicated");
  (* Two more fresh envelopes evict the two oldest; the cache never
     grows past the configured window (the unbounded-memory bug). *)
  (match deliver (List.nth envs 4) with `Ack _ -> () | _ -> Alcotest.fail "nonce 5 refused");
  (match deliver (List.nth envs 5) with `Ack _ -> () | _ -> Alcotest.fail "nonce 6 refused");
  Alcotest.(check int) "still bounded" 4 (Avmm.seen_size b);
  let evicted = Avm_obs.Metrics.counter (Avm_obs.Metrics.snapshot ()) "net.seen_evicted" in
  Alcotest.(check bool) "evictions counted" true (evicted - evicted0 >= 2);
  (* An evicted nonce is re-accepted (and re-logged — replay stays
     faithful); it must not be mistaken for a duplicate. *)
  match deliver (List.nth envs 0) with
  | `Ack _ -> ()
  | `Duplicate _ -> Alcotest.fail "evicted nonce still reported as duplicate"
  | `Rejected r -> Alcotest.failf "evicted nonce rejected: %s" r

let test_window_config_validated () =
  Alcotest.check_raises "zero window rejected"
    (Invalid_argument "Config.make: rx_dedup_window must be >= 1") (fun () ->
      ignore (Config.make ~rx_dedup_window:0 Config.Avmm_rsa768))

(* --- daemon integration --------------------------------------------------- *)

let test_daemon_offer_auth () =
  let events = ref [] in
  let d = Daemon.create ~on_verdict:(fun ev -> events := ev :: !events) () in
  let ctx = Audit.ctx ~node_cert:alice_cert () in
  Daemon.attach d ~id:"alice" ~ctx ~image:[| 0 |] ~mem_words:1024 ~peers:[ (0, "alice") ] ();
  let a = List.nth (honest_auths 2) 1 in
  (match Daemon.offer_auth d ~id:"alice" a with
  | Witness.Fresh -> ()
  | _ -> Alcotest.fail "first commitment should be Fresh");
  Alcotest.(check int) "no verdict yet" 0 (List.length !events);
  let b = conflicting_auth a in
  (match Daemon.offer_auth d ~id:"alice" b with
  | Witness.Conflict _ -> ()
  | _ -> Alcotest.fail "conflicting commitment should convict");
  (* The verdict fired mid-session, without a pump cycle. *)
  (match !events with
  | [ ev ] -> (
    (match ev.Daemon.ev_verdict with
    | Online_audit.Equivocated _ -> ()
    | _ -> Alcotest.fail "expected an Equivocated verdict");
    Alcotest.(check (option int)) "entry seq named" (Some a.Auth.seq) ev.Daemon.ev_entry_seq;
    match (Lazy.force ev.Daemon.ev_outcome).Audit.evidence with
    | None -> Alcotest.fail "outcome carries no evidence"
    | Some ev ->
      Alcotest.(check bool) "daemon evidence verifies standalone" true
        (Audit.check_evidence ev ~ctx ~image:[||] ~peers:[] ()))
  | l -> Alcotest.failf "expected exactly one event, got %d" (List.length l));
  Alcotest.(check int) "proof banked daemon-wide" 1 (List.length (Daemon.equiv_proofs d));
  (* Further offers for a session with a verdict change nothing. *)
  ignore (Daemon.offer_auth d ~id:"alice" b);
  Alcotest.(check int) "fired exactly once" 1 (List.length !events)

(* --- the scenario end-to-end ---------------------------------------------- *)

let test_equivocation_run_small () =
  let spec = { H.equiv with H.epoch_us = 200_000.0; activity = 0.2; seed = 23L } in
  let size = { H.equiv.smoke with H.nodes = 20; epochs = 2 } in
  let o1 = H.run spec size in
  let o2 = H.run ~jobs:2 spec size in
  Alcotest.(check string) "jobs 1 = jobs 2" (H.signature o1) (H.signature o2);
  Alcotest.(check bool) "at least one forker planted" true (o1.H.cheats <> []);
  List.iter
    (fun (c : H.cheat) ->
      match List.assoc_opt c.node o1.H.flags with
      | Some e -> Alcotest.(check int) "caught in its fork epoch" c.epoch e
      | None -> Alcotest.failf "forker n%d escaped the exchange" c.node)
    o1.H.cheats;
  Alcotest.(check (list int)) "no false flags" [] (H.false_flagged o1);
  Alcotest.(check int) "every proof verifies standalone"
    (List.length o1.H.proofs) o1.H.proofs_verified

let () =
  Alcotest.run "avm_equiv"
    [
      ( "evidence",
        [
          Alcotest.test_case "conflicts predicate" `Quick test_conflicts_predicate;
          Alcotest.test_case "roundtrip and standalone check" `Quick
            test_evidence_roundtrip_and_check;
        ] );
      ( "offer",
        [
          Alcotest.test_case "fresh/known/rejected/conflict" `Quick test_offer_semantics;
          Alcotest.test_case "conservative under corruption" `Quick
            test_offer_conservative_on_corruption;
          QCheck_alcotest.to_alcotest prop_no_false_proof;
        ] );
      ( "ingress-dedup",
        [
          Alcotest.test_case "seen cache bounded by window" `Quick test_seen_window_bounded;
          Alcotest.test_case "window config validated" `Quick test_window_config_validated;
        ] );
      ( "daemon",
        [ Alcotest.test_case "offer_auth convicts mid-session" `Quick test_daemon_offer_auth ] );
      ( "scenario",
        [ Alcotest.test_case "forkers caught within one epoch" `Slow test_equivocation_run_small ] );
    ]
