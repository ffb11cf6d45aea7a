(* The multi-party mechanisms of paper §4.6:

   1. before auditing Bob, Alice merges the authenticators Charlie
      collected with her own;
   2. when Bob ignores an audit request, Alice forwards a challenge
      through the other players, who stop talking to Bob until he
      answers;
   3. the challenge itself is backed by Bob's own authenticator, so
      any third party can check that Bob owes that log; it is not
      proof of a fault, and nobody is shunned on it.

   Run with: dune exec examples/multiparty_audit.exe *)

open Avm_scenario
open Avm_core
module Net = Avm_netsim.Net

let () =
  print_endline "== a short 3-player match (all honest) ==";
  let spec =
    {
      Game_run.players = 3;
      duration_us = 8.0e6;
      config = Config.make ~snapshot_every_us:(Some 4_000_000) Config.Avmm_rsa768;
      cheat = None;
      frame_cap = false;
      seed = 3L;
      rsa_bits = 512;
      faults = None;
    }
  in
  let o = Game_run.play spec in
  let net = o.Game_run.net in
  let name i = Net.node_name (Net.node net i) in
  let ledger i = Net.node_ledger (Net.node net i) in

  print_endline "== 1. authenticator exchange before an audit ==";
  let alice = ledger 1 and charlie = ledger 2 in
  let own = List.length (Multiparty.auths_for alice (name 0)) in
  Multiparty.merge_auths alice ~from:charlie ~node:(name 0);
  let merged = List.length (Multiparty.auths_for alice (name 0)) in
  Printf.printf "   alice held %d authenticators for %s; after merging charlie's: %d\n%!"
    own (name 0) merged;
  let report = Game_run.audit_player o ~auditor:1 ~target:0 in
  Printf.printf "   audit of %s with the pooled authenticators: %s\n%!" (name 0)
    (match report.Audit.verdict with Ok () -> "correct" | Error e -> "FAULTY: " ^ e);

  print_endline "== 2. an unresponsive machine is challenged through the others ==";
  (* Bob (player0) stops answering: model with a network partition. *)
  Net.isolate net 0;
  let challenge =
    Multiparty.open_challenge alice ~accused:(name 0)
      ~description:"produce log segment up to your latest authenticator"
  in
  Multiparty.open_challenge charlie ~accused:(name 0) ~description:"forwarded by alice" |> ignore;
  Printf.printf "   challenge #%d open; players refuse regular traffic with %s: %b\n%!"
    challenge.Multiparty.id (name 0)
    (Multiparty.has_open_challenge alice (name 0)
    && Multiparty.has_open_challenge charlie (name 0));

  print_endline "== 3. the challenge is backed by Bob's own authenticator ==";
  let bob_log = Avmm.log (Net.node_avmm (Net.node net 0)) in
  let last = Avm_tamperlog.Log.entry bob_log (Avm_tamperlog.Log.length bob_log) in
  let auth =
    (* the freshest authenticator Bob ever sent — Alice holds it *)
    match List.rev (Multiparty.auths_for alice (name 0)) with
    | a :: _ -> a
    | [] -> failwith "no authenticators collected"
  in
  ignore last;
  let ev = { Evidence.accused = name 0; accusation = Evidence.Unanswered_challenge { auth } } in
  Printf.printf "   %s\n" (Evidence.describe ev);
  (* A challenge is no proof: every envelope Bob sends carries such an
     authenticator, so a third party confirms nothing it could file
     with the other participants (Multiparty.add_evidence takes an
     Evidence.checked); it only agrees that Bob owes that log. *)
  let node_cert = List.assoc (name 0) (Net.certificates net) in
  let checked =
    Audit.confirm ev
      ~ctx:(Audit.ctx ~node_cert ~peer_certs:(Net.certificates net) ())
      ~image:(Game_run.reference_image ())
      ~mem_words:Guests.mem_words ~peers:(Net.peers net) ()
  in
  Printf.printf "   third party: genuine challenge %b, proof of a fault %b\n%!"
    (Evidence.challenge_genuine ev ~node_cert)
    (Option.is_some checked);

  print_endline "== 4. Bob reconnects, answers, and normal play resumes ==";
  Net.heal net 0;
  Multiparty.answer_challenge alice challenge.Multiparty.id;
  Printf.printf "   challenge closed; alice still refuses traffic with %s: %b\n" (name 0)
    (Multiparty.has_open_challenge alice (name 0))
