(* The paper's headline application (§5, §6): three players, one of
   them running a wallhack installed in his VM image. After the match,
   everyone audits everyone; the cheater's replay diverges, evidence
   circulates, and the honest players shun him. Run with:

     dune exec examples/game_cheat_detection.exe *)

open Avm_scenario
open Avm_core

let () =
  print_endline "== a 3-player match; player2 installed 'wallhack-driver' ==";
  let cheat = Cheats.find "wallhack-driver" in
  Printf.printf "   cheat: %s — %s\n%!" cheat.Cheats.name cheat.Cheats.description;
  let spec =
    {
      Game_run.players = 3;
      duration_us = 15.0e6;
      config = Config.make ~snapshot_every_us:(Some 5_000_000) Config.Avmm_rsa768;
      cheat = Some (2, cheat);
      frame_cap = false;
      seed = 7L;
      rsa_bits = 512;
      faults = None;
    }
  in
  let o = Game_run.play spec in
  Array.iteri (fun i fps -> Printf.printf "   player%d rendered %.0f fps\n" i fps) o.Game_run.fps;

  print_endline "== after the match: everyone audits everyone ==";
  let verdicts =
    List.map
      (fun target ->
        let auditor = (target + 1) mod 3 in
        let report = Game_run.audit_player o ~auditor ~target in
        Printf.printf "   player%d audits player%d: %s\n%!" auditor target
          (match report.Audit.verdict with
          | Ok () -> "correct"
          | Error _ -> "FAULTY");
        (target, report))
      [ 0; 1; 2 ]
  in

  print_endline "== evidence distribution (paper §4.6) ==";
  let net = o.Game_run.net in
  List.iter
    (fun (target, report) ->
      (* The faulty outcome already carries the transferable evidence
         (log segment + authenticators + accusation). *)
      match (report.Audit.verdict, report.Audit.evidence) with
      | Error _, Some ev ->
        let name = Avm_netsim.Net.node_name (Avm_netsim.Net.node net target) in
        Printf.printf "   %s\n" (Evidence.describe ev);
        (* every honest player verifies independently and shuns *)
        Array.iter
          (fun node ->
            if Avm_netsim.Net.node_name node <> name then begin
              let checked =
                Audit.confirm ev
                  ~ctx:
                    (Audit.ctx
                       ~node_cert:(List.assoc name (Avm_netsim.Net.certificates net))
                       ~peer_certs:(Avm_netsim.Net.certificates net) ())
                  ~image:(Game_run.reference_image ())
                  ~mem_words:Guests.mem_words ~peers:(Avm_netsim.Net.peers net) ()
              in
              Option.iter (Multiparty.add_evidence (Avm_netsim.Net.node_ledger node)) checked;
              let confirmed = Option.is_some checked in
              Printf.printf "   %s verifies the evidence: %s; shunned = [%s]\n%!"
                (Avm_netsim.Net.node_name node)
                (if confirmed then "confirmed" else "rejected")
                (String.concat ", " (Multiparty.shunned (Avm_netsim.Net.node_ledger node)))
            end)
          (Avm_netsim.Net.nodes net)
      | _ -> ())
    verdicts;
  print_endline "== done: the cheater is excluded without any trusted server ==";
