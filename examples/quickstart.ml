(* Quickstart: the paper's Figure 1 scenario in ~100 lines.

   Alice relies on software S running on Bob's machine. Bob runs S
   inside an accountable virtual machine; Alice audits him. Run with:

     dune exec examples/quickstart.exe *)

open Avm_core
module Identity = Avm_crypto.Identity
module Log = Avm_tamperlog.Log

(* The software S: counts requests and answers each incoming packet
   with request_number * value. Written in mlang and compiled to the
   AVM-32 image both parties agree on. *)
let software_s =
  {|
global served;
fn main() {
  while (1) {
    var avail = in(NET_RX_AVAIL);
    if (avail > 0) {
      var v = in(NET_RX);
      out(NET_RX_NEXT, 0);
      served = served + 1;
      out(NET_TX, 1);              // reply to peer 1 (Alice)
      out(NET_TX, served * v);
      out(NET_TX_SEND, 0);
    }
    var t = in(CLOCK);
    t = t;
  }
}
|}

let () =
  print_endline "== 1. setup: certified identities and an agreed-upon image ==";
  let rng = Avm_util.Rng.create 2010L in
  let ca = Identity.create_ca rng "game-admin" in
  let alice = Identity.issue ca rng "alice" in
  let bob = Identity.issue ca rng "bob" in
  let image = (Avm_mlang.Compile.compile ~stack_top:4096 software_s).Avm_isa.Asm.words in
  Printf.printf "   image: %d words; Bob's key: RSA-768\n" (Array.length image);

  print_endline "== 2. Bob boots S inside an AVMM and serves Alice's requests ==";
  let config = Config.make ~snapshot_every_us:(Some 100_000) Config.Avmm_rsa768 in
  let outbox = Queue.create () in
  let bob_avmm =
    Avmm.create ~identity:bob ~config ~image ~mem_words:4096
      ~peers:[ (0, "bob"); (1, "alice") ]
      ~on_send:(fun env -> Queue.add env outbox)
      ()
  in
  (* Alice sends signed requests; the AVMM verifies, logs and injects
     them, and acks each one with an authenticator. *)
  let alice_auths = ref [] in
  let send_request nonce value =
    let payload = Wireformat.payload_of_words [| value |] in
    let body = Wireformat.message_body ~src:"alice" ~dest:"bob" ~nonce ~payload in
    (* Alice commits to her own log too; here we only need her signature. *)
    let log = Log.create () in
    let entry =
      Log.append log (Avm_tamperlog.Entry.Send { dest = "bob"; nonce; payload })
    in
    let auth = Avm_tamperlog.Auth.make alice ~entry ~prev_hash:Log.genesis_hash in
    let env =
      {
        Wireformat.src = "alice";
        dest = "bob";
        nonce;
        payload;
        signature = Identity.sign alice body;
        auth;
      }
    in
    match Avmm.deliver bob_avmm env ~sender_cert:(Identity.certificate alice) with
    | `Ack ack -> alice_auths := ack.Wireformat.recv_auth :: !alice_auths
    | `Duplicate _ | `Rejected _ -> assert false
  in
  (* Alice keeps her own log; she acknowledges every reply with an
     authenticator over her RECV entry (paper §4.3). *)
  let alice_log = Log.create () in
  let replies = ref 0 in
  let drain_replies () =
    while not (Queue.is_empty outbox) do
      let env = Queue.pop outbox in
      incr replies;
      alice_auths := env.Wireformat.auth :: !alice_auths;
      let entry =
        Log.append alice_log
          (Avm_tamperlog.Entry.Recv
             {
               src = env.Wireformat.src;
               nonce = env.Wireformat.nonce;
               payload = env.Wireformat.payload;
               signature = env.Wireformat.signature;
             })
      in
      let recv_auth =
        Avm_tamperlog.Auth.make alice ~entry
          ~prev_hash:(Log.prev_hash alice_log entry.Avm_tamperlog.Entry.seq)
      in
      let ack =
        { Wireformat.acker = "alice"; sender = "bob"; nonce = env.Wireformat.nonce; recv_auth }
      in
      match Avmm.accept_ack bob_avmm ack ~acker_cert:(Identity.certificate alice) with
      | Ok () -> ()
      | Error e -> failwith ("Bob rejected Alice's ack: " ^ e)
    done
  in
  let now = ref 0.0 in
  for i = 1 to 5 do
    send_request i (i * 10);
    now := !now +. 100_000.0;
    ignore (Avmm.run_slice bob_avmm ~until_us:!now);
    drain_replies ()
  done;
  Printf.printf "   Bob served 5 requests and sent %d replies\n" !replies;

  print_endline "== 3. Alice audits: fetch the log, check it, replay it ==";
  let log = Avmm.log bob_avmm in
  let audit_ctx () =
    Audit.ctx ~node_cert:(Identity.certificate bob)
      ~peer_certs:[ ("alice", Identity.certificate alice); ("bob", Identity.certificate bob) ]
      ~auths:!alice_auths ()
  in
  let report =
    Audit.full_of_log ~ctx:(audit_ctx ()) ~image ~mem_words:4096
      ~peers:[ (0, "bob"); (1, "alice") ]
      ~log ()
  in
  Format.printf "   %a@." Audit.pp_outcome report;

  print_endline "== 4. Bob cheats: he pokes S's memory to inflate 'served' ==";
  let served_addr =
    Avm_isa.Asm.symbol (Avm_mlang.Compile.compile ~stack_top:4096 software_s) "g_served"
  in
  Avmm.poke bob_avmm ~addr:served_addr ~value:1000;
  for i = 6 to 8 do
    send_request i (i * 10);
    now := !now +. 100_000.0;
    ignore (Avmm.run_slice bob_avmm ~until_us:!now);
    drain_replies ()
  done;

  print_endline "== 5. the next audit detects it and produces evidence ==";
  let report =
    Audit.full_of_log ~ctx:(audit_ctx ()) ~image ~mem_words:4096
      ~peers:[ (0, "bob"); (1, "alice") ]
      ~log ()
  in
  Format.printf "   %a@." Audit.pp_outcome report;
  (* A faulty outcome already carries transferable evidence — no need
     to assemble the accusation by hand. *)
  (match report.Audit.evidence with
  | Some ev ->
    Printf.printf "   evidence: %s\n" (Evidence.describe ev);
    let confirmed =
      Audit.check_evidence ev ~ctx:(audit_ctx ()) ~image ~mem_words:4096
        ~peers:[ (0, "bob"); (1, "alice") ]
        ()
    in
    Printf.printf "   a third party re-checks the evidence: %s\n"
      (if confirmed then "CONFIRMED — Bob is provably faulty" else "rejected")
  | None -> print_endline "   (unexpected: cheat not detected)")
