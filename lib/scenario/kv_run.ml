open Avm_core
open Avm_netsim

type outcome = {
  net : Net.t;
  duration_us : float;
  server_snapshots : Avm_machine.Snapshot.t list;
  client_ops : int;
}

let server_image () = (Guests.kvstore_image ()).Avm_isa.Asm.words

let run ?(duration_us = 300.0e6) ?(snapshot_every_us = 20_000_000) ?(rsa_bits = 768)
    ?(seed = 7L) () =
  let config = Config.make ~snapshot_every_us:(Some snapshot_every_us) Config.Avmm_rsa768 in
  let image = server_image () in
  let net =
    Net.create ~seed ~rsa_bits ~config ~images:[ image; image ]
      ~mem_words:Guests.mem_words ~names:[ "kv-server"; "kv-client" ] ()
  in
  Net.queue_input net 0 (Guests.kv_input_role ~role:0);
  Net.queue_input net 1 (Guests.kv_input_role ~role:1);
  Net.run net ~until_us:duration_us ();
  let server = Net.node_avmm (Net.node net 0) in
  let client = Net.node_avmm (Net.node net 1) in
  let ops_addr = Avm_isa.Asm.symbol (Guests.kvstore_image ()) "g_ops" in
  {
    net;
    duration_us;
    server_snapshots = Avmm.snapshots server;
    client_ops = Avm_core.Avmm.peek client ~addr:ops_addr;
  }

let audit_server_chunk o ~start_snapshot ~k =
  let server = Net.node_avmm (Net.node o.net 0) in
  match
    Spot_check.check_chunk ~image:(server_image ()) ~mem_words:Guests.mem_words
      ~snapshots:o.server_snapshots ~log:(Avmm.log server) ~peers:(Net.peers o.net)
      ~start_snapshot ~k ()
  with
  | Ok report -> report
  | Error msg -> invalid_arg ("Kv_run.audit_server_chunk: " ^ msg)

let chunk_transfer_bytes o (rep : Spot_check.chunk_report) =
  if rep.Spot_check.state_bytes = 0 then 0
  else
    let log = Avmm.log (Net.node_avmm (Net.node o.net 0)) in
    rep.Spot_check.state_bytes
    + Avm_tamperlog.Log.transfer_bytes log ~from:rep.Spot_check.first_seq
        ~upto:rep.Spot_check.last_seq

let full_audit_cost o =
  let server = Net.node_avmm (Net.node o.net 0) in
  let log = Avmm.log server in
  let entries = Avm_tamperlog.Log.segment log ~from:1 ~upto:(Avm_tamperlog.Log.length log) in
  let compressed =
    String.length (Avm_compress.Codec.compress (Avm_tamperlog.Log.encode_segment entries))
  in
  (Avm_machine.Machine.icount (Avmm.machine server), compressed)
