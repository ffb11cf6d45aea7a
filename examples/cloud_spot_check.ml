(* The accountable-cloud use case (paper §3.5, §6.12, §7.1): a customer
   runs a key-value service on a provider's machine and, instead of
   replaying everything, spot-checks a few inter-snapshot segments.
   Run with:

     dune exec examples/cloud_spot_check.exe *)

open Avm_scenario
open Avm_core

let () =
  print_endline "== provider runs a kv-store AVM for 60s; snapshots every 10s ==";
  let o = Kv_run.run ~duration_us:60.0e6 ~snapshot_every_us:10_000_000 ~rsa_bits:512 () in
  Printf.printf "   client completed %d operations; server took %d snapshots\n%!"
    o.Kv_run.client_ops
    (List.length o.Kv_run.server_snapshots);

  print_endline "== the customer spot-checks two chunks instead of the whole log ==";
  let full_instr, full_bytes = Kv_run.full_audit_cost o in
  List.iter
    (fun (start, k) ->
      let rep = Kv_run.audit_server_chunk o ~start_snapshot:start ~k in
      let transferred = Kv_run.chunk_transfer_bytes o rep in
      let verdict =
        match rep.Spot_check.outcome with
        | Replay.Verified _ -> "verified"
        | Replay.Diverged _ -> "FAULTY"
      in
      Printf.printf
        "   chunk [snapshot %d, +%d segment(s)]: %s — replayed %d instructions (%.0f%% of full), \
         transferred %d B (%.0f%% of full log)\n%!"
        start k verdict rep.Spot_check.replay_instructions
        (100.0 *. float_of_int rep.Spot_check.replay_instructions /. float_of_int full_instr)
        transferred
        (100.0 *. float_of_int transferred /. float_of_int full_bytes))
    [ (1, 1); (2, 2) ];

  print_endline "== §7.3: disclose only the pages a third party needs ==";
  (* To support evidence (or partial audits), the provider serves
     individual pages with Merkle proofs against the logged snapshot
     root; everything else stays private. *)
  let server = Avm_netsim.Net.node_avmm (Avm_netsim.Net.node o.Kv_run.net 0) in
  let machine = Avm_core.Avmm.machine server in
  let tree = Avm_machine.Memory.merkle (Avm_machine.Machine.mem machine) in
  let root = Avm_crypto.Merkle.root tree in
  let partial = Avm_machine.Partial_state.extract machine ~pages:[ 0; 1; 17 ] in
  let full_bytes =
    Avm_machine.Memory.page_count (Avm_machine.Machine.mem machine)
    * Avm_machine.Memory.page_size * 4
  in
  Printf.printf
    "   disclosed 3 of %d pages (%d B of %d B), authenticated: %b\n"
    partial.Avm_machine.Partial_state.page_count
    (Avm_machine.Partial_state.disclosed_bytes partial)
    full_bytes
    (Avm_machine.Partial_state.verify partial ~expected_root:root);

  print_endline "== the trade-off (paper §3.5) ==";
  print_endline
    "   spot checks only see faults inside the checked segments; a fault in an\n\
    \   unchecked segment that corrupts state persists invisibly, because later\n\
    \   segments replay from the (equally corrupted) snapshot. Policy matters:\n\
    \   check initialization/authentication segments, sample the rest."
