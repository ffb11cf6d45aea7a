(* Equivocation-detection benchmark: plant a forking minority, run the
   per-epoch cross-witness authenticator exchange next to the ordinary
   sharded audits, and measure what the paper's fork-evidence argument
   costs — gossip messages, authenticators and wire bytes — against
   what it buys: every forker caught in its own fork epoch with a
   transferable two-signature proof, where the per-witness baseline is
   a full epoch late (and blind to last-epoch forks).

   Like fleet_bench, the experiment runs twice from the same seed —
   sequential auditor vs a --jobs N pool — and the verdict-plus-proof
   signature must be byte-identical (mismatch is fatal). Headline
   numbers land in a small JSON file (default BENCH_equiv.json). *)

module Equiv = Avm_scenario.Equivocation_run
module Audit = Avm_core.Audit

let () =
  let nodes = ref 200 in
  let epochs = ref 4 in
  let witnesses = ref 3 in
  let fork_frac = ref 0.05 in
  let seed = ref 11 in
  let jobs = ref (Avm_util.Domain_pool.default_jobs ()) in
  let out = ref "BENCH_equiv.json" in
  let smoke = ref false in
  Arg.parse
    [
      ("--nodes", Arg.Set_int nodes, "N  fleet size (default 200)");
      ("--epochs", Arg.Set_int epochs, "E  audit epochs (default 4)");
      ("--witnesses", Arg.Set_int witnesses, "K  witnesses per node (default 3)");
      ("--fork-frac", Arg.Set_float fork_frac, "F  forking fraction (default 0.05)");
      ("--seed", Arg.Set_int seed, "S  master seed (default 11)");
      ("--jobs", Arg.Set_int jobs, "N  auditor pool lanes (default: host core count)");
      ("--out", Arg.Set_string out, "PATH  where to write the JSON report");
      ("--smoke", Arg.Set smoke, "  60-node run for CI smoke checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "equiv_bench [--nodes N] [--epochs E] [--witnesses K] [--jobs N] [--out PATH] [--smoke]";
  if !smoke then nodes := 60;
  let jobs = max 1 !jobs in
  let spec =
    {
      Equiv.default_spec with
      Equiv.nodes = !nodes;
      epochs = !epochs;
      witnesses = !witnesses;
      fork_frac = !fork_frac;
      seed = Int64.of_int !seed;
    }
  in
  Printf.printf "equiv: %d nodes, %d epochs, k=%d, fork-frac %.2f, seed %d\n%!" !nodes !epochs
    !witnesses !fork_frac !seed;
  let seq = Equiv.run ~par:Audit.sequential spec in
  Printf.printf "sequential pass: %d sim events in %.2fs, audits %.2fs, exchange %.2fs\n%!"
    seq.Equiv.sim_events seq.Equiv.run_seconds seq.Equiv.audit_seconds seq.Equiv.exchange_seconds;
  let par = Equiv.run ~par:(Audit.parallel jobs) spec in
  Printf.printf "parallel pass (%d jobs): audits %.2fs\n%!" jobs par.Equiv.audit_seconds;
  let sig_seq = Equiv.signature seq and sig_par = Equiv.signature par in
  if sig_seq <> sig_par then begin
    Printf.eprintf "FATAL: verdict/proof vector differs between jobs 1 and jobs %d\n" jobs;
    exit 1
  end;
  let forkers = seq.Equiv.forkers in
  let caught_in_epoch =
    List.for_all
      (fun (f : Equiv.forker) ->
        match List.assoc_opt f.Equiv.node seq.Equiv.exchange_detected with
        | Some e -> e = f.Equiv.epoch
        | None -> false)
      forkers
  in
  if not caught_in_epoch then begin
    Printf.eprintf "FATAL: a forker escaped its fork epoch's exchange\n";
    exit 1
  end;
  if seq.Equiv.false_flags <> [] then begin
    Printf.eprintf "FATAL: %d honest nodes accused\n" (List.length seq.Equiv.false_flags);
    exit 1
  end;
  if seq.Equiv.proofs_verified <> List.length seq.Equiv.proofs then begin
    Printf.eprintf "FATAL: %d proofs failed standalone verification\n"
      (List.length seq.Equiv.proofs - seq.Equiv.proofs_verified);
    exit 1
  end;
  (* Baseline lag: epochs between the fork and the first failing audit
     verdict (a forker the baseline never flags contributes nothing —
     count them separately). *)
  let baseline_lags =
    List.filter_map
      (fun (f : Equiv.forker) ->
        Option.map (fun e -> e - f.Equiv.epoch) (List.assoc_opt f.Equiv.node seq.Equiv.baseline_detected))
      forkers
  in
  let baseline_missed = List.length forkers - List.length baseline_lags in
  Printf.printf
    "forkers %d: exchange caught all in-epoch; baseline caught %d (lag >= 1 epoch), missed %d\n%!"
    (List.length forkers) (List.length baseline_lags) baseline_missed;
  Printf.printf "exchange: %d msgs, %d auths, %d bytes (%.1f bytes/node/epoch)\n%!"
    seq.Equiv.ex_messages seq.Equiv.ex_auths seq.Equiv.ex_bytes
    (float_of_int seq.Equiv.ex_bytes /. float_of_int (!nodes * !epochs));
  let oc = open_out !out in
  Printf.fprintf oc
    "{\n\
    \  \"nodes\": %d,\n\
    \  \"witnesses_per_node\": %d,\n\
    \  \"epochs\": %d,\n\
    \  \"fork_frac\": %.3f,\n\
    \  \"forkers_planted\": %d,\n\
    \  \"forkers_detected_by_exchange\": %d,\n\
    \  \"forkers_detected_in_fork_epoch\": %d,\n\
    \  \"baseline_detected\": %d,\n\
    \  \"baseline_missed\": %d,\n\
    \  \"baseline_min_lag_epochs\": %d,\n\
    \  \"false_flags\": %d,\n\
    \  \"proofs\": %d,\n\
    \  \"proofs_verified_standalone\": %d,\n\
    \  \"commit_auths\": %d,\n\
    \  \"exchange_messages\": %d,\n\
    \  \"exchange_auths\": %d,\n\
    \  \"exchange_bytes\": %d,\n\
    \  \"exchange_bytes_per_node_epoch\": %.1f,\n\
    \  \"exchange_wall_seconds\": %.3f,\n\
    \  \"audit_wall_seconds\": %.3f,\n\
    \  \"sim_events\": %d,\n\
    \  \"auditor_parallel_jobs\": %d,\n\
    \  \"verdict_signature\": \"%s\",\n\
    \  \"verdict_signature_matches_parallel\": true\n\
     }\n"
    !nodes !witnesses !epochs !fork_frac (List.length forkers)
    (List.length seq.Equiv.exchange_detected)
    (List.length seq.Equiv.exchange_detected)
    (List.length baseline_lags) baseline_missed
    (match baseline_lags with [] -> 0 | l -> List.fold_left min max_int l)
    (List.length seq.Equiv.false_flags)
    (List.length seq.Equiv.proofs)
    seq.Equiv.proofs_verified seq.Equiv.commit_auths seq.Equiv.ex_messages seq.Equiv.ex_auths
    seq.Equiv.ex_bytes
    (float_of_int seq.Equiv.ex_bytes /. float_of_int (!nodes * !epochs))
    seq.Equiv.exchange_seconds seq.Equiv.audit_seconds seq.Equiv.sim_events jobs sig_seq;
  close_out oc;
  Printf.printf "wrote %s\n%!" !out
