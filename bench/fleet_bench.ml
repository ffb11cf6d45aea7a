(* Fleet-scale witness-audit benchmark (the ROADMAP's 10k-node north
   star): an event-driven simulation of N accountable kv nodes on a
   witness-graph topology, with network faults and a cheating minority,
   audited per epoch by the sharded witness pool.

   The whole experiment runs twice from the same seed — once with a
   sequential auditor, once with a --jobs N pool — and the two verdict
   vectors must be byte-identical (any mismatch is fatal): shard
   boundaries depend only on the job list, never on worker count.
   Headline numbers land in a small JSON file (default
   BENCH_fleet.json): nodes simulated, heap events/sec through the
   simulator, audit coverage per epoch, auditor throughput in jobs/sec
   for both passes, and the cheat-detection scoreboard. *)

module Fleet_run = Avm_scenario.Fleet_run
module Faults = Avm_netsim.Faults
module Audit = Avm_core.Audit

let () =
  let nodes = ref 10_000 in
  let epochs = ref 3 in
  let witnesses = ref 3 in
  let seed = ref 7 in
  let jobs = ref (Avm_util.Domain_pool.default_jobs ()) in
  let out = ref "BENCH_fleet.json" in
  let smoke = ref false in
  Arg.parse
    [
      ("--nodes", Arg.Set_int nodes, "N  fleet size (default 10000)");
      ("--epochs", Arg.Set_int epochs, "E  audit epochs (default 3)");
      ("--witnesses", Arg.Set_int witnesses, "K  witnesses per node (default 3)");
      ("--seed", Arg.Set_int seed, "S  master seed (default 7)");
      ("--jobs", Arg.Set_int jobs, "N  auditor pool lanes (default: host core count; 1 = sequential)");
      ("--out", Arg.Set_string out, "PATH  where to write the JSON report");
      ("--smoke", Arg.Set smoke, "  500-node run for CI smoke checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fleet_bench [--nodes N] [--epochs E] [--witnesses K] [--jobs N] [--out PATH] [--smoke]";
  if !smoke then nodes := 500;
  (* Respect the host: the old [max 2] forced a 2-domain pool even on a
     single core, where the committed "speedups" were honest-to-0.33x
     slowdowns. At jobs = 1 the second pass still runs (it checks the
     pool path's verdict determinism) but no domains spawn. *)
  let jobs = max 1 !jobs in
  let epoch_us = 1_000_000.0 in
  (* Faults on, as the acceptance demands: a lossy reordering wire the
     whole time, plus two fail-stop crash windows inside epoch 1 that
     heal before the boundary — retransmission backoff has to carry the
     reports through, and the audits must still all come back clean. *)
  let faults =
    Faults.make ~drop:0.02 ~reorder:0.05 ~jitter_us:2_000.0
      ~crashes:
        [
          { Faults.from_us = 0.25 *. epoch_us; to_us = 0.55 *. epoch_us; node = !nodes / 7 };
          { Faults.from_us = 0.30 *. epoch_us; to_us = 0.60 *. epoch_us; node = !nodes / 3 };
        ]
      ()
  in
  let spec =
    {
      Fleet_run.default_spec with
      Fleet_run.nodes = !nodes;
      epochs = !epochs;
      witnesses = !witnesses;
      seed = Int64.of_int !seed;
      epoch_us;
      key_pool = 64;
      faults = Some faults;
    }
  in
  Printf.printf "fleet: %d nodes, %d epochs, k=%d, faults on, seed %d\n%!" !nodes !epochs
    !witnesses !seed;
  let seq = Fleet_run.run ~par:Audit.sequential spec in
  Printf.printf "sequential pass: %d sim events in %.2fs, %d audit jobs in %.2fs\n%!"
    seq.Fleet_run.sim_events seq.Fleet_run.run_seconds seq.Fleet_run.audit_jobs
    seq.Fleet_run.audit_seconds;
  let par = Fleet_run.run ~par:(Audit.parallel jobs) spec in
  Printf.printf "parallel pass (%d jobs): %d audit jobs in %.2fs\n%!" jobs
    par.Fleet_run.audit_jobs par.Fleet_run.audit_seconds;
  let sig_seq = Fleet_run.signature seq and sig_par = Fleet_run.signature par in
  if sig_seq <> sig_par then begin
    Printf.eprintf "FATAL: verdict vector differs between jobs 1 and jobs %d\n" jobs;
    exit 1
  end;
  List.iter
    (fun (r : Fleet_run.epoch_report) ->
      if r.Fleet_run.coverage <> 1.0 then begin
        Printf.eprintf "FATAL: epoch %d coverage %.3f < 1.0\n" r.Fleet_run.epoch
          r.Fleet_run.coverage;
        exit 1
      end)
    seq.Fleet_run.reports;
  if seq.Fleet_run.missed <> [] then begin
    Printf.eprintf "FATAL: %d cheats went undetected\n" (List.length seq.Fleet_run.missed);
    exit 1
  end;
  if seq.Fleet_run.false_flagged <> [] then begin
    Printf.eprintf "FATAL: %d honest nodes flagged\n"
      (List.length seq.Fleet_run.false_flagged);
    exit 1
  end;
  let events_per_sec = float_of_int seq.Fleet_run.sim_events /. seq.Fleet_run.run_seconds in
  let jobs_per_sec (o : Fleet_run.outcome) =
    float_of_int o.Fleet_run.audit_jobs /. o.Fleet_run.audit_seconds
  in
  Printf.printf "sim: %.0f events/sec; auditor: %.0f jobs/sec seq, %.0f jobs/sec at %d jobs\n%!"
    events_per_sec (jobs_per_sec seq) (jobs_per_sec par) jobs;
  Printf.printf "cheats: %d planted, %d detected, 0 missed, 0 false flags\n%!"
    (List.length seq.Fleet_run.cheats)
    (List.length seq.Fleet_run.detected);
  (* The sequential pass's own cache (each run creates one); all-zero
     when the spec disables dedup. *)
  let cstats =
    match seq.Fleet_run.cache with
    | Some s -> s
    | None ->
      {
        Avm_core.Replay_cache.hits = 0;
        misses = 0;
        spot_checks = 0;
        claim_mismatches = 0;
        poisoned = 0;
        bytes_saved = 0;
        instructions_saved = 0;
      }
  in
  let coverage_json =
    String.concat ", "
      (List.map (fun (r : Fleet_run.epoch_report) -> Printf.sprintf "%.4f" r.Fleet_run.coverage)
         seq.Fleet_run.reports)
  in
  let failures_json =
    String.concat ", "
      (List.map (fun (r : Fleet_run.epoch_report) -> string_of_int r.Fleet_run.failures)
         seq.Fleet_run.reports)
  in
  let oc = open_out !out in
  Printf.fprintf oc
    "{\n\
    \  \"nodes\": %d,\n\
    \  \"witnesses_per_node\": %d,\n\
    \  \"epochs\": %d,\n\
    \  \"epoch_virtual_us\": %.0f,\n\
    \  \"faults_enabled\": true,\n\
    \  \"sim_events\": %d,\n\
    \  \"sim_events_per_sec\": %.1f,\n\
    \  \"sim_wall_seconds\": %.3f,\n\
    \  \"retransmissions\": %d,\n\
    \  \"audit_jobs\": %d,\n\
    \  \"audit_coverage_per_epoch\": [%s],\n\
    \  \"audit_failures_per_epoch\": [%s],\n\
    \  \"auditor_jobs_per_sec_sequential\": %.1f,\n\
    \  \"auditor_jobs_per_sec_parallel\": %.1f,\n\
    \  \"auditor_parallel_jobs\": %d,\n\
    \  \"host_cores\": %d,\n\
    \  \"auditor_speedup\": %.3f,\n\
    \  \"dedup_enabled\": %b,\n\
    \  \"cache_hits\": %d,\n\
    \  \"cache_misses\": %d,\n\
    \  \"cache_hit_rate\": %.4f,\n\
    \  \"cache_bytes_saved\": %d,\n\
    \  \"semantic_entries\": %d,\n\
    \  \"semantic_wall_us\": %d,\n\
    \  \"cheats_planted\": %d,\n\
    \  \"cheats_detected\": %d,\n\
    \  \"cheats_missed\": %d,\n\
    \  \"honest_false_flags\": %d,\n\
    \  \"verdict_signature\": \"%s\",\n\
    \  \"verdict_signature_matches_parallel\": true\n\
     }\n"
    !nodes spec.Fleet_run.witnesses !epochs epoch_us seq.Fleet_run.sim_events events_per_sec
    seq.Fleet_run.run_seconds
    (Avm_netsim.Net.retransmissions seq.Fleet_run.net)
    seq.Fleet_run.audit_jobs
    coverage_json failures_json
    (jobs_per_sec seq) (jobs_per_sec par) jobs
    (Domain.recommended_domain_count ())
    (jobs_per_sec par /. jobs_per_sec seq)
    spec.Fleet_run.dedup cstats.Avm_core.Replay_cache.hits cstats.Avm_core.Replay_cache.misses
    (let t = cstats.Avm_core.Replay_cache.hits + cstats.Avm_core.Replay_cache.misses in
     if t = 0 then 0.0 else float_of_int cstats.Avm_core.Replay_cache.hits /. float_of_int t)
    cstats.Avm_core.Replay_cache.bytes_saved
    seq.Fleet_run.semantic_entries seq.Fleet_run.semantic_us
    (List.length seq.Fleet_run.cheats)
    (List.length seq.Fleet_run.detected)
    (List.length seq.Fleet_run.missed)
    (List.length seq.Fleet_run.false_flagged)
    sig_seq;
  close_out oc;
  Printf.printf "wrote %s\n%!" !out
