(* Auditor-as-a-service benchmark (ISSUE 8, ROADMAP item 4).

   Streams a fleet of concurrent live sessions through one
   Avm_service.Daemon twice from the same seed — once with the shared
   replay cache off, once on — and reports the service-level numbers:
   ingest throughput, the audit-lag distribution against the
   configured bound, and detection latency from mid-session cheat
   injection to evidence delivery.

   Hard checks, all fatal: every planted cheat detected (both passes),
   zero false flags, p99 lag within the bound, and a verdict vector
   byte-identical cache-on vs cache-off. *)

module Service_run = Avm_scenario.Service_run
module Replay_cache = Avm_core.Replay_cache
module Audit = Avm_core.Audit
module Metrics = Avm_obs.Metrics

let () =
  let sessions = ref 200 in
  let epochs = ref 3 in
  let activity = ref 0.10 in
  let max_lag = ref 4096 in
  let budget = ref 5_000_000 in
  let seed = ref 11 in
  let out = ref "BENCH_service.json" in
  let smoke = ref false in
  Arg.parse
    [
      ("--sessions", Arg.Set_int sessions, "N  concurrent sessions (default 200)");
      ("--epochs", Arg.Set_int epochs, "E  epochs (default 3)");
      ("--activity", Arg.Set_float activity, "F  active-node fraction per epoch (default 0.10)");
      ("--max-lag", Arg.Set_int max_lag, "L  audit lag bound in entries (default 4096)");
      ("--budget", Arg.Set_int budget, "I  instructions per session per pump (default 5M)");
      ("--seed", Arg.Set_int seed, "S  master seed (default 11)");
      ("--out", Arg.Set_string out, "PATH  where to write the JSON report");
      ("--smoke", Arg.Set smoke, "  50-session run for CI smoke checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "service_bench [--sessions N] [--epochs E] [--max-lag L] [--out PATH] [--smoke]";
  if !smoke then sessions := 50;
  let spec =
    {
      Service_run.default_spec with
      Service_run.sessions = !sessions;
      epochs = !epochs;
      activity = !activity;
      max_lag = !max_lag;
      budget = !budget;
      seed = Int64.of_int !seed;
    }
  in
  Printf.printf "service bench: %d sessions, %d epochs, lag bound %d, seed %d\n%!" !sessions
    !epochs !max_lag !seed;
  Metrics.reset ();
  Avm_crypto.Sigcache.clear ();
  let off = Service_run.run { spec with Service_run.dedup = false } in
  Printf.printf "cache off: %d entries ingested in %.2fs service time\n%!"
    off.Service_run.entries_ingested off.Service_run.service_seconds;
  Metrics.reset ();
  Avm_crypto.Sigcache.clear ();
  let on = Service_run.run spec in
  let stats = on.Service_run.cache in
  Printf.printf "cache on:  %d entries ingested in %.2fs service time (hits %d, misses %d)\n%!"
    on.Service_run.entries_ingested on.Service_run.service_seconds stats.Replay_cache.hits
    stats.Replay_cache.misses;
  (* --- hard checks -------------------------------------------------------- *)
  let sig_on = Service_run.signature on and sig_off = Service_run.signature off in
  if sig_on <> sig_off then begin
    Printf.eprintf "FATAL: verdict vector differs cache-on vs cache-off\n";
    exit 1
  end;
  if on.Service_run.missed <> [] || off.Service_run.missed <> [] then begin
    Printf.eprintf "FATAL: %d/%d cheats went undetected (on/off)\n"
      (List.length on.Service_run.missed)
      (List.length off.Service_run.missed);
    exit 1
  end;
  if on.Service_run.false_flagged <> [] || off.Service_run.false_flagged <> [] then begin
    Printf.eprintf "FATAL: honest sessions were flagged\n";
    exit 1
  end;
  if on.Service_run.lag_p99 > !max_lag then begin
    Printf.eprintf "FATAL: p99 audit lag %d exceeds bound %d\n" on.Service_run.lag_p99 !max_lag;
    exit 1
  end;
  (* --- rates -------------------------------------------------------------- *)
  let service_s = max 1e-6 on.Service_run.service_seconds in
  let entries_per_sec = float_of_int on.Service_run.entries_ingested /. service_s in
  let session_epochs_per_sec = float_of_int (!sessions * !epochs) /. service_s in
  let latencies = List.map snd on.Service_run.detection_latency_us |> List.sort compare in
  let lat_nth p =
    let n = List.length latencies in
    if n = 0 then 0.0 else List.nth latencies (min (n - 1) (n * p / 100))
  in
  let hit_rate =
    float_of_int stats.Replay_cache.hits
    /. float_of_int (max 1 (stats.Replay_cache.hits + stats.Replay_cache.misses))
  in
  Printf.printf
    "service: %.0f entries/sec, %.1f session-epochs/sec; lag p50 %d p99 %d max %d; \
     detection latency p50 %.0f us, max %.0f us\n%!"
    entries_per_sec session_epochs_per_sec on.Service_run.lag_p50 on.Service_run.lag_p99
    on.Service_run.lag_max (lat_nth 50) (lat_nth 100);
  Printf.printf "cheats: %d planted, %d detected; backpressure engaged %d\n%!"
    (List.length on.Service_run.cheats)
    (List.length on.Service_run.detected)
    on.Service_run.backpressure_engaged;
  let oc = open_out !out in
  Printf.fprintf oc
    "{\n\
    \  \"sessions\": %d,\n\
    \  \"epochs\": %d,\n\
    \  \"activity\": %.3f,\n\
    \  \"lag_bound_entries\": %d,\n\
    \  \"budget_instructions\": %d,\n\
    \  \"entries_ingested\": %d,\n\
    \  \"entries_per_sec_ingested\": %.1f,\n\
    \  \"session_epochs_per_sec\": %.1f,\n\
    \  \"lag_p50_entries\": %d,\n\
    \  \"lag_p99_entries\": %d,\n\
    \  \"lag_max_entries\": %d,\n\
    \  \"detection_latency_p50_us\": %.1f,\n\
    \  \"detection_latency_max_us\": %.1f,\n\
    \  \"cheats_planted\": %d,\n\
    \  \"cheats_detected\": %d,\n\
    \  \"cheats_missed\": %d,\n\
    \  \"honest_false_flags\": %d,\n\
    \  \"cache_hits\": %d,\n\
    \  \"cache_misses\": %d,\n\
    \  \"cache_hit_rate\": %.4f,\n\
    \  \"cache_instructions_saved\": %d,\n\
    \  \"backpressure_engaged\": %d,\n\
    \  \"backpressure_refusals\": %d,\n\
    \  \"drain_rounds\": %d,\n\
    \  \"verdict_signature\": \"%s\",\n\
    \  \"verdict_signature_matches_cache_off\": %b\n\
     }\n"
    !sessions !epochs !activity !max_lag !budget on.Service_run.entries_ingested
    entries_per_sec session_epochs_per_sec on.Service_run.lag_p50 on.Service_run.lag_p99
    on.Service_run.lag_max (lat_nth 50) (lat_nth 100)
    (List.length on.Service_run.cheats)
    (List.length on.Service_run.detected)
    (List.length on.Service_run.missed)
    (List.length on.Service_run.false_flagged)
    stats.Replay_cache.hits stats.Replay_cache.misses hit_rate
    stats.Replay_cache.instructions_saved on.Service_run.backpressure_engaged
    on.Service_run.backpressure_refusals on.Service_run.drain_rounds sig_on (sig_on = sig_off);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out
