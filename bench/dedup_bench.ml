(* Deduplicated re-execution benchmark (DESIGN.md §14, ROADMAP item 2).

   Runs the same fleet experiment twice from the same seed — once with
   the replay cache disabled (every semantic job replays its epoch
   chunk in full) and once with one Replay_cache shared across every
   (target, witness) job — and reports what fleet-wide memoization is
   worth on the honest-majority workload: an idle-majority fleet where
   most nodes' epoch chunks are fingerprint-identical, so each
   distinct chunk replays once and the rest audit as a three-digest
   compare.

   Two speedups are reported:

   - semantic_speedup: wall time of all semantic audit jobs, cache off
     vs on (the fleet-level answer — bounded by the miss cohort, i.e.
     the distinct-fingerprint count);
   - dedup_path_speedup: mean per-chunk cost of the full pipeline
     (download + replay; spot-designated hits when any were drawn,
     else misses) vs the mean cost of a cache hit on the same
     fingerprint population — the like-for-like cost of what each hit
     avoided.

   Hard checks, all fatal: the verdict vector must be byte-identical
   cache-on vs cache-off, every planted cheat must be detected in both
   passes, no honest node may be flagged, and the cache-on pass must
   actually hit. The Sigcache is cleared and metrics are reset between
   passes so neither pass inherits the other's warm crypto cache or
   histogram samples (both passes use the same seed, hence identical
   keys and signatures). *)

module Fleet_run = Avm_scenario.Fleet_run
module Replay_cache = Avm_core.Replay_cache
module Audit = Avm_core.Audit
module Metrics = Avm_obs.Metrics

let () =
  let nodes = ref 2_000 in
  let epochs = ref 3 in
  let activity = ref 0.05 in
  let seed = ref 11 in
  let spot_rate = ref 8 in
  let out = ref "BENCH_dedup.json" in
  let smoke = ref false in
  Arg.parse
    [
      ("--nodes", Arg.Set_int nodes, "N  fleet size (default 2000)");
      ("--epochs", Arg.Set_int epochs, "E  audit epochs (default 3)");
      ("--activity", Arg.Set_float activity, "F  active-node fraction per epoch (default 0.05)");
      ("--seed", Arg.Set_int seed, "S  master seed (default 11)");
      ("--spot-rate", Arg.Set_int spot_rate, "R  1-in-R fingerprints replay even on hit (default 8)");
      ("--out", Arg.Set_string out, "PATH  where to write the JSON report");
      ("--smoke", Arg.Set smoke, "  300-node run for CI smoke checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "dedup_bench [--nodes N] [--epochs E] [--activity F] [--spot-rate R] [--out PATH] [--smoke]";
  if !smoke then nodes := 300;
  let spec =
    {
      Fleet_run.default_spec with
      Fleet_run.nodes = !nodes;
      epochs = !epochs;
      activity = !activity;
      seed = Int64.of_int !seed;
      spot_rate = !spot_rate;
    }
  in
  Printf.printf "dedup bench: %d nodes, %d epochs, activity %.2f, spot rate %d, seed %d\n%!"
    !nodes !epochs !activity !spot_rate !seed;
  (* Baseline first, cache pass second; each pass starts from a cold
     Sigcache and zeroed metrics so the comparison is symmetric. *)
  Metrics.reset ();
  Avm_crypto.Sigcache.clear ();
  let off =
    Fleet_run.run ~par:Audit.sequential { spec with Fleet_run.dedup = false }
  in
  Printf.printf "cache off: %d semantic entries in %d us\n%!" off.Fleet_run.semantic_entries
    off.Fleet_run.semantic_us;
  Metrics.reset ();
  Avm_crypto.Sigcache.clear ();
  let on = Fleet_run.run ~par:Audit.sequential spec in
  let hist name =
    match List.assoc_opt name (Metrics.snapshot ()).Metrics.histograms with
    | Some h -> h
    | None -> { Metrics.count = 0; total = 0.0; mean = 0.0; min = 0.0; max = 0.0;
                p50 = 0.0; p90 = 0.0; p99 = 0.0 }
  in
  let hit_h = hist "spot_check.cache_hit_seconds" in
  let spot_h = hist "spot_check.cache_spot_seconds" in
  let miss_h = hist "spot_check.cache_miss_seconds" in
  let stats =
    match on.Fleet_run.cache with
    | Some s -> s
    | None ->
      Printf.eprintf "FATAL: dedup pass ran without a cache\n";
      exit 1
  in
  Printf.printf "cache on:  %d semantic entries in %d us (hits %d, misses %d, spots %d)\n%!"
    on.Fleet_run.semantic_entries on.Fleet_run.semantic_us stats.Replay_cache.hits
    stats.Replay_cache.misses stats.Replay_cache.spot_checks;
  (* Where a replayed chunk's time goes: Spot_check's per-stage
     counters over the cache-on pass, per replayed chunk (misses plus
     spots; the fingerprint is paid by every cached chunk, hits too). *)
  let counters = (Metrics.snapshot ()).Metrics.counters in
  let counter name = Option.value ~default:0 (List.assoc_opt name counters) in
  let replayed = max 1 (stats.Replay_cache.misses + stats.Replay_cache.spot_checks) in
  let looked_up = replayed + stats.Replay_cache.hits in
  let per_chunk name = float_of_int (counter name) /. float_of_int replayed in
  Printf.printf
    "replayed chunk split (us/chunk over %d): fingerprint %.1f (per lookup, over %d), restore \
     %.1f, pre-digest %.1f, replay %.1f, post-digest %.1f; %d started from a remembered state\n%!"
    replayed
    (float_of_int (counter "spot_check.fingerprint_us") /. float_of_int looked_up)
    looked_up
    (per_chunk "spot_check.restore_us")
    (per_chunk "spot_check.pre_digest_us")
    (per_chunk "spot_check.replay_us")
    (per_chunk "spot_check.post_digest_us")
    (counter "spot_check.states_reused");
  (* --- hard checks -------------------------------------------------------- *)
  let sig_on = Fleet_run.signature on and sig_off = Fleet_run.signature off in
  if sig_on <> sig_off then begin
    Printf.eprintf "FATAL: verdict vector differs cache-on vs cache-off\n";
    exit 1
  end;
  if on.Fleet_run.missed <> [] || off.Fleet_run.missed <> [] then begin
    Printf.eprintf "FATAL: %d/%d cheats went undetected (on/off)\n"
      (List.length on.Fleet_run.missed)
      (List.length off.Fleet_run.missed);
    exit 1
  end;
  if on.Fleet_run.false_flagged <> [] then begin
    Printf.eprintf "FATAL: %d honest nodes flagged\n" (List.length on.Fleet_run.false_flagged);
    exit 1
  end;
  if stats.Replay_cache.hits = 0 then begin
    Printf.eprintf "FATAL: dedup pass never hit the cache\n";
    exit 1
  end;
  (* --- rates -------------------------------------------------------------- *)
  let per_sec entries us = float_of_int entries /. (float_of_int (max 1 us) /. 1e6) in
  let rate_off = per_sec off.Fleet_run.semantic_entries off.Fleet_run.semantic_us in
  let rate_on = per_sec on.Fleet_run.semantic_entries on.Fleet_run.semantic_us in
  let semantic_speedup = rate_on /. rate_off in
  let hit_rate =
    float_of_int stats.Replay_cache.hits
    /. float_of_int (max 1 (stats.Replay_cache.hits + stats.Replay_cache.misses))
  in
  (* Like-for-like per-chunk cost: a spot-designated hit is a full
     replay of a chunk whose fingerprint also hit, so spot/hit is the
     cleanest dedup-path ratio; when seeded designation drew no spots
     (hits concentrate on a handful of distinct fingerprints), fall
     back to the miss mean — the same pipeline on the miss cohort. *)
  let full_mean, full_kind =
    if spot_h.Metrics.count > 0 then (spot_h.Metrics.mean, "spot")
    else (miss_h.Metrics.mean, "miss")
  in
  let dedup_path_speedup =
    if hit_h.Metrics.count = 0 || hit_h.Metrics.mean <= 0.0 then 1.0
    else full_mean /. hit_h.Metrics.mean
  in
  Printf.printf
    "semantic: %.0f entries/sec off, %.0f on (%.2fx); hit rate %.3f; dedup path %.1fx (%s/hit)\n%!"
    rate_off rate_on semantic_speedup hit_rate dedup_path_speedup full_kind;
  Printf.printf "cheats: %d planted, %d detected with cache, %d without\n%!"
    (List.length on.Fleet_run.cheats)
    (List.length on.Fleet_run.detected)
    (List.length off.Fleet_run.detected);
  let oc = open_out !out in
  Printf.fprintf oc
    "{\n\
    \  \"nodes\": %d,\n\
    \  \"epochs\": %d,\n\
    \  \"activity\": %.3f,\n\
    \  \"spot_rate\": %d,\n\
    \  \"semantic_entries\": %d,\n\
    \  \"semantic_entries_per_sec_off\": %.1f,\n\
    \  \"semantic_entries_per_sec_on\": %.1f,\n\
    \  \"semantic_speedup\": %.3f,\n\
    \  \"cache_hits\": %d,\n\
    \  \"cache_misses\": %d,\n\
    \  \"cache_hit_rate\": %.4f,\n\
    \  \"cache_spot_checks\": %d,\n\
    \  \"cache_claim_mismatches\": %d,\n\
    \  \"cache_poisoned\": %d,\n\
    \  \"cache_bytes_saved\": %d,\n\
    \  \"cache_instructions_saved\": %d,\n\
    \  \"hit_mean_us\": %.2f,\n\
    \  \"full_mean_us\": %.2f,\n\
    \  \"full_mean_kind\": \"%s\",\n\
    \  \"dedup_path_speedup\": %.1f,\n\
    \  \"cheats_planted\": %d,\n\
    \  \"cheats_detected\": %d,\n\
    \  \"cheats_missed\": %d,\n\
    \  \"honest_false_flags\": %d,\n\
    \  \"verdict_signature\": \"%s\",\n\
    \  \"verdict_signature_matches_baseline\": true\n\
     }\n"
    !nodes !epochs !activity !spot_rate on.Fleet_run.semantic_entries rate_off rate_on
    semantic_speedup stats.Replay_cache.hits stats.Replay_cache.misses hit_rate
    stats.Replay_cache.spot_checks stats.Replay_cache.claim_mismatches
    stats.Replay_cache.poisoned stats.Replay_cache.bytes_saved
    stats.Replay_cache.instructions_saved
    (hit_h.Metrics.mean *. 1e6)
    (full_mean *. 1e6)
    full_kind dedup_path_speedup
    (List.length on.Fleet_run.cheats)
    (List.length on.Fleet_run.detected)
    (List.length on.Fleet_run.missed)
    (List.length on.Fleet_run.false_flagged)
    sig_on;
  close_out oc;
  Printf.printf "wrote %s\n%!" !out
