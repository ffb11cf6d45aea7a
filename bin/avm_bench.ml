(* One driver for the fleet-shaped scenarios (DESIGN.md §28): run a
   Fleet_harness spec at its smoke or full size, run its twin (jobs 4,
   or the replay cache off), print the report and write it as JSON
   (default BENCH_<scenario>.json). Exits 1 on any invariant breach
   Fleet_harness.check names, before writing the report, so `make
   verify` gates on it. Speed is gated by perfbench/, so the report
   holds counts, tallies and signatures, not wall-clock rates. *)

module H = Avm_scenario.Fleet_harness
module Metrics = Avm_obs.Metrics
module Replay_cache = Avm_core.Replay_cache

let usage = "avm_bench <fleet|dedup|service|equiv> [--smoke] [--out FILE] [--metrics FILE]"

(* Where a replayed chunk's time goes, per replayed chunk (misses plus
   spots; the fingerprint is paid by every cached lookup, hits too). *)
let print_chunk_split (s : Replay_cache.stats) =
  let counter name = Metrics.counter (Metrics.snapshot ()) name in
  let replayed = max 1 (s.misses + s.spot_checks) in
  let looked_up = replayed + s.hits in
  let per name n = float_of_int (counter name) /. float_of_int n in
  Printf.printf
    "replayed chunk split (us/chunk over %d): fingerprint %.1f (per lookup, over %d), restore \
     %.1f, pre-digest %.1f, replay %.1f, post-digest %.1f; %d started from a remembered state\n%!"
    replayed
    (per "spot_check.fingerprint_us" looked_up)
    looked_up
    (per "spot_check.restore_us" replayed)
    (per "spot_check.pre_digest_us" replayed)
    (per "spot_check.replay_us" replayed)
    (per "spot_check.post_digest_us" replayed)
    (counter "spot_check.states_reused")

let report (o : H.outcome) =
  let i = string_of_int and n l = string_of_int (List.length l) in
  let floats l = "[" ^ String.concat ", " (List.map (Printf.sprintf "%.4f") l) ^ "]" in
  let size = o.size in
  let forks = o.spec.audit = H.Witness_exchange in
  let cache =
    match o.cache with
    | None -> [ ("dedup_enabled", "false") ]
    | Some s ->
      let looked_up = max 1 (s.hits + s.misses) in
      [
        ("dedup_enabled", "true");
        ("cache_hits", i s.hits);
        ("cache_misses", i s.misses);
        ("cache_hit_rate", Printf.sprintf "%.4f" (float_of_int s.hits /. float_of_int looked_up));
        ("cache_spot_checks", i s.spot_checks);
        ("cache_claim_mismatches", i s.claim_mismatches);
        ("cache_poisoned", i s.poisoned);
        ("cache_bytes_saved", i s.bytes_saved);
        ("cache_instructions_saved", i s.instructions_saved);
      ]
  in
  let audit =
    match o.spec.audit with
    | H.Daemon_sessions ->
      [
        ("lag_bound_entries", i H.max_lag);
        ("lag_p50_entries", i (H.lag o 50.0));
        ("lag_p99_entries", i (H.lag o 99.0));
        ("lag_max_entries", i (H.lag o 100.0));
        ("detection_latency_p50_us", Printf.sprintf "%.1f" (H.latency_us o 50.0));
        ("detection_latency_max_us", Printf.sprintf "%.1f" (H.latency_us o 100.0));
      ]
    | H.Witness_jobs | H.Witness_exchange ->
      [
        ("witnesses_per_node", i H.witnesses);
        ("audit_coverage_per_epoch", floats o.coverage);
        ("audit_failures_per_epoch", "[" ^ String.concat ", " (List.map i o.failures) ^ "]");
      ]
  in
  let detection =
    if forks then begin
      (* The per-witness baseline flags a fork one epoch late at the
         earliest, and never when the fork is in the last epoch. *)
      let lags =
        List.filter_map
          (fun (c : H.cheat) ->
            Option.map (fun e -> e - c.epoch) (List.assoc_opt c.node o.failed))
          o.cheats
      in
      let in_epoch =
        List.filter (fun (c : H.cheat) -> List.assoc_opt c.node o.flags = Some c.epoch) o.cheats
      in
      [
        ("fork_frac", Printf.sprintf "%.3f" o.spec.cheat_frac);
        ("forkers_planted", n o.cheats);
        ("forkers_detected_by_exchange", n o.flags);
        ("forkers_detected_in_fork_epoch", n in_epoch);
        ("baseline_detected", n lags);
        ("baseline_missed", i (List.length o.cheats - List.length lags));
        ( "baseline_min_lag_epochs",
          i (List.fold_left min max_int (if lags = [] then [ 0 ] else lags)) );
        ("false_flags", n (H.false_flagged o));
        ("proofs", n o.proofs);
        ("proofs_verified_standalone", i o.proofs_verified);
        ( "exchange_bytes_per_node_epoch",
          Printf.sprintf "%.1f"
            (float_of_int (H.count o "exchange_bytes")
            /. float_of_int (size.nodes * size.epochs)) );
      ]
    end
    else
      [
        ("cheats_planted", n o.cheats);
        ("cheats_detected", n (H.detected o));
        ("cheats_missed", n (H.missed o));
        ("honest_false_flags", n (H.false_flagged o));
      ]
  in
  let twin, twin_key =
    match o.spec.twin with
    | H.Jobs_4 -> ([ ("auditor_parallel_jobs", "4") ], "verdict_signature_matches_parallel")
    | H.Cache_off -> ([], "verdict_signature_matches_cache_off")
  in
  [
    ((if o.spec.audit = H.Daemon_sessions then "sessions" else "nodes"), i size.nodes);
    ("epochs", i size.epochs);
    ("epoch_virtual_us", Printf.sprintf "%.0f" o.spec.epoch_us);
    ("activity", Printf.sprintf "%.3f" o.spec.activity);
    ("faults_enabled", string_of_bool (size.faults <> None));
  ]
  @ List.map (fun (k, v) -> (k, i v)) o.counts
  @ cache @ audit @ detection @ twin
  @ [
      ("verdict_signature", Printf.sprintf "%S" (H.signature o));
      (twin_key, string_of_bool (o.twin_signature = Some (H.signature o)));
    ]

let () =
  let scenario = ref None and smoke = ref false and out = ref "" and metrics = ref "" in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " run the spec's smoke size (default: full)");
      ("--out", Arg.Set_string out, "FILE  where to write the JSON report");
      ("--metrics", Arg.Set_string metrics, "FILE  write the metrics snapshot of the twin run");
    ]
    (fun a -> if !scenario = None then scenario := Some a else raise (Arg.Bad a))
    usage;
  let name, spec =
    match Option.map (fun s -> (s, List.assoc_opt s H.scenarios)) !scenario with
    | Some (name, Some spec) -> (name, spec)
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let size = if !smoke then spec.H.smoke else spec.H.full in
  Printf.printf "%s: %d nodes, %d epochs, seed %Ld\n%!" name size.H.nodes size.H.epochs spec.H.seed;
  (* Each run starts from zeroed metrics and a cold signature cache, so
     neither inherits the other's warm state. *)
  let fresh () =
    Metrics.reset ();
    Avm_crypto.Sigcache.clear ()
  in
  fresh ();
  let o = H.run spec size in
  (match (spec.H.twin, o.H.cache) with H.Cache_off, Some s -> print_chunk_split s | _ -> ());
  fresh ();
  let o = H.run_twin o in
  if !metrics <> "" then Avm_obs.Report.write_file !metrics;
  let json =
    "{\n"
    ^ String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) (report o))
    ^ "\n}\n"
  in
  print_string json;
  match H.check o with
  | [] ->
    let file = if !out = "" then "BENCH_" ^ name ^ ".json" else !out in
    Out_channel.with_open_bin file (fun oc -> output_string oc json);
    Printf.printf "%s OK, wrote %s\n" name file
  | breaches ->
    List.iter (Printf.eprintf "avm_bench %s: FAIL: %s\n" name) breaches;
    exit 1
