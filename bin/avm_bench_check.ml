(* Validate committed BENCH_*.json files: each must parse and carry
   its required keys with sane values. Catches the class of regression
   where a bench silently emits a zero, a NaN (unparseable as JSON) or
   drops a field the README tables quote — the files are committed
   artifacts, so a malformed one otherwise survives until a human
   reads it. Run via [make bench-check]; any absent file is an error
   (the bench that writes it is part of the build). *)

module Json = Avm_obs.Json

let errors = ref 0

let fail file fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      Printf.eprintf "%s: %s\n" file msg)
    fmt

(* Keys that must exist; [Num_pos] additionally demands > 0 (a rate
   or count that benched at zero means the measurement window is
   broken, which is exactly the bug this tool exists to catch);
   [Num_min x] demands >= x — a regression floor for rates the
   roadmap commits to. *)
type req = Present | Num_pos | Num_min of float

let check_file (file, reqs) =
  if not (Sys.file_exists file) then fail file "missing (run `make bench` to regenerate)"
  else
    let contents =
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Json.parse contents with
    | exception _ -> fail file "does not parse as JSON"
    | json ->
      List.iter
        (fun (key, req) ->
          match Json.member key json with
          | None -> fail file "required key %S missing" key
          | Some v -> (
            match req with
            | Present -> ()
            | Num_pos -> (
              match Json.to_float_opt v with
              | Some x when x > 0.0 -> ()
              | Some x -> fail file "key %S is %g, expected > 0" key x
              | None -> fail file "key %S is not a number" key)
            | Num_min floor -> (
              match Json.to_float_opt v with
              | Some x when x >= floor -> ()
              | Some x -> fail file "key %S is %g, below the regression floor %g" key x floor
              | None -> fail file "key %S is not a number" key)))
        reqs

let () =
  let files =
    [
      ( "BENCH_audit.json",
        [
          ("entries", Num_pos);
          (* Floor from the batched-signature + derived-chain rework
             (DESIGN.md §17): 2x the previous ~83k committed rate,
             with headroom for slower CI hosts. *)
          ("syntactic_entries_per_sec", Num_min 166000.0);
          ("syntactic_rsa_verifies_per_sec", Num_pos);
          ("semantic_entries_per_sec", Num_pos);
          ("semantic_rsa_verifies_per_sec", Num_pos);
          ("parallel_jobs", Num_pos);
          ("compression_ratio", Num_pos);
          ("verdict_match", Present);
          ("net_retransmissions", Present);
        ] );
      (* The fleet-shaped reports (avm_bench) carry counts, tallies
         and signatures only: their speed is gated by perfbench/. *)
      ( "BENCH_fleet.json",
        [
          ("nodes", Num_pos);
          ("audit_jobs", Num_pos);
          ("audit_coverage_per_epoch", Present);
          ("dedup_enabled", Present);
          ("cache_hits", Present);
          ("cache_hit_rate", Present);
          ("cheats_planted", Num_pos);
          ("cheats_detected", Num_pos);
          ("cheats_missed", Present);
          ("honest_false_flags", Present);
          ("verdict_signature", Present);
        ] );
      ( "BENCH_dedup.json",
        [
          ("nodes", Num_pos);
          ("semantic_entries", Num_pos);
          ("cache_hits", Num_pos);
          ("cache_hit_rate", Num_pos);
          ("cheats_planted", Num_pos);
          ("cheats_detected", Num_pos);
          ("cheats_missed", Present);
          ("honest_false_flags", Present);
          ("verdict_signature", Present);
        ] );
      ( "BENCH_crypto.json",
        [
          ("rsa_bits", Present);
          (* Which SHA-256 kernel produced the rates (DESIGN.md §30). *)
          ("sha256_kernel", Present);
          ("sha256_mb_per_sec", Num_pos);
          (* Batch verification is pointwise verification (DESIGN.md
             §30), so batching has no speedup to hold a floor against;
             these single-shot rates swing by up to 2x with host load,
             and the paired runs of perfbench/ are what gate speed. *)
          ("rsa_signs_per_sec", Num_pos);
          ("rsa_verifies_per_sec", Num_pos);
          ("rsa_batch_verifies_per_sec", Num_pos);
          ("batch_speedup", Num_pos);
          ("crosscheck_ok", Present);
        ] );
      ( "BENCH_equiv.json",
        [
          ("nodes", Num_pos);
          ("witnesses_per_node", Num_pos);
          ("forkers_planted", Num_pos);
          ("forkers_detected_by_exchange", Num_pos);
          ("forkers_detected_in_fork_epoch", Num_pos);
          ("false_flags", Present);
          ("proofs", Num_pos);
          ("proofs_verified_standalone", Num_pos);
          ("exchange_messages", Num_pos);
          ("exchange_bytes", Num_pos);
          ("exchange_bytes_per_node_epoch", Num_pos);
          ("verdict_signature", Present);
        ] );
      ( "BENCH_service.json",
        [
          ("sessions", Num_pos);
          ("entries_ingested", Num_pos);
          ("lag_bound_entries", Num_pos);
          ("lag_p50_entries", Present);
          ("lag_p99_entries", Present);
          ("detection_latency_p50_us", Num_pos);
          ("detection_latency_max_us", Num_pos);
          ("cheats_planted", Num_pos);
          ("cheats_detected", Num_pos);
          ("cheats_missed", Present);
          ("honest_false_flags", Present);
          ("cache_hit_rate", Present);
          ("backpressure_engaged", Present);
          ("verdict_signature", Present);
        ] );
    ]
  in
  (* Only files that exist in the repo are required to validate except
     the required list below. *)
  let required =
    [
      "BENCH_audit.json";
      "BENCH_fleet.json";
      "BENCH_dedup.json";
      "BENCH_crypto.json";
      "BENCH_service.json";
      "BENCH_equiv.json";
    ]
  in
  List.iter
    (fun (file, reqs) ->
      if List.mem file required || Sys.file_exists file then check_file (file, reqs))
    files;
  if !errors > 0 then begin
    Printf.eprintf "bench-check: %d problem(s)\n" !errors;
    exit 1
  end;
  print_endline "bench-check: all committed bench files parse with required keys"
