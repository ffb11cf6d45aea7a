(* Auditor-as-a-service smoke: stream N concurrent live sessions into
   one Avm_service.Daemon with a bounded lag target, a cheating
   minority poked (or log-rewritten) mid-session, and assert the
   service invariants — every planted cheat detected before its
   session closes, zero false flags, p99 audit lag within the bound,
   and a verdict vector invariant across pump parallelism. Exits
   nonzero on any violation, so `make service-smoke` can gate `make
   verify` on it. *)

module Service_run = Avm_scenario.Service_run
module Audit = Avm_core.Audit

let usage =
  "avm_auditord [--sessions N] [--epochs E] [--max-lag L] [--budget I] [--cheat-frac F]\n\
  \             [--seed S] [--jobs J] [--check-jobs J2] [--metrics FILE] [--quiet]"

let () =
  let sessions = ref 200 in
  let epochs = ref 3 in
  let max_lag = ref 4096 in
  let budget = ref 5_000_000 in
  let cheat_frac = ref 0.05 in
  let seed = ref 11 in
  let jobs = ref 1 in
  let check_jobs = ref 0 in
  let metrics = ref "" in
  let quiet = ref false in
  let rec parse = function
    | [] -> ()
    | "--sessions" :: v :: rest ->
      sessions := int_of_string v;
      parse rest
    | "--epochs" :: v :: rest ->
      epochs := int_of_string v;
      parse rest
    | "--max-lag" :: v :: rest ->
      max_lag := int_of_string v;
      parse rest
    | "--budget" :: v :: rest ->
      budget := int_of_string v;
      parse rest
    | "--cheat-frac" :: v :: rest ->
      cheat_frac := float_of_string v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--jobs" :: v :: rest ->
      jobs := int_of_string v;
      parse rest
    | "--check-jobs" :: v :: rest ->
      check_jobs := int_of_string v;
      parse rest
    | "--metrics" :: v :: rest ->
      metrics := v;
      parse rest
    | "--quiet" :: rest ->
      quiet := true;
      parse rest
    | a :: _ ->
      prerr_endline ("avm_auditord: unknown argument " ^ a);
      prerr_endline usage;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let spec =
    {
      Service_run.default_spec with
      Service_run.sessions = !sessions;
      epochs = !epochs;
      max_lag = !max_lag;
      budget = !budget;
      cheat_frac = !cheat_frac;
      seed = Int64.of_int !seed;
    }
  in
  let say fmt = Printf.ksprintf (fun s -> if not !quiet then print_endline s) fmt in
  let par j = if j > 1 then Audit.parallel j else Audit.sequential in
  let o = Service_run.run ~par:(par !jobs) spec in
  let s = Service_run.signature o in
  say "service: %d sessions, %d epochs, lag bound %d, seed %d" !sessions !epochs !max_lag
    !seed;
  say "  ingested %d entries, sim events %d, drain rounds %d" o.Service_run.entries_ingested
    o.Service_run.sim_events o.Service_run.drain_rounds;
  say "  cheats %d (detected %d, missed %d, false %d)"
    (List.length o.Service_run.cheats)
    (List.length o.Service_run.detected)
    (List.length o.Service_run.missed)
    (List.length o.Service_run.false_flagged);
  say "  lag entries: p50 %d, p99 %d, max %d (bound %d)" o.Service_run.lag_p50
    o.Service_run.lag_p99 o.Service_run.lag_max !max_lag;
  say "  backpressure: engaged %d, refusals %d" o.Service_run.backpressure_engaged
    o.Service_run.backpressure_refusals;
  say "  cache: %d hits, %d misses, %d instructions saved" o.Service_run.cache_hits
    o.Service_run.cache.Avm_core.Replay_cache.misses
    o.Service_run.cache.Avm_core.Replay_cache.instructions_saved;
  List.iter
    (fun (id, us) -> say "  detected %s %.0f virtual us after injection" id us)
    o.Service_run.detection_latency_us;
  say "  verdict signature: %s" s;
  let fail = ref false in
  let check cond fmt =
    Printf.ksprintf
      (fun msg ->
        if not cond then begin
          prerr_endline ("avm_auditord: FAIL: " ^ msg);
          fail := true
        end)
      fmt
  in
  check (o.Service_run.missed = []) "%d cheats went undetected"
    (List.length o.Service_run.missed);
  check
    (o.Service_run.false_flagged = [])
    "%d honest sessions were flagged"
    (List.length o.Service_run.false_flagged);
  check
    (o.Service_run.lag_p99 <= !max_lag)
    "p99 audit lag %d exceeds bound %d" o.Service_run.lag_p99 !max_lag;
  if !check_jobs > 0 then begin
    let o2 = Service_run.run ~par:(par !check_jobs) spec in
    let s2 = Service_run.signature o2 in
    say "  verdict signature at jobs %d: %s" !check_jobs s2;
    check (s = s2) "verdict vector differs between pump jobs %d and %d" !jobs !check_jobs
  end;
  if !metrics <> "" then begin
    Avm_obs.Report.write_file !metrics;
    say "  metrics written to %s" !metrics
  end;
  if !fail then exit 1;
  say "service smoke OK"
