(* Fleet-scale witness-audit smoke: N nodes, E epochs, and the two
   invariants the harness must never lose — every node is audited every
   epoch, and the verdict vector is identical no matter how many
   auditor workers run it. Exits nonzero on any violation, so `make
   fleet-smoke` can gate `make verify` on it. *)

module Fleet_run = Avm_scenario.Fleet_run
module Audit = Avm_core.Audit

let usage = "avm_fleet [--nodes N] [--epochs E] [--witnesses K] [--seed S] [--quiet]"

let () =
  let nodes = ref 200 in
  let epochs = ref 3 in
  let witnesses = ref 3 in
  let seed = ref 7 in
  let quiet = ref false in
  let rec parse = function
    | [] -> ()
    | "--nodes" :: v :: rest ->
      nodes := int_of_string v;
      parse rest
    | "--epochs" :: v :: rest ->
      epochs := int_of_string v;
      parse rest
    | "--witnesses" :: v :: rest ->
      witnesses := int_of_string v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--quiet" :: rest ->
      quiet := true;
      parse rest
    | a :: _ ->
      prerr_endline ("avm_fleet: unknown argument " ^ a);
      prerr_endline usage;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let spec =
    {
      Fleet_run.default_spec with
      Fleet_run.nodes = !nodes;
      epochs = !epochs;
      witnesses = !witnesses;
      seed = Int64.of_int !seed;
    }
  in
  let say fmt = Printf.ksprintf (fun s -> if not !quiet then print_endline s) fmt in
  let o1 = Fleet_run.run ~par:Audit.sequential spec in
  let o4 = Fleet_run.run ~par:(Audit.parallel 4) spec in
  let s1 = Fleet_run.signature o1 and s4 = Fleet_run.signature o4 in
  say "fleet: %d nodes, %d epochs, k=%d, seed %d" !nodes !epochs !witnesses !seed;
  say "  sim events %d, audit jobs %d, cheats %d (detected %d, missed %d, false %d)"
    o1.Fleet_run.sim_events o1.Fleet_run.audit_jobs
    (List.length o1.Fleet_run.cheats)
    (List.length o1.Fleet_run.detected)
    (List.length o1.Fleet_run.missed)
    (List.length o1.Fleet_run.false_flagged);
  List.iter
    (fun (r : Fleet_run.epoch_report) ->
      say "  epoch %d: coverage %.3f, %d jobs, %d failing verdicts" r.Fleet_run.epoch
        r.Fleet_run.coverage r.Fleet_run.jobs r.Fleet_run.failures)
    o1.Fleet_run.reports;
  let details = Hashtbl.create 8 in
  List.iter
    (fun (v : Avm_core.Witness.verdict) ->
      if not v.Avm_core.Witness.ok then
        let d = v.Avm_core.Witness.detail in
        Hashtbl.replace details d (1 + Option.value ~default:0 (Hashtbl.find_opt details d)))
    o1.Fleet_run.verdicts;
  Hashtbl.iter (fun d n -> say "  failing detail (%dx): %s" n d) details;
  say "  verdict signature: %s (jobs 1) / %s (jobs 4)" s1 s4;
  let fail = ref false in
  let check cond fmt =
    Printf.ksprintf
      (fun msg ->
        if not cond then begin
          prerr_endline ("avm_fleet: FAIL: " ^ msg);
          fail := true
        end)
      fmt
  in
  check (s1 = s4) "verdict vector differs between auditor jobs 1 and jobs 4";
  List.iter
    (fun (r : Fleet_run.epoch_report) ->
      check
        (r.Fleet_run.coverage = 1.0)
        "epoch %d coverage %.3f < 1.0" r.Fleet_run.epoch r.Fleet_run.coverage)
    o1.Fleet_run.reports;
  check (o1.Fleet_run.missed = []) "%d cheats went undetected" (List.length o1.Fleet_run.missed);
  check
    (o1.Fleet_run.false_flagged = [])
    "%d honest nodes were flagged" (List.length o1.Fleet_run.false_flagged);
  if !fail then exit 1;
  say "fleet smoke OK"
