(* Audit a recording file: verify the hash chain against the collected
   authenticators (syntactic check), then deterministically replay the
   log against the trusted reference image (semantic check). On a
   fault, optionally write transferable evidence; evidence files can be
   re-checked by a third party with --check-evidence. *)

open Cmdliner
open Avm_scenario
module Audit = Avm_core.Audit
module Evidence = Avm_core.Evidence

let write_metrics = function
  | None -> ()
  | Some path ->
    Avm_obs.Report.write_file path;
    Printf.printf "metrics written to %s\n" path

let write_evidence evidence_out (outcome : Audit.outcome) =
  match (evidence_out, outcome.evidence) with
  | None, _ | _, None -> ()
  | Some out, Some ev ->
    let oc = open_out_bin out in
    output_string oc (Evidence.encode ev);
    close_out oc;
    Printf.printf "evidence written to %s (give it to any third party)\n" out

let audit_file path evidence_out jobs metrics_out metrics_table =
  let r = Recording.load ~path in
  Printf.printf "auditing %s (%s scenario, %d entries, %d authenticators)\n%!"
    r.Recording.node
    (Recording.scenario_name r.Recording.scenario)
    (List.length r.Recording.entries)
    (List.length r.Recording.auths);
  (* Trust root: check every certificate against the CA first. *)
  List.iter
    (fun (name, cert) ->
      if not (Avm_crypto.Identity.check_certificate r.Recording.ca_public cert) then begin
        Printf.eprintf "certificate for %s does not verify against the CA\n" name;
        exit 2
      end)
    r.Recording.certificates;
  let ctx =
    Audit.ctx
      ~node_cert:(List.assoc r.Recording.node r.Recording.certificates)
      ~peer_certs:r.Recording.certificates ~auths:r.Recording.auths ()
  in
  let par = Audit.parallel jobs in
  let image = Recording.image_of_scenario r.Recording.scenario in
  (* The recorded hashes are audited verbatim, so tampering in the file
     still reaches the auditor; a recording whose sequence numbers do
     not form a contiguous run is a chain failure like any other. *)
  let outcome =
    Audit.full ~ctx ~image ~mem_words:r.Recording.mem_words ~peers:r.Recording.peers
      ~entries:r.Recording.entries ~par ()
  in
  Format.printf "%a@." Audit.pp_outcome outcome;
  write_metrics metrics_out;
  if metrics_table then print_string (Avm_obs.Report.table ());
  match outcome.Audit.verdict with
  | Ok () -> 0
  | Error _ ->
    write_evidence evidence_out outcome;
    1

(* Stream the recording through the session-oriented online auditor —
   the same code path the service daemon drives — instead of the batch
   pipeline: entries are offered in slices, each slice syntactically
   checked on ingest and replayed under a budget, with backpressure
   drained by extra replay steps. *)
let audit_online path slice evidence_out metrics_out metrics_table =
  let r = Recording.load ~path in
  Printf.printf "online-auditing %s (%s scenario, %d entries, slice %d)\n%!"
    r.Recording.node
    (Recording.scenario_name r.Recording.scenario)
    (List.length r.Recording.entries)
    slice;
  List.iter
    (fun (name, cert) ->
      if not (Avm_crypto.Identity.check_certificate r.Recording.ca_public cert) then begin
        Printf.eprintf "certificate for %s does not verify against the CA\n" name;
        exit 2
      end)
    r.Recording.certificates;
  let ctx =
    Audit.ctx
      ~node_cert:(List.assoc r.Recording.node r.Recording.certificates)
      ~peer_certs:r.Recording.certificates ~auths:r.Recording.auths ()
  in
  let image = Recording.image_of_scenario r.Recording.scenario in
  let log =
    match Avm_tamperlog.Log.of_entries r.Recording.entries with
    | log -> log
    | exception Invalid_argument msg ->
      Printf.eprintf "recording cannot be streamed (%s); use the batch audit\n" msg;
      exit 2
  in
  let module Session = Avm_core.Online_audit.Session in
  let s =
    Session.open_session ~ctx ~image ~mem_words:r.Recording.mem_words ~replay_rate:1.0
      ~peers:r.Recording.peers ()
  in
  let budget = 50_000_000 in
  let len = Avm_tamperlog.Log.length log in
  let upto = ref 0 in
  (* Offering goes on after a verdict: the session keeps the entries up
     to the authenticator that covers the fault, for the evidence. *)
  while !upto < len do
    upto := min len (!upto + slice);
    let rec offer () =
      match Session.ingest ~upto:!upto s log with
      | `Accepted -> ()
      | `Backpressure _ ->
        ignore (Session.step s ~budget_instructions:budget);
        offer ()
    in
    offer ();
    ignore (Session.step s ~budget_instructions:budget)
  done;
  while
    (Session.status s).Avm_core.Online_audit.verdict = None && Session.lag_entries s > 0
  do
    ignore (Session.step s ~budget_instructions:budget)
  done;
  let final = Session.close s in
  let st = Session.status s in
  Printf.printf "ingested %d entries, retired %d chunks, %d cache hits\n"
    st.Avm_core.Online_audit.ingested_entries st.Avm_core.Online_audit.chunks_retired
    st.Avm_core.Online_audit.cache_hits;
  write_metrics metrics_out;
  if metrics_table then print_string (Avm_obs.Report.table ());
  match final with
  | None ->
    Printf.printf "online audit: %s verified (%d instructions replayed)\n" r.Recording.node
      st.Avm_core.Online_audit.replayed_instructions;
    0
  | Some v ->
    Format.printf "online audit: FAILED — %a@." Avm_core.Online_audit.pp_verdict v;
    let outcome = Session.outcome s in
    Format.printf "%a@." Audit.pp_outcome outcome;
    write_evidence evidence_out outcome;
    1

let check_evidence path recording_path =
  let ic = open_in_bin path in
  let blob = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Evidence.decode blob with
  | Error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    2
  | Ok ev ->
  (* The third party needs the certificates and peer map; they travel
     in any recording of the same session. *)
  let r = Recording.load ~path:recording_path in
  Printf.printf "checking %s\n%!" (Evidence.describe ev);
  match List.assoc_opt ev.Evidence.accused r.Recording.certificates with
  | None ->
    Printf.eprintf "%s: no certificate for %s in %s\n" path ev.Evidence.accused recording_path;
    2
  | Some node_cert ->
    let ctx = Audit.ctx ~node_cert ~peer_certs:r.Recording.certificates () in
    let confirmed =
      Audit.check_evidence ev ~ctx
        ~image:(Recording.image_of_scenario r.Recording.scenario)
        ~mem_words:r.Recording.mem_words ~peers:r.Recording.peers ()
    in
    if confirmed then begin
      Printf.printf "CONFIRMED: %s is provably faulty\n" ev.Evidence.accused;
      0
    end
    else if Evidence.challenge_genuine ev ~node_cert then begin
      Printf.printf "CHALLENGE: %s must answer for its signed log; this proves no fault\n"
        ev.Evidence.accused;
      3
    end
    else begin
      Printf.printf "REJECTED: the evidence does not hold up\n";
      1
    end

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"RECORDING" ~doc:"Recording file.")

let evidence_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "evidence" ] ~docv:"OUT" ~doc:"On a fault, write transferable evidence here.")

let check_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-evidence" ] ~docv:"EVIDENCE"
        ~doc:
          "Act as the third party: verify an evidence file against RECORDING's session data \
           (exit 0 when confirmed, 1 when rejected, 2 when the file is not evidence or names \
           a node RECORDING has no certificate for, 3 when it is a genuine challenge, which \
           proves no fault).")

let jobs_arg =
  Arg.(
    value
    & opt int (Avm_util.Domain_pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for the audit (default: the machine's recommended domain \
           count). The syntactic check fans out across sealed segments; the verdict is \
           identical to $(b,--jobs 1).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the observability snapshot (counters, gauges, histograms, trace spans) \
           as JSON to $(docv) after the audit.")

let metrics_table_arg =
  Arg.(
    value & flag
    & info [ "metrics-table" ] ~doc:"Print the metrics snapshot as an aligned text table.")

let online_arg =
  Arg.(
    value & flag
    & info [ "online" ]
        ~doc:
          "Stream the recording through the session-oriented online auditor (paper §6.11) \
           instead of the batch pipeline: slices are ingested as if the log were still \
           growing, with the same verdict.")

let slice_arg =
  Arg.(
    value
    & opt int 64
    & info [ "slice" ] ~docv:"N" ~doc:"Entries offered per $(b,--online) ingest step.")

let cmd =
  let doc = "audit an AVM recording (syntactic + semantic checks)" in
  let term =
    Term.(
      const (fun check file evidence jobs metrics table online slice ->
          match check with
          | Some ev_path -> Stdlib.exit (check_evidence ev_path file)
          | None ->
            if online then Stdlib.exit (audit_online file slice evidence metrics table)
            else Stdlib.exit (audit_file file evidence jobs metrics table))
      $ check_arg $ file_arg $ evidence_arg $ jobs_arg $ metrics_arg $ metrics_table_arg
      $ online_arg $ slice_arg)
  in
  Cmd.v (Cmd.info "avm_audit" ~doc) term

let () = Stdlib.exit (Cmd.eval cmd)
