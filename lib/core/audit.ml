open Avm_tamperlog
module Metrics = Avm_obs.Metrics
module Trace = Avm_obs.Trace
module Clock = Avm_obs.Clock

type ctx = Audit_ctx.ctx = {
  node_cert : Avm_crypto.Identity.certificate;
  peer_certs : (string * Avm_crypto.Identity.certificate) list;
  auths : Auth.t list;
  ack_grace : int;
}

let ctx = Audit_ctx.ctx

type parallelism = Audit_ctx.parallelism = {
  jobs : int;
  pool : Avm_util.Domain_pool.t option;
}

let sequential = Audit_ctx.sequential
let parallel = Audit_ctx.parallel

type syntactic_report = {
  entries_checked : int;
  auths_matched : int;
  recv_signatures_verified : int;
  failures : string list;
}

(* The syntactic check as an incremental stream: all five checks
   (hash chain, authenticator matching, RECV sender signatures, send
   acknowledgement, input-stream cross-references) run against one
   pass over the entry stream, whose state lives in a record so a
   long-lived session ({!Online_audit}) can push entries as they
   arrive and read failures mid-stream. Only the collected
   authenticators — a set far smaller than the log — are pre-indexed
   up front; obligations that can only be settled once the cut point
   is known (unacked sends) are resolved by [syn_finish].

   The parallel pass runs the very same stream over each chunk of the
   log and stitches the chunk streams (see [stitch]); a chunk stream
   differs only in leaving two facts that cross a chunk boundary to
   the stitcher, as cells of its failure list. *)
type syn_cell =
  | Cell_msg of string
  | Cell_sig of int
      (* a deferred RECV signature check, index into the pending batch:
         one that verifies is dropped at flush time, one that fails
         becomes its message in exactly the position an immediate check
         would have put it *)
  | Cell_chain of string
      (* a chain failure; the stitcher drops it when an earlier chunk
         already broke, reproducing the single "first break only" flag *)
  | Cell_xref of int * int
      (* (entry seq, msg seq): an rx read of an entry that is not a RECV
         of this chunk — the stitcher resolves it against the RECVs of
         earlier chunks *)

(* Flush once this many signature checks are queued; bounds both the
   placeholder scan and the batch array. *)
let sig_batch_cap = 512

type syn_stream = {
  ss_node : string;
  ss_peer_certs : (string * Avm_crypto.Identity.certificate) list;
  ss_ack_grace : int;
  ss_auth_by_seq : (int, Auth.t) Hashtbl.t;
  ss_defer_xrefs : bool; (* a chunk stream after the first chunk *)
  mutable ss_failures : syn_cell list; (* newest first *)
  mutable ss_nfail : int; (* resolved failures only *)
  mutable ss_entries_checked : int;
  mutable ss_auths_matched : int;
  mutable ss_recv_sigs : int;
  (* Deferred RECV signature checks: (seq, cert, body, signature),
     newest first, batched through [Identity.verify_batch]. *)
  mutable ss_sig_pending : (int * Avm_crypto.Identity.certificate * string * string) list;
  mutable ss_sig_npending : int;
  (* Hash-chain state; only the first break is reported, matching
     [Log.verify_segment]. *)
  mutable ss_prev : string;
  mutable ss_expected_seq : int;
  mutable ss_chain_broken : bool;
  mutable ss_links_trusted : int; (* links whose decoder mark matched [ss_prev] *)
  mutable ss_links_hashed : int;
  (* Cross-reference and acknowledgement state. *)
  mutable ss_first_seq : int;
  mutable ss_last_seq : int;
  ss_recv_seqs : (int, unit) Hashtbl.t;
  ss_acked : (int, unit) Hashtbl.t;
  mutable ss_pending_sends : int list;
}

let push_cell s c =
  s.ss_failures <- c :: s.ss_failures;
  s.ss_nfail <- s.ss_nfail + 1

let syn_fail s fmt = Printf.ksprintf (fun m -> push_cell s (Cell_msg m)) fmt
let xref_failure seq msg = Printf.sprintf "entry #%d: rx read references non-RECV entry %d" seq msg

(* Resolve every queued signature check: one batched verification,
   then placeholders collapse in place. *)
let syn_flush s =
  if s.ss_sig_npending > 0 then begin
    let pending = Array.of_list (List.rev s.ss_sig_pending) in
    s.ss_sig_pending <- [];
    s.ss_sig_npending <- 0;
    let verdicts =
      Avm_crypto.Identity.verify_batch
        (Array.map (fun (_, cert, body, signature) -> (cert, body, signature)) pending)
    in
    s.ss_failures <-
      List.filter_map
        (function
          | Cell_sig i ->
            if verdicts.(i) then begin
              s.ss_recv_sigs <- s.ss_recv_sigs + 1;
              None
            end
            else begin
              let seq, _, _, _ = pending.(i) in
              s.ss_nfail <- s.ss_nfail + 1;
              Some (Cell_msg (Printf.sprintf "entry #%d: forged RECV — sender signature invalid" seq))
            end
          | c -> Some c)
        s.ss_failures
  end

(* Authenticator signature checks share the one node key, so a slice
   goes through one batched verification. The parallel pass verifies
   slices on its pool; order is preserved so both the failure list and
   the [Hashtbl.add] order (which [find_all] reflects) match a single
   pass. *)
let verify_auth_slice ~node ~node_cert slice =
  let mine = Array.of_list (List.filter (fun (a : Auth.t) -> String.equal a.node node) slice) in
  let verdicts = Auth.verify_batch (Array.map (fun a -> (node_cert, a)) mine) in
  let oks = ref [] in
  let fails = ref [] in
  Array.iteri
    (fun i (a : Auth.t) ->
      if verdicts.(i) then oks := a :: !oks
      else
        fails :=
          Printf.sprintf "authenticator #%d: bad signature or inconsistent hash" a.seq :: !fails)
    mine;
  (List.rev !oks, List.rev !fails)

let index_auths verified =
  let tbl = Hashtbl.create 256 in
  List.iter (fun (oks, _) -> List.iter (fun (a : Auth.t) -> Hashtbl.add tbl a.seq a) oks) verified;
  tbl

let make_stream ~(ctx : ctx) ~auth_by_seq ~defer_xrefs ~prev_hash ~expected_seq ~first_seq =
  {
    ss_node = Avm_crypto.Identity.cert_name ctx.node_cert;
    ss_peer_certs = ctx.peer_certs;
    ss_ack_grace = ctx.ack_grace;
    ss_auth_by_seq = auth_by_seq;
    ss_defer_xrefs = defer_xrefs;
    ss_failures = [];
    ss_nfail = 0;
    ss_entries_checked = 0;
    ss_auths_matched = 0;
    ss_recv_sigs = 0;
    ss_sig_pending = [];
    ss_sig_npending = 0;
    ss_prev = prev_hash;
    ss_expected_seq = expected_seq;
    ss_chain_broken = false;
    ss_links_trusted = 0;
    ss_links_hashed = 0;
    ss_first_seq = first_seq;
    ss_last_seq = 0;
    ss_recv_seqs = Hashtbl.create 256;
    ss_acked = Hashtbl.create 64;
    ss_pending_sends = [];
  }

let syn_stream ~ctx ~prev_hash =
  let node = Avm_crypto.Identity.cert_name ctx.node_cert in
  let ((_, auth_failures) as verified) =
    verify_auth_slice ~node ~node_cert:ctx.node_cert ctx.auths
  in
  let s =
    make_stream ~ctx ~auth_by_seq:(index_auths [ verified ]) ~defer_xrefs:false ~prev_hash
      ~expected_seq:(-1) ~first_seq:(-1)
  in
  List.iter (fun m -> push_cell s (Cell_msg m)) auth_failures;
  s

let syn_push s (e : Entry.t) =
  s.ss_entries_checked <- s.ss_entries_checked + 1;
  if s.ss_first_seq < 0 then s.ss_first_seq <- e.seq;
  s.ss_last_seq <- e.seq;
  (* 1. Hash chain. *)
  if not s.ss_chain_broken then begin
    if s.ss_expected_seq >= 0 && e.seq <> s.ss_expected_seq then begin
      s.ss_chain_broken <- true;
      push_cell s
        (Cell_chain
           (Printf.sprintf "chain: sequence gap: expected %d, found %d" s.ss_expected_seq e.seq))
    end
    else if Entry.derived ~prev:s.ss_prev e then s.ss_links_trusted <- s.ss_links_trusted + 1
    else begin
      s.ss_links_hashed <- s.ss_links_hashed + 1;
      if not (Entry.chain_ok ~prev:s.ss_prev e) then begin
        s.ss_chain_broken <- true;
        push_cell s (Cell_chain (Printf.sprintf "chain: hash chain broken at entry %d" e.seq))
      end
    end
  end;
  s.ss_prev <- e.hash;
  s.ss_expected_seq <- e.seq + 1;
  (* 2. Collected authenticators must match the log. *)
  List.iter
    (fun (a : Auth.t) ->
      if Auth.matches_entry a e then s.ss_auths_matched <- s.ss_auths_matched + 1
      else syn_fail s "authenticator #%d does not match the log (forked or rewritten log)" a.seq)
    (Hashtbl.find_all s.ss_auth_by_seq e.seq);
  match e.content with
  (* 3. RECV sender signatures, deferred into the signature batch. *)
  | Entry.Recv { src; nonce; payload; signature } ->
    Hashtbl.replace s.ss_recv_seqs e.seq ();
    if signature <> "" then begin
      match List.assoc_opt src s.ss_peer_certs with
      | None -> syn_fail s "entry #%d: no certificate for sender %s" e.seq src
      | Some cert ->
        let body = Wireformat.message_body ~src ~dest:s.ss_node ~nonce ~payload in
        s.ss_failures <- Cell_sig s.ss_sig_npending :: s.ss_failures;
        s.ss_sig_pending <- (e.seq, cert, body, signature) :: s.ss_sig_pending;
        s.ss_sig_npending <- s.ss_sig_npending + 1;
        if s.ss_sig_npending >= sig_batch_cap then syn_flush s
    end
  (* 4. Send acknowledgement bookkeeping, settled at end of stream. *)
  | Entry.Ack { acked_seq; _ } -> Hashtbl.replace s.ss_acked acked_seq ()
  | Entry.Send _ -> s.ss_pending_sends <- e.seq :: s.ss_pending_sends
  (* 5. Input-stream references into the message stream are sane. *)
  | Entry.Exec (Avm_machine.Event.Io_in { msg; _ }) when msg >= 0 ->
    if msg >= e.seq then syn_fail s "entry #%d: rx read references future entry %d" e.seq msg
    else if msg >= s.ss_first_seq && not (Hashtbl.mem s.ss_recv_seqs msg) then
      if s.ss_defer_xrefs then s.ss_failures <- Cell_xref (e.seq, msg) :: s.ss_failures
      else push_cell s (Cell_msg (xref_failure e.seq msg))
    (* references before the audited range are validated by earlier audits *)
  | _ -> ()

let syn_failure_count s =
  syn_flush s;
  s.ss_nfail

let cell_msg = function
  | Cell_msg m | Cell_chain m -> m
  | Cell_sig _ | Cell_xref _ -> assert false (* flushed; xrefs defer only in chunk streams *)

let syn_failures s =
  syn_flush s;
  List.rev_map cell_msg s.ss_failures

let syn_report s =
  syn_flush s;
  {
    entries_checked = s.ss_entries_checked;
    auths_matched = s.ss_auths_matched;
    recv_signatures_verified = s.ss_recv_sigs;
    failures = List.rev_map cell_msg s.ss_failures;
  }

let syn_finish s =
  syn_flush s;
  (* Every send acknowledged, modulo the in-flight tail. *)
  List.iter
    (fun seq ->
      if seq <= s.ss_last_seq - s.ss_ack_grace && not (Hashtbl.mem s.ss_acked seq) then
        syn_fail s "entry #%d: SEND was never acknowledged" seq)
    (List.sort compare s.ss_pending_sends);
  let report = syn_report s in
  Metrics.incr ~by:report.entries_checked "audit.entries_checked";
  Metrics.incr ~by:report.auths_matched "audit.auths_matched";
  Metrics.incr ~by:report.recv_signatures_verified "audit.recv_signatures_verified";
  Metrics.incr ~by:(List.length report.failures) "audit.failures";
  Metrics.incr ~by:s.ss_links_trusted "audit.links_trusted";
  Metrics.incr ~by:s.ss_links_hashed "audit.links_hashed";
  report

(* --- parallel syntactic check ------------------------------------------- *)

module Pool = Avm_util.Domain_pool

(* The parallel pass splits the entry stream into chunks that workers
   check with ordinary chunk streams, then stitches them in log order
   into one stream whose [syn_finish] yields a report bit-identical to
   the single pass's. A worker can run the chain checks of a later
   chunk without knowing whether an earlier one broke, because the
   single pass advances [prev]/[expected] from the *stored* hashes
   regardless of validity — its state at a chunk boundary is exactly
   the segment index's [prev_hash]/[from]. *)
type syn_chunk = {
  sc_prev_hash : string;  (* chain hash just before the chunk *)
  sc_expected_first : int;  (* expected first seq; -1 = no check (first chunk) *)
  sc_load : unit -> Entry.t list;
}

let stitch ~ctx ~auth_failures streams =
  let out =
    make_stream ~ctx ~auth_by_seq:(Hashtbl.create 1) ~defer_xrefs:false ~prev_hash:""
      ~expected_seq:(-1) ~first_seq:(-1)
  in
  List.iter (fun m -> push_cell out (Cell_msg m)) auth_failures;
  let broke = ref false in
  List.iter
    (fun s ->
      syn_flush s;
      List.iter
        (function
          | Cell_chain _ when !broke -> ()
          | Cell_xref (seq, msg) ->
            if not (Hashtbl.mem out.ss_recv_seqs msg) then
              push_cell out (Cell_msg (xref_failure seq msg))
          | c -> push_cell out c)
        (List.rev s.ss_failures);
      broke := !broke || s.ss_chain_broken;
      Hashtbl.iter (Hashtbl.replace out.ss_recv_seqs) s.ss_recv_seqs;
      Hashtbl.iter (Hashtbl.replace out.ss_acked) s.ss_acked;
      out.ss_pending_sends <- s.ss_pending_sends @ out.ss_pending_sends;
      out.ss_entries_checked <- out.ss_entries_checked + s.ss_entries_checked;
      out.ss_auths_matched <- out.ss_auths_matched + s.ss_auths_matched;
      out.ss_recv_sigs <- out.ss_recv_sigs + s.ss_recv_sigs;
      out.ss_links_trusted <- out.ss_links_trusted + s.ss_links_trusted;
      out.ss_links_hashed <- out.ss_links_hashed + s.ss_links_hashed;
      out.ss_last_seq <- s.ss_last_seq)
    streams;
  syn_finish out

let chunk_span i f =
  Trace.with_span ~name:"audit.chunk" ~attrs:[ ("chunk", string_of_int i) ] f

(* Split [xs] into at most [n] contiguous slices, preserving order. *)
let slice_list n xs =
  let len = List.length xs in
  if len = 0 then []
  else begin
    let n = max 1 (min n len) in
    let per = (len + n - 1) / n in
    let rec go i acc cur = function
      | [] -> List.rev (List.rev cur :: acc)
      | x :: rest ->
        if i = per then go 1 (List.rev cur :: acc) [ x ] rest
        else go (i + 1) acc (x :: cur) rest
    in
    go 0 [] [] xs
  end

let syntactic_parallel ~pool ~ctx ~first_seq chunks =
  let node = Avm_crypto.Identity.cert_name ctx.node_cert in
  let verified =
    Pool.map_list pool
      (verify_auth_slice ~node ~node_cert:ctx.node_cert)
      (slice_list (Pool.jobs pool) ctx.auths)
  in
  let auth_by_seq = index_auths verified in
  let streams =
    Pool.map_list pool
      (fun (i, c) ->
        chunk_span i (fun () ->
            let s =
              make_stream ~ctx ~auth_by_seq ~defer_xrefs:(i > 0) ~prev_hash:c.sc_prev_hash
                ~expected_seq:c.sc_expected_first ~first_seq
            in
            List.iter (syn_push s) (c.sc_load ());
            syn_flush s;
            s))
      (List.mapi (fun i c -> (i, c)) chunks)
  in
  stitch ~ctx ~auth_failures:(List.concat_map snd verified) streams

(* Chunking a materialized list: contiguous near-equal slices, several
   per pool lane so the work-stealing scheduler can rebalance uneven
   chunks (signature-dense slices take far longer than EXEC-dense
   ones); boundary state comes from the previous slice's last entry,
   exactly the values the sequential fold carries there. *)
let chunks_per_lane = 4

let list_chunks ~prev_hash ~lanes entries =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let pieces = max 1 (min (lanes * chunks_per_lane) n) in
  let per = (n + pieces - 1) / pieces in
  let rec go i acc =
    if i >= n then List.rev acc
    else begin
      let hi = min n (i + per) in
      let sub = Array.sub arr i (hi - i) in
      go hi
        ({
           sc_prev_hash = (if i = 0 then prev_hash else arr.(i - 1).Entry.hash);
           sc_expected_first = (if i = 0 then -1 else arr.(i - 1).Entry.seq + 1);
           sc_load = (fun () -> Array.to_list sub);
         }
        :: acc)
    end
  in
  go 0 []

(* Chunking a segment store: one chunk per sealed segment (tail last),
   straight off the index — compressed segments inflate inside the
   worker, through the per-domain cache. *)
let log_chunks log ~from ~upto =
  List.map
    (fun (s : Log.chunk_spec) ->
      {
        sc_prev_hash = s.Log.spec_prev_hash;
        sc_expected_first = (if s.Log.spec_from <= from then -1 else s.Log.spec_from);
        sc_load = s.Log.spec_load;
      })
    (Log.chunk_specs log ~from ~upto)

let syntactic ~ctx ~prev_hash ~entries ?par () =
  let sequential () =
    chunk_span 0 (fun () ->
        let s = syn_stream ~ctx ~prev_hash in
        List.iter (syn_push s) entries;
        syn_finish s)
  in
  Audit_ctx.with_parallelism ?par (fun p ->
      match p with
      | Some pool -> (
        match list_chunks ~prev_hash ~lanes:(Pool.jobs pool) entries with
        | [] | [ _ ] -> sequential ()
        | chunks -> syntactic_parallel ~pool ~ctx ~first_seq:(List.hd entries).Entry.seq chunks)
      | None -> sequential ())

let syntactic_of_log ~ctx ~log ?(from = 1) ?upto ?par () =
  let upto = match upto with Some u -> u | None -> Log.length log in
  (* The sequential stream walks the same per-segment chunk specs the
     parallel pass fans out over (their concatenation is exactly
     [iter_range from..upto]), so both paths record one [audit.chunk]
     span per sealed segment. *)
  let sequential () =
    let st = syn_stream ~ctx ~prev_hash:(Log.prev_hash log from) in
    List.iteri
      (fun i (spec : Log.chunk_spec) ->
        chunk_span i (fun () ->
            List.iter (syn_push st) (spec.Log.spec_load ())))
      (Log.chunk_specs log ~from ~upto);
    syn_finish st
  in
  Audit_ctx.with_parallelism ?par (fun p ->
      match p with
      | Some pool -> (
        match log_chunks log ~from ~upto with
        | [] | [ _ ] -> sequential ()
        | chunks -> syntactic_parallel ~pool ~ctx ~first_seq:(max 1 from) chunks)
      | None -> sequential ())

(* --- the unified outcome ------------------------------------------------- *)

type outcome = {
  node : string;
  syntactic : syntactic_report;
  semantic : Replay.outcome option;
  syntactic_seconds : float;
  semantic_seconds : float;
  verdict : (unit, string) result;
  evidence : Evidence.t option;
}

(* Shared tail of [full] / [full_of_log]: run the semantic check only
   if the syntactic check passed (a broken chain is already evidence),
   and package the evidence on any fault. [segment] materializes the
   accused entries lazily — a log-backed audit inflates them only when
   it actually has an accusation to ship. *)
let conclude ~(ctx : ctx) ~syn ~prev_hash ~segment ~t0 ~t1 ~semantic =
  let node = Avm_crypto.Identity.cert_name ctx.node_cert in
  let evidence accusation =
    Some
      {
        Evidence.accused = node;
        prev_hash;
        segment = segment ();
        auths = ctx.auths;
        accusation;
      }
  in
  Metrics.observe "audit.syntactic_seconds" (t1 -. t0);
  if syn.failures <> [] then begin
    let reason = String.concat "; " syn.failures in
    Metrics.incr "audit.verdicts_faulty";
    {
      node;
      syntactic = syn;
      semantic = None;
      syntactic_seconds = t1 -. t0;
      semantic_seconds = 0.0;
      verdict = Error reason;
      evidence = evidence (Evidence.Tampered_log { reason });
    }
  end
  else begin
    let outcome = Trace.with_span ~name:"audit.semantic" semantic in
    let t2 = Clock.now_s () in
    Metrics.observe "audit.semantic_seconds" (t2 -. t1);
    let semantic_seconds = t2 -. t1 in
    match outcome with
    | Replay.Verified _ ->
      Metrics.incr "audit.verdicts_correct";
      {
        node;
        syntactic = syn;
        semantic = Some outcome;
        syntactic_seconds = t1 -. t0;
        semantic_seconds;
        verdict = Ok ();
        evidence = None;
      }
    | Replay.Diverged d ->
      Metrics.incr "audit.verdicts_faulty";
      {
        node;
        syntactic = syn;
        semantic = Some outcome;
        syntactic_seconds = t1 -. t0;
        semantic_seconds;
        verdict = Error (Format.asprintf "%a" Replay.pp_outcome (Replay.Diverged d));
        evidence = evidence (Evidence.Replay_divergence d);
      }
  end

let full ~ctx ~image ?mem_words ?start ?fuel ~peers ?cache ~prev_hash ~entries ?par () =
  Audit_ctx.with_parallelism ?par (fun p ->
      let par = { jobs = 1; pool = p } in
      let t0 = Clock.now_s () in
      let syn =
        Trace.with_span ~name:"audit.syntactic" (fun () ->
            syntactic ~ctx ~prev_hash ~entries ~par ())
      in
      let t1 = Clock.now_s () in
      conclude ~ctx ~syn ~prev_hash
        ~segment:(fun () -> entries)
        ~t0 ~t1
        ~semantic:(fun () ->
          Replay.replay ~image ?mem_words ?start ?fuel ~peers ?cache ~entries ()))

let full_of_log ~ctx ~image ?mem_words ?start ?fuel ~peers ?cache ~log ?(from = 1) ?upto ?par
    () =
  let upto = match upto with Some u -> u | None -> Log.length log in
  Audit_ctx.with_parallelism ?par (fun p ->
      let par = { jobs = 1; pool = p } in
      let t0 = Clock.now_s () in
      let syn =
        Trace.with_span ~name:"audit.syntactic" (fun () ->
            syntactic_of_log ~ctx ~log ~from ~upto ~par ())
      in
      let t1 = Clock.now_s () in
      conclude ~ctx ~syn
        ~prev_hash:(Log.prev_hash log from)
        ~segment:(fun () -> Log.segment log ~from ~upto)
        ~t0 ~t1
        ~semantic:(fun () ->
          Replay.replay_chunks ~image ?mem_words ?start ?fuel ~peers ?cache
            ~chunks:(Log.chunk_seq log ~from ~upto) ()))

let check_evidence (ev : Evidence.t) ~ctx ~image ?mem_words ?start ?fuel ~peers () =
  if not (String.equal (Avm_crypto.Identity.cert_name ctx.node_cert) ev.accused) then false
  else begin
    match ev.accusation with
    | Evidence.Unanswered_challenge { auth } ->
      (* The authenticator proves entries up to [auth.seq] exist; that
         is all a third party can verify offline. *)
      Auth.verify ctx.node_cert auth
    | Evidence.Equivocation { a; b } ->
      (* Pure two-signature proof: no log, no replay. Both
         authenticators must be genuine commitments by the accused at
         the same seq with different hashes; anything less (one bad
         signature, a name mismatch, equal hashes) proves nothing. *)
      String.equal a.Auth.node ev.accused
      && Auth.conflicts a b
      && Auth.verify ctx.node_cert a
      && Auth.verify ctx.node_cert b
    | Evidence.Tampered_log _ | Evidence.Replay_divergence _ -> (
      let ctx = { ctx with auths = ev.auths } in
      let o =
        full ~ctx ~image ?mem_words ?start ?fuel ~peers ~prev_hash:ev.prev_hash
          ~entries:ev.segment ()
      in
      match o.verdict with Ok () -> false | Error _ -> true)
  end

let pp_outcome fmt r =
  Format.fprintf fmt "@[<v>audit of %s:@ syntactic: %d entries, %d auths, %d recv sigs — %s@ "
    r.node r.syntactic.entries_checked r.syntactic.auths_matched
    r.syntactic.recv_signatures_verified
    (if r.syntactic.failures = [] then "PASS"
     else "FAIL: " ^ String.concat "; " r.syntactic.failures);
  (match r.semantic with
  | None -> Format.fprintf fmt "semantic: skipped@ "
  | Some o -> Format.fprintf fmt "semantic: %a@ " Replay.pp_outcome o);
  Format.fprintf fmt "verdict: %s@]"
    (match r.verdict with Ok () -> "CORRECT" | Error e -> "FAULTY (" ^ e ^ ")")
