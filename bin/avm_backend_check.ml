(* Backend cross-check (DESIGN.md §17): the audit verdict must not
   depend on which crypto backend computed it. Builds a set of signed
   logs — honest and tampered in assorted ways — and runs the full
   syntactic audit under the optimized Default backend (C kernels and
   signature cache engaged, decoder-marked chain links trusted) and the
   naive from-spec Reference backend (one textbook primitive call per
   signature, every chain link rehashed). Any difference between
   the two reports, byte for byte, is a bug in an optimization and
   exits nonzero. Run via [make backend-crosscheck] (part of
   [make verify]). *)

open Avm_core
open Avm_crypto
open Avm_tamperlog

let trials = ref 24
let seed = ref 4242

(* One synthetic audited session: node [bob] receives signed messages
   from [alice], interleaved with sends, acks and notes, issuing an
   authenticator per entry. Returns everything an auditor holds. *)
let build_session rng ~entries =
  let ca = Identity.create_ca rng ~bits:512 "ca" in
  let alice = Identity.issue ca rng ~bits:512 "alice" in
  let bob = Identity.issue ca rng ~bits:512 "bob" in
  let log = Log.create () in
  let auths = ref [] in
  let pending_sends = ref [] in
  let recvs = ref [] in
  for i = 1 to entries do
    let content =
      match Avm_util.Rng.int rng 10 with
      | 0 | 1 | 2 ->
        let payload = Printf.sprintf "msg %d" i in
        let signature =
          Identity.sign alice
            (Wireformat.message_body ~src:"alice" ~dest:"bob" ~nonce:i ~payload)
        in
        Entry.Recv { src = "alice"; nonce = i; payload; signature }
      | 3 | 4 ->
        pending_sends := (i, Log.length log + 1) :: !pending_sends;
        Entry.Send { dest = "alice"; nonce = i; payload = Printf.sprintf "out %d" i }
      | 5 when !pending_sends <> [] ->
        let nonce, seq = List.hd !pending_sends in
        pending_sends := List.tl !pending_sends;
        ignore nonce;
        Entry.Ack { src = "alice"; acked_seq = seq; signature = "" }
      | _ -> Entry.Note (Printf.sprintf "tick %d" i)
    in
    let prev_hash = Log.head_hash log in
    let e = Log.append log content in
    (match content with Entry.Recv _ -> recvs := e.Entry.seq :: !recvs | _ -> ());
    auths := Auth.make bob ~entry:e ~prev_hash :: !auths
  done;
  (* ack every still-pending send so an honest log audits clean *)
  List.iter
    (fun (_, seq) ->
      let prev_hash = Log.head_hash log in
      let e = Log.append log (Entry.Ack { src = "alice"; acked_seq = seq; signature = "" }) in
      auths := Auth.make bob ~entry:e ~prev_hash :: !auths)
    !pending_sends;
  let ctx =
    Audit.ctx
      ~node_cert:(Identity.certificate bob)
      ~peer_certs:[ ("alice", Identity.certificate alice); ("bob", Identity.certificate bob) ]
      ~auths:!auths ()
  in
  (log, ctx)

(* Tamper catalog: index 0 leaves the log honest. *)
let tamper rng log =
  let n = Log.length log in
  match Avm_util.Rng.int rng 5 with
  | 0 -> "honest"
  | 1 ->
    Log.tamper_replace log (1 + Avm_util.Rng.int rng n) (Entry.Note "overwritten");
    "replace"
  | 2 ->
    Log.tamper_truncate log (max 1 (n / 2));
    "truncate"
  | 3 ->
    Log.tamper_reseal log (1 + Avm_util.Rng.int rng n) (Entry.Note "resealed");
    "reseal"
  | _ ->
    (* corrupt one RECV signature without touching the chain: the
       report must name exactly that entry *)
    let seqs =
      List.filter
        (fun s ->
          match (Log.entry log s).Entry.content with Entry.Recv _ -> true | _ -> false)
        (List.init n (fun i -> i + 1))
    in
    (match seqs with
    | [] -> "honest"
    | _ ->
      let s = List.nth seqs (Avm_util.Rng.int rng (List.length seqs)) in
      (match (Log.entry log s).Entry.content with
      | Entry.Recv r ->
        Log.tamper_reseal log s
          (Entry.Recv { r with signature = String.map (fun c -> Char.chr (Char.code c lxor 1)) r.signature })
      | _ -> assert false);
      "forge-recv-sig")

let report_fingerprint (r : Audit.syntactic_report) =
  Printf.sprintf "checked=%d auths=%d recv_sigs=%d failures=[%s]" r.Audit.entries_checked
    r.Audit.auths_matched r.Audit.recv_signatures_verified
    (String.concat "; " r.Audit.failures)

let () =
  Arg.parse
    [
      ("--trials", Arg.Set_int trials, "N  sessions to cross-check (default 24)");
      ("--seed", Arg.Set_int seed, "N  RNG seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "avm_backend_check [--trials N] [--seed N]";
  let rng = Avm_util.Rng.create (Int64.of_int !seed) in
  let mismatches = ref 0 in
  let detected = ref 0 in
  for trial = 1 to !trials do
    let log, ctx = build_session rng ~entries:(40 + Avm_util.Rng.int rng 60) in
    let kind = tamper rng log in
    let entries = Log.segment log ~from:1 ~upto:(Log.length log) in
    (* [Log.append] marks every entry as derived from its predecessor,
       so the chain check would never hash a link; the verbatim copies
       ([Entry.forge] clears the mark) make the oracle hash every one. *)
    let verbatim = List.map (fun e -> Entry.forge e) entries in
    let audit entries () =
      Sigcache.clear ();
      Audit.syntactic_of_log ~ctx ~log:(Log.of_entries entries) ()
    in
    let optimized = Crypto_backend.with_backend Crypto_backend.default (audit entries) in
    let oracle = Crypto_backend.with_backend Crypto_backend.reference (audit verbatim) in
    if optimized.Audit.failures <> [] then incr detected;
    if optimized <> oracle then begin
      incr mismatches;
      Printf.eprintf "MISMATCH trial %d (%s):\n  %s: %s\n  %s: %s\n" trial kind
        (let module D = (val Crypto_backend.default) in
         D.name)
        (report_fingerprint optimized)
        (let module R = (val Crypto_backend.reference) in
         R.name)
        (report_fingerprint oracle)
    end
  done;
  if !mismatches > 0 then begin
    Printf.eprintf "backend-crosscheck: %d/%d trials disagree\n" !mismatches !trials;
    exit 1
  end;
  Printf.printf
    "backend-crosscheck: %d trials, default = reference on every report (%d tampered logs flagged)\n"
    !trials !detected
