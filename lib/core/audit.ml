open Avm_tamperlog
module Snapshot = Avm_machine.Snapshot
module Machine = Avm_machine.Machine
module Metrics = Avm_obs.Metrics
module Trace = Avm_obs.Trace
module Clock = Avm_obs.Clock
module Pool = Avm_util.Domain_pool

type ctx = {
  node_cert : Avm_crypto.Identity.certificate;
  peer_certs : (string * Avm_crypto.Identity.certificate) list;
  auths : Auth.t list;
  ack_grace : int;
}

let ctx ~node_cert ?(peer_certs = []) ?(auths = []) ?(ack_grace = 50) () =
  { node_cert; peer_certs; auths; ack_grace }

type parallelism = { jobs : int; pool : Pool.t option }

let sequential = { jobs = 1; pool = None }
let parallel ?pool jobs = { jobs; pool }

let with_parallelism ?(par = sequential) f =
  match par.pool with
  | Some p -> f (if Pool.jobs p > 1 then Some p else None)
  | None -> if par.jobs > 1 then Pool.with_pool ~jobs:par.jobs (fun p -> f (Some p)) else f None

type syntactic_report = {
  entries_checked : int;
  auths_matched : int;
  recv_signatures_verified : int;
  failures : string list;
}

module Syn = struct
  (* The syntactic check as an incremental stream: all five checks
     (hash chain, authenticator matching, RECV sender signatures, send
     acknowledgement, input-stream cross-references) run against one
     pass over the entry stream, whose state lives in a record so a
     long-lived session can push entries as they arrive. Only the
     collected authenticators — a set far smaller than the log — are
     pre-indexed up front; obligations that can only be settled once the
     cut point is known (unacked sends) are resolved by [finish].

     The parallel pass runs the very same stream over each sealed
     segment and stitches the segment streams into the live one (see
     [stitch]); a segment stream differs only in leaving two facts that
     cross a segment boundary to the stitcher, as cells of its failure
     list. Every cell carries the seq of the entry that produced it (0
     for a collected authenticator), so a session can name the first
     failing entry. *)
  type cell =
    | Msg of int * string
    | Chain of int * string
        (* a chain failure; the stitcher drops it when an earlier segment
           already broke, reproducing the single "first break only" flag *)
    | Xref of int * int
        (* (entry seq, msg seq): an rx read of an entry that is not a RECV
           of this segment — the stitcher resolves it against the RECVs
           the live stream has already seen *)

  type t = {
    node : string;
    peer_certs : (string * Avm_crypto.Identity.certificate) list;
    ack_grace : int;
    auth_by_seq : (int, Auth.t) Hashtbl.t;
    defer_xrefs : bool; (* a segment stream of the parallel pass *)
    mutable cells : cell list; (* newest first *)
    mutable nfail : int; (* resolved failures only *)
    mutable entries_checked : int;
    mutable auths_matched : int;
    mutable recv_sigs : int;
    (* Hash-chain state; only the first break is reported, matching
       [Log.verify_segment]. *)
    mutable prev : string;
    mutable expected_seq : int;
    mutable chain_broken : bool;
    mutable links_trusted : int; (* links whose decoder mark matched [prev] *)
    mutable links_hashed : int;
    (* Cross-reference and acknowledgement state. *)
    mutable first_seq : int;
    mutable last_seq : int;
    recv_seqs : (int, unit) Hashtbl.t;
    acked : (int, unit) Hashtbl.t;
    mutable pending_sends : int list;
  }

  let push_cell s c =
    s.cells <- c :: s.cells;
    s.nfail <- s.nfail + 1

  let fail s seq fmt = Printf.ksprintf (fun m -> push_cell s (Msg (seq, m))) fmt
  let xref_failure seq msg =
    Printf.sprintf "entry #%d: rx read references non-RECV entry %d" seq msg

  (* Authenticator signature checks: with a pool, one slice per lane
     verifies in parallel. Order is preserved so both the failure list
     and the [Hashtbl.add] order (which [find_all] reflects) match one
     pass. *)
  let verify_auths ?pool ~node ~node_cert auths =
    let verify slice =
      List.filter_map
        (fun (a : Auth.t) ->
          if String.equal a.node node then Some (a, Auth.verify node_cert a) else None)
        slice
    in
    match pool with
    | None -> verify auths
    | Some pool ->
      let arr = Array.of_list auths in
      let n = Array.length arr in
      let k = min (Pool.jobs pool) n in
      List.init k (fun j ->
          let lo = j * n / k in
          Array.to_list (Array.sub arr lo (((j + 1) * n / k) - lo)))
      |> Pool.map_list pool verify
      |> List.concat

  let make ~node ~peer_certs ~ack_grace ~auth_by_seq ~defer_xrefs ~prev ~expected_seq ~first_seq =
    {
      node;
      peer_certs;
      ack_grace;
      auth_by_seq;
      defer_xrefs;
      cells = [];
      nfail = 0;
      entries_checked = 0;
      auths_matched = 0;
      recv_sigs = 0;
      prev;
      expected_seq;
      chain_broken = false;
      links_trusted = 0;
      links_hashed = 0;
      first_seq;
      last_seq = 0;
      recv_seqs = Hashtbl.create 256;
      acked = Hashtbl.create 64;
      pending_sends = [];
    }

  let create ?pool ~(ctx : ctx) ~prev_hash () =
    let node = Avm_crypto.Identity.cert_name ctx.node_cert in
    let verified = verify_auths ?pool ~node ~node_cert:ctx.node_cert ctx.auths in
    let auth_by_seq = Hashtbl.create 256 in
    List.iter (fun ((a : Auth.t), ok) -> if ok then Hashtbl.add auth_by_seq a.seq a) verified;
    let s =
      make ~node ~peer_certs:ctx.peer_certs ~ack_grace:ctx.ack_grace ~auth_by_seq ~defer_xrefs:false
        ~prev:prev_hash ~expected_seq:(-1) ~first_seq:(-1)
    in
    List.iter
      (fun ((a : Auth.t), ok) ->
        if not ok then fail s 0 "authenticator #%d: bad signature or inconsistent hash" a.seq)
      verified;
    s

  let push s (e : Entry.t) =
    s.entries_checked <- s.entries_checked + 1;
    if s.first_seq < 0 then s.first_seq <- e.seq;
    s.last_seq <- e.seq;
    (* 1. Hash chain. *)
    if not s.chain_broken then begin
      if s.expected_seq >= 0 && e.seq <> s.expected_seq then begin
        s.chain_broken <- true;
        push_cell s
          (Chain
             ( e.seq,
               Printf.sprintf "chain: sequence gap: expected %d, found %d" s.expected_seq e.seq ))
      end
      else if Entry.derived ~prev:s.prev e then s.links_trusted <- s.links_trusted + 1
      else begin
        s.links_hashed <- s.links_hashed + 1;
        if not (Entry.chain_ok ~prev:s.prev e) then begin
          s.chain_broken <- true;
          push_cell s (Chain (e.seq, Printf.sprintf "chain: hash chain broken at entry %d" e.seq))
        end
      end
    end;
    s.prev <- e.hash;
    s.expected_seq <- e.seq + 1;
    (* 2. Collected authenticators must match the log. *)
    List.iter
      (fun (a : Auth.t) ->
        if Auth.matches_entry a e then s.auths_matched <- s.auths_matched + 1
        else
          fail s e.seq "authenticator #%d does not match the log (forked or rewritten log)" a.seq)
      (Hashtbl.find_all s.auth_by_seq e.seq);
    match e.content with
    (* 3. RECV sender signatures. *)
    | Entry.Recv { src; nonce; payload; signature } ->
      Hashtbl.replace s.recv_seqs e.seq ();
      if signature <> "" then begin
        match List.assoc_opt src s.peer_certs with
        | None -> fail s e.seq "entry #%d: no certificate for sender %s" e.seq src
        | Some cert ->
          let msg = Wireformat.message_body ~src ~dest:s.node ~nonce ~payload in
          if Avm_crypto.Identity.verify cert ~msg ~signature then s.recv_sigs <- s.recv_sigs + 1
          else fail s e.seq "entry #%d: forged RECV — sender signature invalid" e.seq
      end
    (* 4. Send acknowledgement bookkeeping, settled at end of stream. *)
    | Entry.Ack { acked_seq; _ } -> Hashtbl.replace s.acked acked_seq ()
    | Entry.Send _ -> s.pending_sends <- e.seq :: s.pending_sends
    (* 5. Input-stream references into the message stream are sane. *)
    | Entry.Exec (Avm_machine.Event.Io_in { msg; _ }) when msg >= 0 ->
      if msg >= e.seq then fail s e.seq "entry #%d: rx read references future entry %d" e.seq msg
      else if msg >= s.first_seq && not (Hashtbl.mem s.recv_seqs msg) then
        if s.defer_xrefs then s.cells <- Xref (e.seq, msg) :: s.cells
        else push_cell s (Msg (e.seq, xref_failure e.seq msg))
      (* references before the audited range are validated by earlier audits *)
    | _ -> ()

  let failure_count s = s.nfail

  let resolved = function
    | Msg (seq, m) | Chain (seq, m) -> (seq, m)
    | Xref _ -> assert false (* xrefs defer only in segment streams *)

  let failures_after s n =
    let rec take k cells acc =
      match cells with c :: rest when k > 0 -> take (k - 1) rest (resolved c :: acc) | _ -> acc
    in
    take (s.nfail - n) s.cells []

  let report s =
    {
      entries_checked = s.entries_checked;
      auths_matched = s.auths_matched;
      recv_signatures_verified = s.recv_sigs;
      failures = List.rev_map (fun c -> snd (resolved c)) s.cells;
    }

  let finish s =
    (* Every send acknowledged, modulo the in-flight tail. *)
    List.iter
      (fun seq ->
        if seq <= s.last_seq - s.ack_grace && not (Hashtbl.mem s.acked seq) then
          fail s seq "entry #%d: SEND was never acknowledged" seq)
      (List.sort compare s.pending_sends);
    let r = report s in
    Metrics.incr ~by:r.entries_checked "audit.entries_checked";
    Metrics.incr ~by:r.auths_matched "audit.auths_matched";
    Metrics.incr ~by:r.recv_signatures_verified "audit.recv_signatures_verified";
    Metrics.incr ~by:(List.length r.failures) "audit.failures";
    Metrics.incr ~by:s.links_trusted "audit.links_trusted";
    Metrics.incr ~by:s.links_hashed "audit.links_hashed";
    r

  (* --- pushing segments, sequentially or on a pool ------------------------ *)

  (* Fold finished segment streams, in log order, into the live stream
     [out]: its state after the fold is the state one pass over the same
     entries would have left. A worker can run the chain checks of a
     later segment without knowing whether an earlier one broke, because
     one pass advances [prev]/[expected_seq] from the *stored* hashes
     regardless of validity — its state at a segment boundary is exactly
     the index's [spec_prev_hash]/[spec_from]. *)
  let stitch out streams =
    List.iter
      (fun s ->
        List.iter
          (function
            | Chain _ when out.chain_broken -> ()
            | Xref (seq, msg) ->
              if not (Hashtbl.mem out.recv_seqs msg) then
                push_cell out (Msg (seq, xref_failure seq msg))
            | c -> push_cell out c)
          (List.rev s.cells);
        out.chain_broken <- out.chain_broken || s.chain_broken;
        Hashtbl.iter (Hashtbl.replace out.recv_seqs) s.recv_seqs;
        Hashtbl.iter (Hashtbl.replace out.acked) s.acked;
        out.pending_sends <- s.pending_sends @ out.pending_sends;
        out.entries_checked <- out.entries_checked + s.entries_checked;
        out.auths_matched <- out.auths_matched + s.auths_matched;
        out.recv_sigs <- out.recv_sigs + s.recv_sigs;
        out.links_trusted <- out.links_trusted + s.links_trusted;
        out.links_hashed <- out.links_hashed + s.links_hashed;
        if out.first_seq < 0 then out.first_seq <- s.first_seq;
        out.last_seq <- s.last_seq;
        out.prev <- s.prev;
        out.expected_seq <- s.expected_seq)
      streams

  let chunk_span i f = Trace.with_span ~name:"audit.chunk" ~attrs:[ ("chunk", string_of_int i) ] f

  let push_specs ?pool s specs each =
    (match (pool, specs) with
    | Some pool, (first :: _ :: _ as specs) ->
      let first_seq = if s.first_seq >= 0 then s.first_seq else first.Log.spec_from in
      let checked =
        Pool.map_list pool
          (fun (i, (spec : Log.chunk_spec)) ->
            chunk_span i (fun () ->
                let c =
                  make ~node:s.node ~peer_certs:s.peer_certs ~ack_grace:s.ack_grace
                    ~auth_by_seq:s.auth_by_seq ~defer_xrefs:true
                    ~prev:(if i = 0 then s.prev else spec.spec_prev_hash)
                    ~expected_seq:(if i = 0 then s.expected_seq else spec.spec_from)
                    ~first_seq
                in
                let entries = spec.spec_load () in
                List.iter (push c) entries;
                (c, entries)))
          (List.mapi (fun i spec -> (i, spec)) specs)
      in
      stitch s (List.map fst checked);
      List.iter (fun (_, entries) -> List.iter each entries) checked
    | _ ->
      List.iteri
        (fun i (spec : Log.chunk_spec) ->
          chunk_span i (fun () ->
              List.iter
                (fun e ->
                  push s e;
                  each e)
                (spec.spec_load ())))
        specs)
end

let syntactic_of_log ~ctx ~log ?(from = 1) ?upto ?par () =
  let upto = match upto with Some u -> u | None -> Log.length log in
  with_parallelism ?par (fun pool ->
      let s = Syn.create ?pool ~ctx ~prev_hash:(Log.prev_hash log from) () in
      Syn.push_specs ?pool s (Log.chunk_specs log ~from ~upto) ignore;
      Syn.finish s)

type verdict =
  | Tampered of { reason : string; entry_seq : int option }
  | Diverged of Replay.divergence
  | Equivocated of { a : Auth.t; b : Auth.t }

let pp_verdict fmt = function
  | Tampered { reason; entry_seq } ->
    Format.fprintf fmt "tampered%s: %s"
      (match entry_seq with Some s -> Printf.sprintf " (entry %d)" s | None -> "")
      reason
  | Diverged d ->
    Format.fprintf fmt "diverged: %s at entry %s — %s"
      (Replay.kind_name d.Replay.kind)
      (match d.Replay.entry_seq with Some s -> string_of_int s | None -> "?")
      d.Replay.detail
  | Equivocated { a; b } ->
    Format.fprintf fmt "equivocated: two signed commitments at entry %d (%s vs %s)"
      a.Auth.seq
      (Avm_util.Hex.short a.Auth.hash)
      (Avm_util.Hex.short b.Auth.hash)

let verdict_entry = function
  | Tampered { entry_seq; _ } -> entry_seq
  | Diverged d -> d.Replay.entry_seq
  | Equivocated { a; _ } -> Some a.Auth.seq

type status = {
  ingested_entries : int;
  retired_entries : int;
  chunks_retired : int;
  lag_entries : int;
  lag_us_estimate : float;
  replayed_instructions : int;
  cache_hits : int;
  throttled : bool;
  verdict : verdict option;
}

type outcome = {
  node : string;
  syntactic : syntactic_report;
  semantic : Replay.outcome option;
  syntactic_seconds : float;
  semantic_seconds : float;
  verdict : (unit, string) result;
  evidence : Evidence.t option;
}

module Session = struct
  (* Between two Snapshot_ref boundaries the log is one independently
     replayable chunk — the same partition Spot_check cuts at, so the
     fingerprints computed here hit (and seed) the same fleet-wide
     Replay_cache entries the offline auditors use. The closing
     Snapshot_ref is the last entry of its chunk. *)
  type chunk = {
    c_from : int;  (* first entry seq of the chunk *)
    mutable c_upto : int;  (* last entry seq buffered so far *)
    c_pre_state : string;  (* state digest the chunk starts from *)
    mutable c_entries : Entry.t array;  (* the first [c_n] are buffered *)
    mutable c_n : int;
    mutable c_fed : int;  (* buffered entries fed to the engine *)
    mutable c_end : (Spot_check.boundary * string) option;
        (* closing boundary and its logged digest; None = still open *)
    mutable c_lookup : Replay_cache.lookup option;  (* None = not looked up *)
    mutable c_emitted : bool;  (* replay emitted guest packets (peers-sensitive) *)
    mutable c_start_instr : int;  (* engine icount delta base for this chunk *)
  }

  (* Where the next instruction comes from: a live engine positioned at
     the head chunk's replay point, or — after a cache hit skipped a
     chunk — a boundary whose state must be materialized from
     downloaded snapshots before replay can resume. *)
  type resume = R_engine of Replay.engine | R_boundary of (Spot_check.boundary * string)

  type t = {
    image : int array;
    mem_words : int option;
    peers : (int * string) list;
    ctx : ctx;
    replay_rate : float;
    high : int;
    low : int;
    cache : Replay_cache.t option;
    snapshot_of : (unit -> Snapshot.t list) option;
    syn : Syn.t;
    mutable syn_seen : int;  (* stream failures already turned into a verdict (or none) *)
    chunks : chunk Queue.t;  (* head = oldest unretired; last = open tail *)
    mutable opening : (string * Entry.t) option;
        (* the head chunk's opening Snapshot_ref and the hash before it; None for chunk 1 *)
    mutable start : Snapshot.t option;
        (* the state verified there, as pages changed from the image; None = boot *)
    mutable diff : Snapshot.image_diff;  (* the engine machine's pages changed from the image *)
    mutable after : Entry.t list;  (* ingested after a verdict, for its cover; newest first *)
    mutable tail : chunk;
    mutable resume : resume;
    mutable fed_upto : int;  (* last log seq ingested *)
    mutable ingested : int;
    mutable retired : int;
    mutable n_chunks_retired : int;
    mutable instr_base : int;  (* instructions from dropped engines *)
    mutable n_cache_hits : int;
    mutable throttled : bool;
    mutable verdict : verdict option;
    mutable fault_at : int;
        (* the entry evidence covers or challenges from; 0 = a forged download *)
    mutable closed : bool;
    mutable ema_us_per_entry : float;
    mutable syn_seconds : float;
    mutable sem_seconds : float;
  }

  let new_chunk ~from ~pre_state =
    {
      c_from = from;
      c_upto = from - 1;
      c_pre_state = pre_state;
      c_entries = [||];
      c_n = 0;
      c_fed = 0;
      c_end = None;
      c_lookup = None;
      c_emitted = false;
      c_start_instr = 0;
    }

  (* Opening a session verifies the collected authenticators, so its
     time counts as syntactic. The boot state's digest is only a
     fingerprint input: a session without a cache skips it. *)
  let create ?pool ~ctx ~image ?mem_words ~replay_rate ~high ~low ?cache ?snapshot_of ~peers () =
    let t0 = Clock.now_s () in
    let syn = Syn.create ?pool ~ctx ~prev_hash:Log.genesis_hash () in
    let e = Replay.engine ~image ?mem_words ~peers () in
    let m = Replay.engine_machine e in
    let tail =
      new_chunk ~from:1
        ~pre_state:
          (if cache = None then "" else Snapshot.machine_digest ~at_icount:(Machine.icount m) m)
    in
    let chunks = Queue.create () in
    Queue.push tail chunks;
    Metrics.incr "online_audit.sessions_opened";
    {
      image;
      mem_words;
      peers;
      ctx;
      replay_rate;
      high;
      low;
      cache;
      snapshot_of;
      syn;
      syn_seen = 0;
      chunks;
      opening = None;
      start = None;
      diff = Snapshot.image_diff ~image;
      after = [];
      tail;
      resume = R_engine e;
      fed_upto = 0;
      ingested = 0;
      retired = 0;
      n_chunks_retired = 0;
      instr_base = 0;
      n_cache_hits = 0;
      throttled = false;
      verdict = None;
      fault_at = 0;
      closed = false;
      ema_us_per_entry = 0.;
      syn_seconds = Clock.now_s () -. t0;
      sem_seconds = 0.;
    }

  let open_session ~ctx ~image ?mem_words ?(replay_rate = 0.955) ?(high_watermark = 4096)
      ?low_watermark ?cache ?snapshot_of ~peers () =
    if high_watermark < 1 then invalid_arg "Online_audit: high_watermark must be positive";
    let low =
      match low_watermark with
      | Some l ->
        if l > high_watermark then
          invalid_arg "Online_audit: low_watermark above high_watermark";
        l
      | None -> high_watermark / 2
    in
    create ~ctx ~image ?mem_words ~replay_rate ~high:high_watermark ~low ?cache ?snapshot_of ~peers
      ()

  let set_verdict t ~at v =
    if t.verdict = None then begin
      t.verdict <- Some v;
      t.fault_at <- at;
      (match v with
      | Tampered _ -> Metrics.incr "online_audit.tampering_detected"
      | Diverged _ -> Metrics.incr "online_audit.faults"
      | Equivocated _ -> Metrics.incr "online_audit.equivocations")
    end

  (* The daemon's cross-session authenticator exchange lands here: a
     verified conflicting commitment pair is terminal for the session,
     exactly like a tampered chain — but carried by two signatures
     instead of a log download. *)
  let equivocate t ~a ~b =
    if Auth.conflicts a b then set_verdict t ~at:a.Auth.seq (Equivocated { a; b })

  let node_cert t = t.ctx.node_cert

  let lag_entries t =
    let unfed = Queue.fold (fun acc c -> acc + c.c_n - c.c_fed) 0 t.chunks in
    let pending =
      match t.resume with R_engine e -> Replay.pending_entries e | R_boundary _ -> 0
    in
    unfed + pending

  let total_instructions t =
    t.instr_base
    + (match t.resume with R_engine e -> Replay.replayed_instructions e | R_boundary _ -> 0)

  (* --- ingest ------------------------------------------------------- *)

  let buffer t (e : Entry.t) =
    t.ingested <- t.ingested + 1;
    let c = t.tail in
    if c.c_n = Array.length c.c_entries then begin
      let bigger = Array.make (max 64 (2 * c.c_n)) e in
      Array.blit c.c_entries 0 bigger 0 c.c_n;
      c.c_entries <- bigger
    end;
    c.c_entries.(c.c_n) <- e;
    c.c_n <- c.c_n + 1;
    c.c_upto <- e.Entry.seq;
    match e.Entry.content with
    | Entry.Snapshot_ref { digest; snapshot_seq; at_icount } ->
      c.c_end <- Some ({ Spot_check.entry_seq = e.Entry.seq; snapshot_seq; at_icount }, digest);
      let tail = new_chunk ~from:(e.Entry.seq + 1) ~pre_state:digest in
      t.tail <- tail;
      Queue.push tail t.chunks
    | _ -> ()

  (* Check [specs] through the syntactic stream and buffer their
     entries for replay. The verdict is the failures of the first
     failing entry of the call. Entries after it are buffered too, but
     a session with a verdict replays nothing. *)
  let pull ?pool t specs =
    let t0 = Clock.now_s () in
    Syn.push_specs ?pool t.syn specs (buffer t);
    (match Syn.failures_after t.syn t.syn_seen with
    | [] -> ()
    | (seq, _) :: _ as fresh ->
      let rec first = function (s, m) :: rest when s = seq -> m :: first rest | _ -> [] in
      set_verdict t ~at:(max seq 1)
        (Tampered
           {
             reason = String.concat "; " (first fresh);
             entry_seq = (if seq = 0 then None else Some seq);
           }));
    t.syn_seen <- Syn.failure_count t.syn;
    t.syn_seconds <- t.syn_seconds +. (Clock.now_s () -. t0)

  (* After a verdict, the entries up to the first collected
     authenticator at or after the fault are still wanted: it covers
     the evidence. Once one is known and not yet ingested, pull up to
     it, at most [high] more entries, unchecked (the evidence rechains
     them). *)
  let await_cover ?upto t log =
    let cover =
      Hashtbl.fold (fun s _ m -> if s >= t.fault_at then min s m else m) t.syn.Syn.auth_by_seq max_int
    in
    let limit = min cover (min (Log.length log) (Option.value upto ~default:max_int)) in
    let room = t.high - List.length t.after in
    let limit = if limit - t.fed_upto > room then t.fed_upto + room else limit in
    let wanted = match t.verdict with Some (Equivocated _) -> false | _ -> t.fault_at > 0 in
    if wanted && cover < max_int && limit > t.fed_upto then begin
      List.iter
        (fun (spec : Log.chunk_spec) -> t.after <- List.rev_append (spec.spec_load ()) t.after)
        (Log.chunk_specs log ~from:(t.fed_upto + 1) ~upto:limit);
      t.fed_upto <- limit
    end

  let ingest_log ?pool ?upto t log =
    if t.verdict <> None then begin
      await_cover ?upto t log;
      `Accepted
    end
    else if t.closed then `Accepted
    else begin
      let lag = lag_entries t in
      if lag > t.high || (t.throttled && lag > t.low) then begin
        if not t.throttled then begin
          t.throttled <- true;
          Metrics.incr "online_audit.backpressure_engaged"
        end;
        Metrics.incr "online_audit.backpressure_refusals";
        `Backpressure lag
      end
      else begin
        if t.throttled then begin
          t.throttled <- false;
          Metrics.incr "online_audit.backpressure_released"
        end;
        (* Snapshot the length up front: the walk below assumes the log
           is not mutated underneath it. *)
        let len0 = Log.length log in
        let limit = match upto with Some u -> min u len0 | None -> len0 in
        if limit < t.fed_upto then
          set_verdict t ~at:(limit + 1)
            (Tampered
               {
                 reason =
                   Printf.sprintf "log shrank: had observed %d entries, now %d" t.fed_upto limit;
                 entry_seq = None;
               })
        else if limit > t.fed_upto then begin
          Metrics.incr ~by:(limit - t.fed_upto) "online_audit.entries_observed";
          pull ?pool t (Log.chunk_specs log ~from:(t.fed_upto + 1) ~upto:limit);
          t.fed_upto <- limit;
          if Log.length log <> len0 then
            invalid_arg "Online_audit.ingest: log mutated during the call"
        end;
        `Accepted
      end
    end

  let ingest ?upto t log = ingest_log ?upto t log

  (* --- step --------------------------------------------------------- *)

  let fingerprint t c =
    Replay_cache.fingerprint ~image:t.image ?mem_words:t.mem_words ~peers:t.peers
      ~pre_state:c.c_pre_state
      (Array.to_list (Array.sub c.c_entries 0 c.c_n))

  (* The retired chunk's closing Snapshot_ref opens the next one. *)
  let retire_chunk t c =
    let prev =
      if c.c_n >= 2 then c.c_entries.(c.c_n - 2).Entry.hash
      else match t.opening with Some (_, sr) -> sr.Entry.hash | None -> Log.genesis_hash
    in
    t.opening <- Some (prev, c.c_entries.(c.c_n - 1));
    t.retired <- t.retired + c.c_n;
    t.n_chunks_retired <- t.n_chunks_retired + 1;
    ignore (Queue.pop t.chunks);
    Metrics.incr "online_audit.chunks_retired"

  (* A cache hit strands the engine (the skipped chunk's end state was
     never computed): replay resumes from the downloaded state at the
     chunk's closing boundary. *)
  let retire_hit t c =
    (match t.resume with
    | R_engine e -> t.instr_base <- t.instr_base + Replay.replayed_instructions e
    | R_boundary _ -> ());
    t.resume <- R_boundary (Option.get c.c_end);
    t.n_cache_hits <- t.n_cache_hits + 1;
    retire_chunk t c

  (* A forged snapshot is a divergence; a missing one is a stall (the
     producer may simply not have shipped it yet). *)
  let ensure_engine t =
    match t.resume with
    | R_engine e -> `Ok e
    | R_boundary (b, digest) -> (
      let chain = Snapshot.chain_upto ((Option.get t.snapshot_of) ()) b.Spot_check.snapshot_seq in
      match Spot_check.authenticate ~image:t.image ?mem_words:t.mem_words ~chain ~digest b with
      | Spot_check.Verified start ->
        t.diff <- Snapshot.image_diff ~image:t.image;
        t.start <- Some (Snapshot.of_image_diff t.diff ~seq:b.Spot_check.snapshot_seq start);
        let e = Replay.engine ~image:t.image ?mem_words:t.mem_words ~start ~peers:t.peers () in
        t.resume <- R_engine e;
        `Ok e
      | Spot_check.Forged d -> `Fault d
      | Spot_check.Unavailable _ -> `Stall)

  let feed_unfed c e =
    while c.c_fed < c.c_n do
      Replay.feed_entry e c.c_entries.(c.c_fed);
      c.c_fed <- c.c_fed + 1
    done

  (* The head chunk replayed to completion: settle its cache lookup
     (confirm a spot-designated hit, or remember a fresh outcome — a
     chunk never looked up, because hits were unusable, still seeds
     the cache for the rest of the fleet) and retire it. The engine
     stays — it is already positioned at the next chunk's start, whose
     state is kept (as pages changed from the image) for its evidence. *)
  let complete_chunk t c e =
    Option.iter
      (fun ((b : Spot_check.boundary), _) ->
        let l =
          match (c.c_lookup, t.cache) with
          | Some l, _ -> l
          | None, Some cache ->
            Replay_cache.Miss (cache, fingerprint t c)
          | None, _ -> Replay_cache.Off
        in
        let instructions = Replay.replayed_instructions e - c.c_start_instr in
        Replay_cache.settle l ~emitted:c.c_emitted
          (Some { Replay_cache.instructions; entries_consumed = c.c_n });
        t.start <- Some (Snapshot.of_image_diff t.diff ~seq:b.snapshot_seq (Replay.engine_machine e)))
      c.c_end;
    retire_chunk t c

  (* The entry a divergence names, else the head chunk's last: replay was fed no further. *)
  let divergence_at t (d : Replay.divergence) =
    match d.entry_seq with Some s -> s | None -> (Queue.peek t.chunks).c_upto

  let rec drive t remaining =
    if t.verdict = None && remaining > 0 then
      match Queue.peek_opt t.chunks with
      | None -> ()
      | Some c ->
        (* Cache decision point: a closed head chunk nothing has been
           fed from yet can be fingerprinted and looked up before any
           replay is spent on it — when downloaded snapshots can
           re-seat replay after a hit. *)
        if c.c_end <> None && c.c_fed = 0 && Option.is_none c.c_lookup && t.snapshot_of <> None
        then begin
          let print () = fingerprint t c in
          match Replay_cache.lookup t.cache ~fuel:Replay.default_fuel print with
          | Replay_cache.Hit _ -> retire_hit t c
          | l -> c.c_lookup <- Some l
        end;
        let head_changed =
          match Queue.peek_opt t.chunks with Some c' -> c' != c | None -> true
        in
        if head_changed then drive t remaining (* hit retired the head; no fuel spent *)
        else begin
          match ensure_engine t with
          | `Stall -> ()
          | `Fault d -> set_verdict t ~at:0 (Diverged d)
          | `Ok e ->
            if c.c_fed = 0 then c.c_start_instr <- Replay.replayed_instructions e;
            feed_unfed c e;
            let before = Replay.replayed_instructions e in
            let res, emitted =
              if t.cache <> None then
                Replay_cache.measure_replay (fun () -> Replay.crank e ~fuel:remaining)
              else (Replay.crank e ~fuel:remaining, false)
            in
            c.c_emitted <- c.c_emitted || emitted;
            let remaining = remaining - (Replay.replayed_instructions e - before) in
            (match res with
            | `Fault d -> set_verdict t ~at:(divergence_at t d) (Diverged d)
            | `Fuel_exhausted -> ()
            | `Blocked ->
              if c.c_end <> None && c.c_fed = c.c_n then begin
                complete_chunk t c e;
                drive t remaining
              end
              (* else: open tail drained — wait for more entries *))
        end

  let step t ~budget_instructions =
    match t.verdict with
    | Some v -> Some v
    | None ->
      Metrics.incr "online_audit.advances";
      let wall0 = Clock.now_s () in
      let retired0 = t.retired in
      (* Saturate: a [max_int] budget must mean "no limit", not wrap. *)
      let fuel = float_of_int budget_instructions *. t.replay_rate in
      drive t (if fuel >= float_of_int max_int then max_int else max (int_of_float fuel) 0);
      let wall = Clock.now_s () -. wall0 in
      t.sem_seconds <- t.sem_seconds +. wall;
      let processed = t.retired - retired0 in
      if processed > 0 then begin
        let us_per_entry = wall *. 1e6 /. float_of_int processed in
        t.ema_us_per_entry <-
          (if t.ema_us_per_entry = 0. then us_per_entry
           else (0.8 *. t.ema_us_per_entry) +. (0.2 *. us_per_entry))
      end;
      t.verdict

  (* --- status / close / outcome --------------------------------------- *)

  let status t =
    let lag = lag_entries t in
    {
      ingested_entries = t.ingested;
      retired_entries = t.retired;
      chunks_retired = t.n_chunks_retired;
      lag_entries = lag;
      lag_us_estimate = float_of_int lag *. t.ema_us_per_entry;
      replayed_instructions = total_instructions t;
      cache_hits = t.n_cache_hits;
      throttled = t.throttled;
      verdict = t.verdict;
    }

  let close t =
    if not t.closed then begin
      t.closed <- true;
      let t0 = Clock.now_s () in
      ignore (Syn.finish t.syn : syntactic_report);
      (match Syn.failures_after t.syn t.syn_seen with
      | [] -> ()
      | fresh ->
        set_verdict t ~at:(max 1 (fst (List.hd fresh)))
          (Tampered { reason = String.concat "; " (List.map snd fresh); entry_seq = None }));
      t.syn_seen <- Syn.failure_count t.syn;
      t.syn_seconds <- t.syn_seconds +. (Clock.now_s () -. t0);
      Metrics.incr "online_audit.sessions_closed"
    end;
    t.verdict

  (* --- evidence: only what the accused signed (DESIGN.md §29) ---------- *)

  (* Buffered entries [from..upto] with the chain hash before [from]:
     the queued chunks, preceded by the head's opening Snapshot_ref. *)
  let buffered t ~from ~upto =
    let prev, opening =
      match t.opening with Some (p, sr) -> (p, [ sr ]) | None -> (Log.genesis_hash, [])
    in
    let queued c = Array.to_list (Array.sub c.c_entries 0 c.c_n) in
    let rec cut prev = function
      | (e : Entry.t) :: rest when e.seq < from -> cut e.hash rest
      | rest -> (prev, List.filter (fun (e : Entry.t) -> e.seq <= upto) rest)
    in
    cut prev (opening @ List.concat_map queued (List.of_seq (Queue.to_seq t.chunks)) @ List.rev t.after)

  (* A verified authenticator collected after the session opened: one
     for an entry still to come is matched when it arrives, one for a
     buffered entry now; one for a retired entry can cover no later
     fault and is dropped. *)
  let add_auth t (a : Auth.t) =
    let tbl = t.syn.Syn.auth_by_seq in
    let keep () = if not (List.mem a (Hashtbl.find_all tbl a.seq)) then Hashtbl.add tbl a.seq a in
    if Auth.verify t.ctx.node_cert a then
      if a.seq > t.fed_upto then keep ()
      else
        match buffered t ~from:a.seq ~upto:a.seq with
        | _, [ e ] when Auth.matches_entry a e -> keep ()
        | _, [ _ ] ->
          set_verdict t ~at:a.seq
            (Tampered
               {
                 reason =
                   Printf.sprintf "authenticator #%d does not match the log (forked or rewritten log)"
                     a.seq;
                 entry_seq = Some a.seq;
               })
        | _ -> ()

  (* A divergence ships the head chunk from its opening Snapshot_ref
     (and the state verified there), a forged RECV the log from that
     entry; either runs to the covering authenticator, the first
     verified collected one at or after the fault. A failure unsigned
     entries cannot show a third party, or one no ingested
     authenticator covers, becomes a conflicting pair of collected
     authenticators or a challenge for that first one. *)
  let evidence t v =
    let accused = Avm_crypto.Identity.cert_name t.ctx.node_cert in
    let tbl = t.syn.Syn.auth_by_seq in
    let auths = List.of_seq (Hashtbl.to_seq_values tbl) in
    let auths = List.sort (fun (a : Auth.t) b -> compare a.seq b.seq) auths in
    let first = List.find_opt (fun (a : Auth.t) -> a.seq >= t.fault_at) auths in
    let chunk ~from start =
      match first with
      | Some cover when cover.Auth.seq <= t.fed_upto ->
        let prev_hash, entries = buffered t ~from ~upto:cover.Auth.seq in
        let c = { Evidence.start; prev_hash; entries; cover } in
        if Evidence.commits c then Some c else None
      | _ -> None
    in
    let or_unsigned = function
      | Some a -> Some a
      | None -> (
        let pair (a : Auth.t) = List.find_opt (Auth.conflicts a) (Hashtbl.find_all tbl a.seq) in
        match List.find_map (fun a -> Option.map (fun b -> (a, b)) (pair a)) auths with
        | Some (a, b) -> Some (Evidence.Equivocation { a; b })
        | None -> Option.map (fun auth -> Evidence.Unanswered_challenge { auth }) first)
    in
    let accusation =
      match v with
      | Equivocated { a; b } -> Some (Evidence.Equivocation { a; b })
      | Diverged _ when t.fault_at = 0 -> None
      | Diverged divergence ->
        let from = match t.opening with Some (_, sr) -> sr.Entry.seq | None -> 1 in
        chunk ~from t.start
        |> Option.map (fun chunk -> Evidence.Replay_divergence { divergence; chunk })
        |> or_unsigned
      | Tampered { reason; entry_seq = Some s } ->
        (match buffered t ~from:s ~upto:s with
        | _, [ e ] when Evidence.forged_recv ~node:accused ~peer_certs:t.ctx.peer_certs e ->
          chunk ~from:s None
          |> Option.map (fun chunk -> Evidence.Tampered_log { entry_seq = s; reason; chunk })
        | _ -> None)
        |> or_unsigned
      | Tampered _ -> or_unsigned None
    in
    Option.map (fun accusation -> { Evidence.accused; accusation }) accusation

  let outcome t =
    let verdict, semantic =
      match t.verdict with
      | None ->
        let instructions = total_instructions t and entries_consumed = t.ingested in
        (Ok (), Some (Replay.Verified { instructions; entries_consumed }))
      | Some (Tampered { reason; _ }) -> (Error reason, None)
      | Some (Diverged d) ->
        let o = Replay.Diverged d in
        (Error (Format.asprintf "%a" Replay.pp_outcome o), Some o)
      | Some (Equivocated _ as v) -> (Error (Format.asprintf "%a" pp_verdict v), None)
    in
    {
      node = Avm_crypto.Identity.cert_name t.ctx.node_cert;
      syntactic = Syn.report t.syn;
      semantic;
      syntactic_seconds = t.syn_seconds;
      semantic_seconds = t.sem_seconds;
      verdict;
      evidence = Option.bind t.verdict (evidence t);
    }

  (* Batch replay: everything ingested, under one total [fuel]; fuel
     running out with entries left is a stalled guest. *)
  let drain t ~fuel =
    ignore (step t ~budget_instructions:fuel : verdict option);
    match t.resume with
    | R_engine e when t.verdict = None && lag_entries t > 0 ->
      let d = Replay.stall e ~fuel in
      set_verdict t ~at:(divergence_at t d) (Diverged d)
    | _ -> ()
end

(* --- the batch front ends ------------------------------------------------ *)

(* A batch audit is one session over a complete log: ingest it all
   (the syntactic check), settle the cut point, then replay what was
   ingested — only if the syntactic check passed, as a broken chain is
   already evidence. *)
let batch ?pool ~ctx ~image ?mem_words ?(fuel = Replay.default_fuel) ?cache ~peers ingest =
  let t =
    Session.create ?pool ~ctx ~image ?mem_words ~replay_rate:1.0 ~high:max_int ~low:max_int ?cache
      ~peers ()
  in
  Trace.with_span ~name:"audit.syntactic" (fun () ->
      ingest t;
      ignore (Session.close t : verdict option));
  Metrics.observe "audit.syntactic_seconds" t.Session.syn_seconds;
  if t.Session.verdict = None then begin
    Trace.with_span ~name:"audit.semantic" (fun () -> Session.drain t ~fuel);
    Metrics.observe "audit.semantic_seconds" t.Session.sem_seconds
  end;
  let o = Session.outcome t in
  Metrics.incr (if o.verdict = Ok () then "audit.verdicts_correct" else "audit.verdicts_faulty");
  o

let full_of_log ~ctx ~image ?mem_words ?fuel ?cache ~peers ~log ?par () =
  with_parallelism ?par (fun pool ->
      batch ?pool ~ctx ~image ?mem_words ?fuel ?cache ~peers (fun t ->
          ignore (Session.ingest_log ?pool t log : [ `Accepted | `Backpressure of int ])))

let full ~ctx ~image ?mem_words ?fuel ?cache ~peers ~entries ?par () =
  match Log.of_entries entries with
  | log -> full_of_log ~ctx ~image ?mem_words ?fuel ?cache ~peers ~log ?par ()
  | exception Invalid_argument _ ->
    (* Not a contiguous run from seq 1, so not indexable as a log: push
       the list as it is, and the gap is a chain failure of the same
       stream. *)
    batch ~ctx ~image ?mem_words ?fuel ?cache ~peers (fun t ->
        let first = (List.hd entries).Entry.seq in
        Session.pull t
          [
            {
              Log.spec_from = first;
              spec_upto = List.fold_left (fun _ (e : Entry.t) -> e.seq) first entries;
              spec_prev_hash = Log.genesis_hash;
              spec_load = (fun () -> entries);
            };
          ])

let confirm ev ~ctx ~image ?mem_words ~peers () =
  Evidence.confirm ev ~node_cert:ctx.node_cert ~peer_certs:ctx.peer_certs ~image ~mem_words ~peers

let check_evidence ev ~ctx ~image ?mem_words ~peers () =
  Option.is_some (confirm ev ~ctx ~image ?mem_words ~peers ())

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
