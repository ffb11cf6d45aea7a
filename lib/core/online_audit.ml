module Log = Avm_tamperlog.Log
module Entry = Avm_tamperlog.Entry
module Snapshot = Avm_machine.Snapshot
module Machine = Avm_machine.Machine
module Metrics = Avm_obs.Metrics

type verdict =
  | Tampered of { reason : string; entry_seq : int option }
  | Diverged of Replay.divergence
  | Equivocated of { a : Avm_tamperlog.Auth.t; b : Avm_tamperlog.Auth.t }

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
      a.Avm_tamperlog.Auth.seq
      (Avm_util.Hex.short a.Avm_tamperlog.Auth.hash)
      (Avm_util.Hex.short b.Avm_tamperlog.Auth.hash)

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
    c_prev_hash : string;  (* chain hash before c_from, for evidence *)
    mutable c_all_rev : Entry.t list;  (* every buffered entry, newest first *)
    mutable c_n : int;
    c_unfed : Entry.t Queue.t;  (* buffered but not yet fed to the engine *)
    mutable c_fed : int;
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

  (* Chain-only syntactic mode for sessions opened without a ctx: the
     full stream would false-flag honest logs whose peer certificates
     the caller never supplied. *)
  type syn =
    | Syn_full of Audit.syn_stream
    | Syn_chain of { mutable prev : string; mutable expected : int }

  type t = {
    image : int array;
    mem_words : int option;
    peers : (int * string) list;
    ctx : Audit_ctx.ctx option;
    replay_rate : float;
    high : int;
    low : int;
    cache : Replay_cache.t option;
    snapshot_of : (unit -> Snapshot.t list) option;
    syn : syn;
    chunks : chunk Queue.t;  (* head = oldest unretired; last = open tail *)
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
    mutable closed : bool;
    mutable ema_us_per_entry : float;
  }

  let new_chunk ~from ~pre_state ~prev_hash =
    {
      c_from = from;
      c_upto = from - 1;
      c_pre_state = pre_state;
      c_prev_hash = prev_hash;
      c_all_rev = [];
      c_n = 0;
      c_unfed = Queue.create ();
      c_fed = 0;
      c_end = None;
      c_lookup = None;
      c_emitted = false;
      c_start_instr = 0;
    }

  let open_session ?ctx ~image ?mem_words ?(replay_rate = 0.955) ?(prev_hash = Log.genesis_hash)
      ?(high_watermark = 4096) ?low_watermark ?cache ?snapshot_of ~peers () =
    if high_watermark < 1 then invalid_arg "Online_audit: high_watermark must be positive";
    let low =
      match low_watermark with
      | Some l ->
        if l > high_watermark then
          invalid_arg "Online_audit: low_watermark above high_watermark";
        l
      | None -> high_watermark / 2
    in
    let e = Replay.engine ~image ?mem_words ~peers () in
    let m = Replay.engine_machine e in
    let pre_state = Snapshot.machine_digest ~at_icount:(Machine.icount m) m in
    let syn =
      match ctx with
      | Some c -> Syn_full (Audit.syn_stream ~ctx:c ~prev_hash)
      | None -> Syn_chain { prev = prev_hash; expected = -1 }
    in
    let tail = new_chunk ~from:1 ~pre_state ~prev_hash in
    let chunks = Queue.create () in
    Queue.push tail chunks;
    Metrics.incr "online_audit.sessions_opened";
    {
      image;
      mem_words;
      peers;
      ctx;
      replay_rate;
      high = high_watermark;
      low;
      cache;
      snapshot_of;
      syn;
      chunks;
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
      closed = false;
      ema_us_per_entry = 0.;
    }

  let set_verdict t v =
    if t.verdict = None then begin
      t.verdict <- Some v;
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
    if Avm_tamperlog.Auth.conflicts a b then set_verdict t (Equivocated { a; b })

  let node_cert t =
    Option.map (fun ctx -> ctx.Audit_ctx.node_cert) t.ctx

  let lag_entries t =
    let unfed = Queue.fold (fun acc c -> acc + Queue.length c.c_unfed) 0 t.chunks in
    let pending =
      match t.resume with R_engine e -> Replay.pending_entries e | R_boundary _ -> 0
    in
    unfed + pending

  let total_instructions t =
    t.instr_base
    + (match t.resume with R_engine e -> Replay.replayed_instructions e | R_boundary _ -> 0)

  (* --- ingest ------------------------------------------------------- *)

  let syn_check t (e : Entry.t) =
    match t.syn with
    | Syn_full s ->
      let before = Audit.syn_failure_count s in
      Audit.syn_push s e;
      let after = Audit.syn_failure_count s in
      if after > before then begin
        let fresh =
          Audit.syn_failures s
          |> List.filteri (fun i _ -> i >= before)
          |> String.concat "; "
        in
        set_verdict t (Tampered { reason = fresh; entry_seq = Some e.Entry.seq })
      end
    | Syn_chain c ->
      if c.expected >= 0 && e.Entry.seq <> c.expected then
        set_verdict t
          (Tampered
             {
               reason = Printf.sprintf "sequence gap: expected %d, got %d" c.expected e.Entry.seq;
               entry_seq = Some e.Entry.seq;
             })
      else if not (Entry.chain_ok ~prev:c.prev e) then
        set_verdict t
          (Tampered
             {
               reason = Printf.sprintf "hash chain broken at entry %d" e.Entry.seq;
               entry_seq = Some e.Entry.seq;
             });
      c.prev <- e.Entry.hash;
      c.expected <- e.Entry.seq + 1

  let on_entry t (e : Entry.t) =
    t.fed_upto <- e.Entry.seq;
    if t.verdict = None then begin
      t.ingested <- t.ingested + 1;
      syn_check t e;
      let c = t.tail in
      c.c_all_rev <- e :: c.c_all_rev;
      c.c_n <- c.c_n + 1;
      c.c_upto <- e.Entry.seq;
      Queue.push e c.c_unfed;
      match e.Entry.content with
      | Entry.Snapshot_ref { digest; snapshot_seq; at_icount } ->
        c.c_end <- Some ({ Spot_check.entry_seq = e.Entry.seq; snapshot_seq; at_icount }, digest);
        let tail =
          new_chunk ~from:(e.Entry.seq + 1) ~pre_state:digest ~prev_hash:e.Entry.hash
        in
        t.tail <- tail;
        Queue.push tail t.chunks
      | _ -> ()
    end

  let ingest ?upto t log =
    if t.verdict <> None || t.closed then `Accepted
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
          set_verdict t
            (Tampered
               {
                 reason =
                   Printf.sprintf "log shrank: had observed %d entries, now %d" t.fed_upto limit;
                 entry_seq = None;
               })
        else if limit > t.fed_upto then begin
          let from = t.fed_upto + 1 in
          Metrics.incr ~by:(limit - t.fed_upto) "online_audit.entries_observed";
          Log.iter_range log ~from ~upto:limit (on_entry t);
          if Log.length log <> len0 then
            invalid_arg "Online_audit.ingest: log mutated during the call"
        end;
        `Accepted
      end
    end

  (* --- step --------------------------------------------------------- *)

  let fingerprint t c =
    Replay_cache.fingerprint ~image:t.image ?mem_words:t.mem_words ~peers:t.peers
      ~pre_state:c.c_pre_state (List.rev c.c_all_rev)

  let retire_chunk t c =
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
        let e = Replay.engine ~image:t.image ?mem_words:t.mem_words ~start ~peers:t.peers () in
        t.resume <- R_engine e;
        `Ok e
      | Spot_check.Forged d -> `Fault d
      | Spot_check.Unavailable _ -> `Stall)

  let feed_unfed c e =
    while not (Queue.is_empty c.c_unfed) do
      Replay.feed_entry e (Queue.pop c.c_unfed);
      c.c_fed <- c.c_fed + 1
    done

  (* The head chunk replayed to completion: settle its cache lookup
     (confirm a spot-designated hit, or remember a fresh outcome — a
     chunk never looked up, because hits were unusable, still seeds
     the cache for the rest of the fleet) and retire it. The engine
     stays — it is already positioned at the next chunk's start. *)
  let complete_chunk t c e =
    if c.c_end <> None then begin
      let l =
        match (c.c_lookup, t.cache) with
        | Some l, _ -> l
        | None, Some cache when Replay_cache.is_enabled () ->
          Replay_cache.Miss (cache, fingerprint t c)
        | None, _ -> Replay_cache.Off
      in
      let instructions = Replay.replayed_instructions e - c.c_start_instr in
      Replay_cache.settle l ~emitted:c.c_emitted
        (Some { Replay_cache.instructions; entries_consumed = c.c_n })
    end;
    retire_chunk t c

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
          | `Fault d -> set_verdict t (Diverged d)
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
            | `Fault d -> set_verdict t (Diverged d)
            | `Fuel_exhausted -> ()
            | `Blocked ->
              if c.c_end <> None && Queue.is_empty c.c_unfed then begin
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
      let wall0 = Avm_obs.Clock.now_s () in
      let retired0 = t.retired in
      let fuel = int_of_float (float_of_int budget_instructions *. t.replay_rate) in
      drive t (max fuel 0);
      let processed = t.retired - retired0 in
      if processed > 0 then begin
        let us_per_entry = (Avm_obs.Clock.now_s () -. wall0) *. 1e6 /. float_of_int processed in
        t.ema_us_per_entry <-
          (if t.ema_us_per_entry = 0. then us_per_entry
           else (0.8 *. t.ema_us_per_entry) +. (0.2 *. us_per_entry))
      end;
      t.verdict

  (* --- status / close ----------------------------------------------- *)

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
      (match t.syn with
      | Syn_full s when t.verdict = None ->
        let before = Audit.syn_failure_count s in
        let report = Audit.syn_finish s in
        let fresh = List.filteri (fun i _ -> i >= before) report.Audit.failures in
        if fresh <> [] then
          set_verdict t (Tampered { reason = String.concat "; " fresh; entry_seq = None })
      | Syn_full s -> ignore (Audit.syn_finish s)
      | Syn_chain _ -> ());
      Metrics.incr "online_audit.sessions_closed"
    end;
    t.verdict

  let outcome t =
    match (t.ctx, t.verdict) with
    | None, _ | _, None -> None
    | Some ctx, Some v ->
      let node = Avm_crypto.Identity.cert_name ctx.Audit_ctx.node_cert in
      let syntactic =
        match t.syn with
        | Syn_full s -> Audit.syn_report s
        | Syn_chain _ -> assert false (* ctx implies Syn_full *)
      in
      (* Evidence covers the chunk holding the offending entry (the
         head chunk when the verdict does not name one). *)
      let seq_of = function
        | Tampered { entry_seq; _ } -> entry_seq
        | Diverged d -> d.Replay.entry_seq
        | Equivocated { a; _ } -> Some a.Avm_tamperlog.Auth.seq
      in
      let chunk =
        match seq_of v with
        | Some seq ->
          Queue.fold
            (fun acc c -> if c.c_from <= seq && seq <= c.c_upto then Some c else acc)
            None t.chunks
        | None -> None
      in
      let chunk = match chunk with Some c -> Some c | None -> Queue.peek_opt t.chunks in
      let prev_hash, segment =
        match chunk with
        | Some c -> (c.c_prev_hash, List.rev c.c_all_rev)
        | None -> (Log.genesis_hash, [])
      in
      let accusation =
        match v with
        | Tampered { reason; _ } -> Evidence.Tampered_log { reason }
        | Diverged d -> Evidence.Replay_divergence d
        | Equivocated { a; b } -> Evidence.Equivocation { a; b }
      in
      let verdict_line = Format.asprintf "%a" pp_verdict v in
      Some
        {
          Audit.node;
          syntactic;
          semantic =
            (match v with
            | Diverged d -> Some (Replay.Diverged d)
            | Tampered _ | Equivocated _ -> None);
          syntactic_seconds = 0.;
          semantic_seconds = 0.;
          verdict = Error verdict_line;
          evidence =
            Some
              {
                Evidence.accused = node;
                prev_hash;
                segment;
                auths = ctx.Audit_ctx.auths;
                accusation;
              };
        }
end
