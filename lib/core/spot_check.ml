open Avm_tamperlog
open Avm_machine

type boundary = { entry_seq : int; snapshot_seq : int; at_icount : int }

(* Answered from the log's snapshot index — no entry data is touched,
   so a fully compressed log plans its spot checks without inflating a
   single segment. *)
let boundaries log =
  List.map
    (fun (entry_seq, snapshot_seq, at_icount) -> { entry_seq; snapshot_seq; at_icount })
    (Log.snapshot_index log)

(* A prepared audit plan: the boundary index as an array + hashtable
   (one O(n) build instead of a List.find_opt scan per lookup) and the
   snapshot chain sorted once, so every chunk slices a prefix instead
   of re-filtering the full snapshot list. *)
type plan = {
  p_bounds : boundary array; (* ascending entry_seq *)
  p_by_snap : (int, boundary) Hashtbl.t; (* snapshot_seq -> boundary *)
  p_chain : Snapshot.t array; (* ascending snapshot seq *)
}

let plan ~log ~snapshots =
  let p_bounds = Array.of_list (boundaries log) in
  let p_by_snap = Hashtbl.create (max 16 (Array.length p_bounds)) in
  Array.iter (fun b -> Hashtbl.replace p_by_snap b.snapshot_seq b) p_bounds;
  { p_bounds; p_by_snap; p_chain = Array.of_list (Snapshot.chain_upto snapshots max_int) }

let plan_boundaries pl = Array.to_list pl.p_bounds

let chunk_bounds pl ~start_snapshot ~k =
  let find s =
    match Hashtbl.find_opt pl.p_by_snap s with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "no snapshot %d in log" s)
  in
  Result.bind (find start_snapshot) (fun b0 ->
      Result.map (fun b1 -> (b0, b1)) (find (start_snapshot + k)))

(* The pre-filtered chain for [Snapshot.materialize]: the prefix of the
   sorted snapshot array with seq <= s. *)
let chain_to pl s =
  let n = Array.length pl.p_chain in
  let k = ref 0 in
  while !k < n && pl.p_chain.(!k).Snapshot.seq <= s do
    incr k
  done;
  Array.to_list (Array.sub pl.p_chain 0 !k)

type authenticated =
  | Verified of Machine.t
  | Forged of Replay.divergence
  | Unavailable of string

let authenticate ~image ?mem_words ~chain ~digest (b : boundary) =
  match List.rev chain with
  | last :: _ when last.Snapshot.seq = b.snapshot_seq -> (
    let forged ~at detail =
      Forged { Replay.kind = Replay.Snapshot_mismatch; at; entry_seq = Some b.entry_seq; detail }
    in
    match Snapshot.materialize ?mem_words ~image chain with
    | Error msg ->
      forged
        ~at:{ Landmark.icount = b.at_icount; pc = 0; branches = 0 }
        ("downloaded snapshot is malformed: " ^ msg)
    | Ok machine ->
      if String.equal (Snapshot.machine_digest ~at_icount:b.at_icount machine) digest then
        Verified machine
      else
        forged ~at:(Machine.landmark machine)
          "downloaded snapshot does not match the logged digest")
  | _ -> Unavailable (Printf.sprintf "snapshot %d not available" b.snapshot_seq)

type chunk_report = {
  start_snapshot : int;
  k : int;
  first_seq : int;
  last_seq : int;
  state_bytes : int;
  replay_instructions : int;
  outcome : Replay.outcome;
}

let check_chunk ?plan:pl ?cache ~image ~mem_words ~snapshots ~log ~peers ~start_snapshot
    ~k () =
  Avm_obs.Trace.with_span ~name:"spot_check.chunk"
    ~attrs:[ ("start_snapshot", string_of_int start_snapshot); ("k", string_of_int k) ]
  @@ fun () ->
  let pl = match pl with Some pl -> pl | None -> plan ~log ~snapshots in
  Result.bind (chunk_bounds pl ~start_snapshot ~k) @@ fun (start_b, end_b) ->
  let from = start_b.entry_seq + 1 and upto = end_b.entry_seq in
  (* The logged digest at the chunk start: what the downloaded state is
     authenticated against, and the pre-state half of the fingerprint.
     Fingerprinting the *claimed* digest (not a materialized state's)
     is what lets a cache hit skip the download entirely; it is sound
     because entries are only remembered after a miss authenticated
     that very claim. *)
  let digest =
    match (Log.entry log start_b.entry_seq).Entry.content with
    | Entry.Snapshot_ref { digest; _ } -> digest
    | _ -> assert false (* the snapshot index only lists Snapshot_ref entries *)
  in
  let report ~state_bytes ~replay_instructions outcome =
    {
      start_snapshot;
      k;
      first_seq = from;
      last_seq = upto;
      state_bytes;
      replay_instructions;
      outcome;
    }
  in
  (* What the auditor downloads on a replay: the full state at the
     chunk start (the paper's "memory + disk snapshots"); a forged
     download is itself the divergence. The log range it also ships is
     the report's [first_seq..last_seq], priced by whoever prints a
     transfer size: no verdict reads the price, and pricing it means
     compressing the range. *)
  let full () =
    let chain = chain_to pl start_b.snapshot_seq in
    match authenticate ~image ~mem_words ~chain ~digest start_b with
    | Unavailable msg -> Error msg
    | Forged d ->
      Ok
        (report ~state_bytes:0 ~replay_instructions:0 (Replay.Diverged d))
    | Verified machine ->
      let state_bytes =
        String.length (Machine.serialize_meta machine)
        + (Memory.page_count (Machine.mem machine) * Memory.page_size * 4)
      in
      let outcome =
        Replay.replay_chunks ~image ~mem_words ~start:machine ~peers
          ~chunks:(Log.chunk_seq log ~from ~upto) ()
      in
      let replay_instructions =
        match outcome with
        | Replay.Verified { instructions; _ } -> instructions
        | Replay.Diverged _ -> Machine.icount machine - start_b.at_icount
      in
      Avm_obs.Metrics.incr ~by:state_bytes "spot_check.state_bytes";
      Avm_obs.Metrics.incr ~by:replay_instructions "spot_check.replay_instructions";
      Ok (report ~state_bytes ~replay_instructions outcome)
  in
  (* The per-path wall clocks feed the dedup bench: spot-designated
     hits are full replays of fingerprint-identical chunks, so
     [cache_spot_seconds] / [cache_hit_seconds] is a like-for-like
     measure of what each hit avoided. The fingerprint streams straight
     off the log, a segment at a time. *)
  let t0 = Avm_obs.Clock.now_s () in
  let clocked name r =
    Avm_obs.Metrics.observe name (Avm_obs.Clock.now_s () -. t0);
    r
  in
  let l =
    Replay_cache.lookup cache ~fuel:Replay.default_fuel (fun () ->
        let f = Replay_cache.fp_create ~image ~mem_words ~peers ~pre_state:digest () in
        Log.iter_range log ~from ~upto (Replay_cache.fp_feed f);
        Replay_cache.fp_finish f)
  in
  let result =
    match l with
    | Replay_cache.Off -> full ()
    | Replay_cache.Hit { instructions; entries_consumed } ->
      (* Nothing downloaded, nothing executed: the audit is the
         three-digest compare, and the report says so. *)
      clocked "spot_check.cache_hit_seconds"
        (Ok
           (report ~state_bytes:0 ~replay_instructions:0
              (Replay.Verified { instructions; entries_consumed })))
    | Replay_cache.Spot _ | Replay_cache.Miss _ ->
      let r, emitted = Replay_cache.measure_replay full in
      Result.iter (fun r -> Replay_cache.settle l ~emitted (Replay.verified r.outcome)) r;
      clocked
        (match l with
        | Replay_cache.Spot _ -> "spot_check.cache_spot_seconds"
        | _ -> "spot_check.cache_miss_seconds")
        r
  in
  if Result.is_ok result then Avm_obs.Metrics.incr "spot_check.chunks_checked";
  result
