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
   snapshot chain sorted once, on the first download, so every chunk
   slices a prefix instead of re-filtering the full snapshot list. A
   plan whose checks never download (syntactic ones, or replays that
   start from a remembered state) never sorts. Two domains may both
   sort it; they publish equal arrays. *)
type plan = {
  p_bounds : boundary array; (* ascending entry_seq *)
  p_by_snap : (int, boundary) Hashtbl.t; (* snapshot_seq -> boundary *)
  p_snapshots : Snapshot.t list;
  p_chain : Snapshot.t array option Atomic.t; (* ascending snapshot seq *)
}

let plan ~log ~snapshots =
  let p_bounds = Array.of_list (boundaries log) in
  let p_by_snap = Hashtbl.create (max 16 (Array.length p_bounds)) in
  Array.iter (fun b -> Hashtbl.replace p_by_snap b.snapshot_seq b) p_bounds;
  { p_bounds; p_by_snap; p_snapshots = snapshots; p_chain = Atomic.make None }

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
  let chain =
    match Atomic.get pl.p_chain with
    | Some c -> c
    | None ->
      let c = Array.of_list (Snapshot.chain_upto pl.p_snapshots max_int) in
      Atomic.set pl.p_chain (Some c);
      c
  in
  let n = Array.length chain in
  let k = ref 0 in
  while !k < n && chain.(!k).Snapshot.seq <= s do
    incr k
  done;
  Array.to_list (Array.sub chain 0 !k)

type authenticated =
  | Verified of Machine.t
  | Forged of Replay.divergence
  | Unavailable of string

let forged (b : boundary) ~at detail =
  Forged { Replay.kind = Replay.Snapshot_mismatch; at; entry_seq = Some b.entry_seq; detail }

let available ~chain (b : boundary) =
  match List.rev chain with last :: _ -> last.Snapshot.seq = b.snapshot_seq | [] -> false

(* The two halves of [authenticate]: rebuild the downloaded state,
   then compare its digest with the logged one. *)
let download ~image ?mem_words ~chain (b : boundary) =
  if not (available ~chain b) then
    Error (Unavailable (Printf.sprintf "snapshot %d not available" b.snapshot_seq))
  else
    match Snapshot.materialize ?mem_words ~image chain with
    | Error msg ->
      Error
        (forged b
           ~at:{ Landmark.icount = b.at_icount; pc = 0; branches = 0 }
           ("downloaded snapshot is malformed: " ^ msg))
    | Ok machine -> Ok machine

let check_digest ~digest (b : boundary) machine =
  if String.equal (Snapshot.machine_digest ~at_icount:b.at_icount machine) digest then
    Verified machine
  else
    forged b ~at:(Machine.landmark machine) "downloaded snapshot does not match the logged digest"

let authenticate ~image ?mem_words ~chain ~digest b =
  match download ~image ?mem_words ~chain b with
  | Error a -> a
  | Ok machine -> check_digest ~digest b machine

type chunk_report = {
  start_snapshot : int;
  k : int;
  first_seq : int;
  last_seq : int;
  state_bytes : int;
  replay_instructions : int;
  outcome : Replay.outcome;
}

(* One spare machine per domain: a remembered state is restored into
   it rather than into a fresh allocation, and a replay machine the
   state table did not keep becomes the next spare. *)
let spare = Domain.DLS.new_key (fun () -> ref None)

let restore m =
  let slot = Domain.DLS.get spare in
  let into = !slot in
  slot := None;
  Machine.copy ?into m

let recycle m = Domain.DLS.get spare := Some m

let add_us name seconds =
  Avm_obs.Metrics.incr ~by:(Float.to_int (Float.round (seconds *. 1e6))) name

let stage name t0 =
  let t1 = Avm_obs.Clock.now_s () in
  add_us name (t1 -. t0);
  t1

let check_chunk ?plan:pl ?cache ~image ~mem_words ~snapshots ~log ~peers ~start_snapshot
    ~k () =
  Avm_obs.Trace.with_span ~name:"spot_check.chunk"
    ~attrs:[ ("start_snapshot", string_of_int start_snapshot); ("k", string_of_int k) ]
  @@ fun () ->
  let pl = match pl with Some pl -> pl | None -> plan ~log ~snapshots in
  Result.bind (chunk_bounds pl ~start_snapshot ~k) @@ fun (start_b, end_b) ->
  (* Checked before any cache is consulted, so whether the target handed
     over the opening state never depends on what the auditor holds. *)
  Result.bind
    (if List.exists (fun (s : Snapshot.t) -> s.seq = start_b.snapshot_seq) pl.p_snapshots then
       Ok ()
     else Error (Printf.sprintf "snapshot %d not available" start_b.snapshot_seq))
  @@ fun () ->
  let from = start_b.entry_seq + 1 and upto = end_b.entry_seq in
  (* The logged digests at the chunk's boundaries. The opening one is
     what a downloaded state is authenticated against, the key of a
     remembered state, and the pre-state half of the fingerprint.
     Fingerprinting the *claimed* digest (not a materialized state's)
     is what lets a cache hit skip the download entirely; it is sound
     because entries are only remembered after a miss authenticated
     that very claim. *)
  let logged (b : boundary) =
    match (Log.entry log b.entry_seq).Entry.content with
    | Entry.Snapshot_ref { digest; _ } -> digest
    | _ -> assert false (* the snapshot index only lists Snapshot_ref entries *)
  in
  let digest = logged start_b in
  let states =
    match cache with Some t when Replay_cache.is_enabled () -> Some t | _ -> None
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
     download is itself the divergence. With a cache, a state the
     auditor already verified at this digest is restored instead and
     nothing is downloaded (DESIGN.md §24). The log range it also
     ships is the report's [first_seq..last_seq], priced by whoever
     prints a transfer size: no verdict reads the price, and pricing
     it means compressing the range. *)
  let full () =
    let t0 = Avm_obs.Clock.now_s () in
    let remembered =
      Option.bind states (fun t ->
          Replay_cache.find_state t ~digest ~at_icount:start_b.at_icount)
    in
    let start =
      match remembered with
      | Some m ->
        Avm_obs.Metrics.incr "spot_check.states_reused";
        let m = restore m in
        ignore (stage "spot_check.restore_us" t0);
        Verified m
      | None -> (
        match download ~image ~mem_words ~chain:(chain_to pl start_b.snapshot_seq) start_b with
        | Error a -> a
        | Ok m ->
          let t1 = stage "spot_check.restore_us" t0 in
          let a = check_digest ~digest start_b m in
          ignore (stage "spot_check.pre_digest_us" t1);
          a)
    in
    match start with
    | Unavailable msg -> Error msg
    | Forged d -> Ok (report ~state_bytes:0 ~replay_instructions:0 (Replay.Diverged d))
    | Verified machine ->
      let state_bytes, machine =
        match remembered with
        | Some _ -> (0, machine)
        | None ->
          let bytes =
            String.length (Machine.serialize_meta machine)
            + (Memory.page_count (Machine.mem machine) * Memory.page_size * 4)
          in
          let kept =
            match states with
            | Some t -> Replay_cache.remember_state t ~digest ~at_icount:start_b.at_icount machine
            | None -> false
          in
          (bytes, if kept then restore machine else machine)
      in
      let t2 = Avm_obs.Clock.now_s () and d0 = Replay.digest_seconds () in
      let outcome =
        Replay.replay_chunks ~image ~mem_words ~start:machine ~peers
          ~chunks:(Log.chunk_seq log ~from ~upto) ()
      in
      let post = Replay.digest_seconds () -. d0 in
      ignore (stage "spot_check.replay_us" (t2 +. post));
      add_us "spot_check.post_digest_us" post;
      let replay_instructions =
        match outcome with
        | Replay.Verified { instructions; _ } -> instructions
        | Replay.Diverged _ -> Machine.icount machine - start_b.at_icount
      in
      (* A verified replay stopped at the closing Snapshot_ref, whose
         digest it recomputed from this very machine. *)
      Option.iter
        (fun t ->
          let kept =
            match outcome with
            | Replay.Verified _ when Machine.icount machine = end_b.at_icount ->
              Replay_cache.remember_state t ~digest:(logged end_b) ~at_icount:end_b.at_icount
                machine
            | _ -> false
          in
          if not kept then recycle machine)
        states;
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
  let print () =
    let f = Replay_cache.fp_create ~image ~mem_words ~peers ~pre_state:digest () in
    Log.iter_range log ~from ~upto (Replay_cache.fp_feed f);
    let p = Replay_cache.fp_finish f in
    ignore (stage "spot_check.fingerprint_us" t0);
    p
  in
  let result =
    Replay_cache.exclusive cache ~fuel:Replay.default_fuel print @@ function
    | Replay_cache.Off -> full ()
    | Replay_cache.Hit { instructions; entries_consumed } ->
      (* Nothing downloaded, nothing executed: the audit is the
         three-digest compare, and the report says so. *)
      clocked "spot_check.cache_hit_seconds"
        (Ok
           (report ~state_bytes:0 ~replay_instructions:0
              (Replay.Verified { instructions; entries_consumed })))
    | (Replay_cache.Spot _ | Replay_cache.Miss _) as l ->
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
