(* The AVM benchmark: record -> audit on the game, fleet witness
   auditing, and live online audit, with per-layer attribution.

   One process runs one workload for a fixed wall-clock window,
   repeating a whole iteration (set-up, measured phases, correctness
   gate) until the window is used up, and prints one JSON object as
   the last line of stdout. See README.md in this directory for the
   metric definitions, the layer -> end-to-end table and why each
   workload exists.

     avmbench --workload game-batch|fleet-witness|game-online
              --seed N --seconds S --trace 0|1

   With --trace 0 the result holds the end-to-end metrics, taken from
   the untraced iterations after the first. With --trace 1 untraced and traced
   iterations alternate: the result holds the per-layer metrics of
   the traced ones, plus the unattributed remainder of each phase and
   the tracing overhead (traced against untraced pipeline rate on the
   same seed). The system is driven only through its public
   functions; per-layer times are taken around the benchmark's own
   calls into each layer, per-layer counts from Avm_obs.Metrics
   counter deltas per phase. *)

open Avm_core
module Log = Avm_tamperlog.Log
module Metrics = Avm_obs.Metrics
module Trace = Avm_obs.Trace
module Net = Avm_netsim.Net
module Sim = Avm_netsim.Sim
module Topology = Avm_netsim.Topology
module Faults = Avm_netsim.Faults
module Identity = Avm_crypto.Identity
module Sigcache = Avm_crypto.Sigcache
module Pool = Avm_util.Domain_pool
module Rng = Avm_util.Rng
module Game_run = Avm_scenario.Game_run
module Recording = Avm_scenario.Recording
module Guests = Avm_scenario.Guests
module Cheats = Avm_scenario.Cheats
module Daemon = Avm_service.Daemon

let now = Avm_obs.Clock.now_s

(* --- Workload parameters ------------------------------------------------ *)

(* Game: 3 players at avmm-rsa768, one unlimited-ammo poker, no faults.
   Snapshots every half second give 10 chunks per 5 s log; a short
   session lets a run repeat it often enough that every part's fastest
   instance escapes the host's contention bursts. *)
let game_players = 3
let game_duration_us = 5.0e6
let game_snapshot_us = 500_000
let game_slice_us = 50_000.0

(* Fleet: an idle-majority kv fleet, k = 3 witnesses, 10% activity per
   epoch, 2% poked cheaters, light drop/reorder faults. *)
let fleet_nodes = 500
let fleet_k = 3
let fleet_epochs = 6
let fleet_epoch_us = 1_000_000.0
let fleet_activity = 0.10
let fleet_active = int_of_float ((fleet_activity *. float fleet_nodes) +. 0.5)
let fleet_cheat_frac = 0.02
let fleet_shards = 8
let fleet_faults () = Faults.make ~drop:0.01 ~reorder:0.03 ~jitter_us:1_000.0 ()

(* The auditor's key for the replay cache's spot-check designation. It is
   the auditor's own setting, not a workload input: keyed by the workload
   seed, it decided per seed whether the idle majority's shared chunk
   fingerprint was designated for full replay, which moved a fleet
   epoch's audit work by about 20% between seeds. *)
let cache_key = 0x5EEDL

(* --- Small statistics --------------------------------------------------- *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- Per-layer recording (traced iterations only) ----------------------- *)

(* A traced iteration fills one table: summed wall time per layer call,
   sample lists for latency percentiles, and named values. An untraced
   iteration passes [None] and pays no clock reads beyond its phases. *)
type layers = {
  sums : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  values : (string, float) Hashtbl.t;
}

let new_layers () =
  { sums = Hashtbl.create 32; samples = Hashtbl.create 16; values = Hashtbl.create 64 }

let add_sum l name dt =
  Hashtbl.replace l.sums name (dt +. Option.value ~default:0.0 (Hashtbl.find_opt l.sums name))

let add_sample l name v =
  Hashtbl.replace l.samples name (v :: Option.value ~default:[] (Hashtbl.find_opt l.samples name))

let set_value l name v = Hashtbl.replace l.values name v
let sum l name = Option.value ~default:0.0 (Hashtbl.find_opt l.sums name)
let samples l name = Option.value ~default:[] (Hashtbl.find_opt l.samples name)

(* Time one call into a layer when tracing. *)
let timed tr name f =
  match tr with
  | None -> f ()
  | Some l ->
    let t0 = now () in
    let r = f () in
    add_sum l name (now () -. t0);
    r

(* --- Cold state --------------------------------------------------------- *)

(* Clear the signature cache on every lane of [pool]: shards are
   per-domain, so each worker must clear its own. One task per lane,
   each spinning until all have arrived, so no lane can take two. *)
let cold_lanes pool =
  Sigcache.clear ();
  let n = Pool.jobs pool in
  if n > 1 then begin
    let arrived = Atomic.make 0 in
    let task () =
      Sigcache.clear ();
      Atomic.incr arrived;
      while Atomic.get arrived < n do
        Domain.cpu_relax ()
      done
    in
    ignore (Pool.run pool (List.init n (fun _ -> task)) : unit list)
  end

(* Counters read per phase; deltas of these become per-layer metrics. *)
let phase_counters =
  [
    "avmm.instructions"; "avmm.events_logged"; "crypto.rsa_signs"; "crypto.rsa_verifies";
    "crypto.rsa_batched"; "crypto.digest_bytes"; "crypto.sig_cache_hits";
    "crypto.sig_cache_misses"; "log.segments_sealed"; "log.bytes_sealed";
    "log.bytes_compressed"; "log.inflate_cache_misses"; "net.packets_sent"; "net.bytes_sent";
    "net.retransmissions"; "replay.instructions"; "replay.entries_fed";
    "spot_check.state_bytes"; "spot_check.replay_instructions"; "witness.equiv.messages";
    "witness.equiv.auths_exchanged"; "online_audit.chunks_retired";
    "online_audit.backpressure_refusals";
  ]

let read_counters () =
  let s = Metrics.snapshot () in
  List.map (fun n -> float_of_int (Metrics.counter s n)) phase_counters

(* The calling domain's own counter cells: a cheap read where one
   domain does all the work, as in the online workload ([Metrics.reset]
   zeroes the cells in place, so the refs stay valid). *)
let local_counters =
  let cells = lazy (List.map Metrics.counter_ref phase_counters) in
  fun () -> List.map (fun r -> float_of_int !r) (Lazy.force cells)

(* Accumulate the counter movement of one phase into [acc]. *)
let add_delta acc before after = List.map2 (fun a (x, y) -> a +. (y -. x)) acc (List.combine before after)
let zero_counters () = List.map (fun _ -> 0.0) phase_counters
let get_counter deltas name = List.assoc name (List.combine phase_counters deltas)

let hit_rate deltas =
  let h = get_counter deltas "crypto.sig_cache_hits" in
  ratio h (h +. get_counter deltas "crypto.sig_cache_misses")

(* --- One iteration's result ---------------------------------------------- *)

(* Each timed phase is split into parts that repeat identically in
   every iteration of a run: the snapshot chunks of a game
   session, the nodes of its audit, the epochs of a fleet. *)
type iteration = {
  setup_s : float;
  record_vs : float;  (** virtual seconds covered by [record_parts] *)
  record_parts : float array;  (** wall seconds per part of the recording *)
  log_bytes : float;  (** at-rest log bytes per node per virtual second *)
  wire_bytes : float;  (** wire bytes per node per virtual second *)
  audit_entries : int;
  audit_parts : float array;  (** wall seconds per part inside auditor calls *)
  node_epochs : int;
  pipeline_parts : float array;  (** wall seconds per part of the whole measured loop *)
  attempted : int;
  failed : int;
  fingerprint : string;  (** verdicts and exact counts: must repeat across iterations *)
  layers : layers option;
}

(* The wall time of a phase over a run: each part's fastest time over
   the iterations, summed. On a shared host, contention from other
   tenants comes in bursts of seconds that only ever add time (30-60% in
   a burst); they hit different parts in different iterations, so the
   fastest instance of each part is its least disturbed measurement. A
   change to the code moves every instance, the fastest included. *)
let robust_wall parts iters =
  match iters with
  | [] -> 0.0
  | first :: _ ->
    let n = Array.length (parts first) in
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      s := !s +. List.fold_left (fun m it -> Float.min m (parts it).(j)) infinity iters
    done;
    !s

let record_speed iters = ratio (List.hd iters).record_vs (robust_wall (fun it -> it.record_parts) iters)

let audit_rate iters =
  ratio (float (List.hd iters).audit_entries) (robust_wall (fun it -> it.audit_parts) iters)

let pipeline_rate iters =
  ratio (float (List.hd iters).node_epochs) (robust_wall (fun it -> it.pipeline_parts) iters)

(* --- Game: shared recording --------------------------------------------- *)

let game_cheater seed = Rng.int_in (Rng.create (Int64.logxor seed 0x617662656E6368L)) 0 (game_players - 1)

let game_spec seed =
  {
    Game_run.default_spec with
    Game_run.players = game_players;
    duration_us = game_duration_us;
    config = Config.make ~snapshot_every_us:(Some game_snapshot_us) Config.Avmm_rsa768;
    cheat = Some (game_cheater seed, Cheats.find "unlimited-ammo");
    seed;
    rsa_bits = 768;
    faults = None;
  }

type recorded = {
  outcome : Game_run.outcome;
  setup : float;  (** [play] start to the end of the first slice *)
  loop_wall : float;  (** first slice callback to the last, inclusive *)
  chunk_wall : float array;  (** [loop_wall] split per snapshot chunk *)
  slice_ms : float list;  (** pure recording time of slices 2..N *)
  extra_wall : float;  (** time inside [extra] callbacks (daemon calls) *)
}

let game_chunks = int_of_float (game_duration_us /. float game_snapshot_us)

(* The snapshot chunk a slice ending at [t_us] belongs to. *)
let chunk_of t_us = min (game_chunks - 1) (int_of_float ((t_us -. 1.0) /. float game_snapshot_us))

(* Record one session with Game_run.play. [extra] runs after every
   slice (the online workload's daemon calls); the slice interval that
   precedes it is pure recording: Net.run, bot input and the cheat. *)
let record_game ?(extra = fun _ _ -> ()) spec =
  let t0 = now () in
  let first = ref nan and last_end = ref nan in
  let slice_ms = ref [] and extra_wall = ref 0.0 in
  let chunk_wall = Array.make game_chunks 0.0 in
  let on_slice net t =
    let t_cb = now () in
    let j = chunk_of t in
    if Float.is_nan !first then first := t_cb
    else begin
      slice_ms := ((t_cb -. !last_end) *. 1e3) :: !slice_ms;
      chunk_wall.(j) <- chunk_wall.(j) +. (t_cb -. !last_end)
    end;
    extra net t;
    last_end := now ();
    extra_wall := !extra_wall +. (!last_end -. t_cb);
    chunk_wall.(j) <- chunk_wall.(j) +. (!last_end -. t_cb)
  in
  let outcome = Game_run.play ~on_slice spec in
  {
    outcome;
    setup = !first -. t0;
    loop_wall = !last_end -. !first;
    chunk_wall;
    slice_ms = !slice_ms;
    extra_wall = !extra_wall;
  }

let game_avmm o i = Net.node_avmm (Net.node o.Game_run.net i)

let game_exact o =
  let vs = game_duration_us /. 1e6 in
  let per_node f =
    let total = ref 0 in
    for i = 0 to game_players - 1 do
      total := !total + f (game_avmm o i)
    done;
    float !total /. float game_players /. vs
  in
  ( per_node (fun a -> Log.stored_bytes (Avmm.log a)),
    per_node Avmm.bytes_sent_on_wire )

let record_layers l ~slice_ms deltas =
  Hashtbl.replace l.samples "record.slice_ms" slice_ms;
  List.iter
    (fun (name, counter) -> set_value l name (get_counter deltas counter))
    [
      ("avmm.instructions", "avmm.instructions"); ("avmm.events_logged", "avmm.events_logged");
      ("rsa.signs", "crypto.rsa_signs"); ("sha256.bytes_record", "crypto.digest_bytes");
      ("log.segments_sealed", "log.segments_sealed"); ("log.bytes_sealed", "log.bytes_sealed");
      ("log.bytes_compressed", "log.bytes_compressed"); ("net.packets_sent", "net.packets_sent");
      ("net.bytes_sent", "net.bytes_sent"); ("net.retransmissions", "net.retransmissions");
    ];
  set_value l "sigcache.hit_rate_record" (hit_rate deltas)

let audit_layers l deltas ~replay_s =
  List.iter
    (fun (name, counter) -> set_value l name (get_counter deltas counter))
    [
      ("rsa.verifies", "crypto.rsa_verifies"); ("rsa.batched", "crypto.rsa_batched");
      ("sha256.bytes_audit", "crypto.digest_bytes");
      ("log.inflate_misses", "log.inflate_cache_misses");
      ("replay.instructions", "replay.instructions"); ("replay.entries_fed", "replay.entries_fed");
      ("spot_check.state_bytes", "spot_check.state_bytes");
      ("spot_check.replay_instructions", "spot_check.replay_instructions");
      ("online_audit.chunks_retired", "online_audit.chunks_retired");
      ("online_audit.backpressure_refusals", "online_audit.backpressure_refusals");
    ];
  set_value l "sigcache.hit_rate" (hit_rate deltas);
  set_value l "replay.mips" (ratio (get_counter deltas "replay.instructions") replay_s /. 1e6)

let span_ms name =
  List.filter_map
    (fun (s : Trace.span) -> if s.Trace.name = name then Some (s.Trace.dur_us /. 1e3) else None)
    (Trace.spans ())

(* --- Workload: game-batch ------------------------------------------------ *)

(* What `avm_audit --jobs 1` does for one node's upload, with the
   evidence handed to a third party on a FAULTY verdict. Returns the
   entry count, the auditor-path wall time and whether the verdict
   matches ground truth. *)
let audit_upload tr ~o ~node ~cheater =
  Sigcache.clear ();
  let image = Game_run.reference_image () in
  let r = timed tr "recording.extract_s" (fun () -> Recording.of_game_node o node) in
  let blob = timed tr "recording.encode_s" (fun () -> Recording.encode r) in
  let t0 = now () in
  let r = timed tr "recording.decode_s" (fun () -> Recording.decode blob) in
  let certs = r.Recording.certificates in
  let certs_ok =
    timed tr "recording.cert_check_s" (fun () ->
        List.for_all
          (fun (_, c) -> Identity.check_certificate r.Recording.ca_public c)
          certs)
  in
  let ctx =
    Audit.ctx ~node_cert:(List.assoc r.Recording.node certs) ~peer_certs:certs
      ~auths:r.Recording.auths ()
  in
  let log = timed tr "log.of_entries_s" (fun () -> Log.of_entries r.Recording.entries) in
  let outcome =
    timed tr "audit.full_of_log_s" (fun () ->
        Audit.full_of_log ~ctx ~image ~mem_words:r.Recording.mem_words
          ~peers:r.Recording.peers ~log ~par:(Audit.parallel 1) ())
  in
  Option.iter
    (fun l ->
      add_sum l "audit.syntactic_s" outcome.Audit.syntactic_seconds;
      add_sum l "audit.semantic_s" outcome.Audit.semantic_seconds)
    tr;
  let correct =
    match (outcome.Audit.verdict, outcome.Audit.evidence) with
    | Ok (), _ -> node <> cheater
    | Error _, None -> false
    | Error _, Some ev ->
      (* The third party starts cold too. *)
      Sigcache.clear ();
      let confirmed =
        timed tr "audit.evidence_check_s" (fun () ->
            Audit.check_evidence ev
              ~ctx:(Audit.ctx ~node_cert:(List.assoc ev.Evidence.accused certs) ~peer_certs:certs ())
              ~image ~mem_words:r.Recording.mem_words ~peers:r.Recording.peers ())
      in
      node = cheater && confirmed && ev.Evidence.accused = r.Recording.node
  in
  let wall = now () -. t0 in
  (List.length r.Recording.entries, wall, certs_ok && correct, outcome.Audit.verdict = Ok ())

let game_batch ~seed ~traced =
  let tr = if traced then Some (new_layers ()) else None in
  let spec = game_spec seed in
  let cheater = game_cheater seed in
  Gc.full_major ();
  Metrics.reset ();
  Sigcache.clear ();
  let c0 = read_counters () in
  let r = record_game spec in
  let o = r.outcome in
  let c1 = read_counters () in
  let log_bytes, wire_bytes = game_exact o in
  (* The audit phase: each node's upload audited from a cold signature
     cache and a collected heap, as a separate auditor process would. *)
  Gc.full_major ();
  Metrics.reset ();
  Trace.clear ();
  let c2 = read_counters () in
  let t_audit = now () in
  let entries = ref 0 and failed = ref 0 in
  let auditor_wall = Array.make game_players 0.0 and node_wall = Array.make game_players 0.0 in
  let verdicts = Buffer.create 16 in
  for node = 0 to game_players - 1 do
    let t_node = now () in
    let n, wall, ok, clean = audit_upload tr ~o ~node ~cheater in
    node_wall.(node) <- now () -. t_node;
    entries := !entries + n;
    auditor_wall.(node) <- wall;
    if not ok then incr failed;
    Buffer.add_string verdicts (if clean then "C" else "F")
  done;
  let audit_phase = now () -. t_audit in
  let c3 = read_counters () in
  Option.iter
    (fun l ->
      record_layers l ~slice_ms:r.slice_ms (add_delta (zero_counters ()) c0 c1);
      let ad = add_delta (zero_counters ()) c2 c3 in
      audit_layers l ad ~replay_s:(sum l "audit.semantic_s");
      Hashtbl.replace l.samples "audit.chunk_ms" (span_ms "audit.chunk");
      let timed_calls =
        List.fold_left (fun a n -> a +. sum l n) 0.0
          [
            "recording.extract_s"; "recording.encode_s"; "recording.decode_s";
            "recording.cert_check_s"; "log.of_entries_s"; "audit.full_of_log_s";
            "audit.evidence_check_s";
          ]
      in
      set_value l "attrib.record_unattributed_share"
        (ratio (r.loop_wall -. (List.fold_left ( +. ) 0.0 r.slice_ms /. 1e3)) r.loop_wall);
      set_value l "attrib.audit_unattributed_share" (ratio (audit_phase -. timed_calls) audit_phase);
      set_value l "attrib.full_of_log_unattributed_share"
        (ratio
           (sum l "audit.full_of_log_s" -. sum l "audit.syntactic_s" -. sum l "audit.semantic_s")
           (sum l "audit.full_of_log_s")))
    tr;
  {
    setup_s = r.setup;
    record_vs = (game_duration_us -. game_slice_us) /. 1e6;
    record_parts = r.chunk_wall;
    log_bytes;
    wire_bytes;
    audit_entries = !entries;
    audit_parts = auditor_wall;
    node_epochs = game_players;
    pipeline_parts = Array.append r.chunk_wall node_wall;
    attempted = game_players;
    failed = !failed;
    fingerprint =
      Printf.sprintf "%s/%d/%.17g/%.17g" (Buffer.contents verdicts) !entries log_bytes wire_bytes;
    layers = tr;
  }

(* --- Workload: game-online ----------------------------------------------- *)

let game_online ~seed ~traced =
  let tr = if traced then Some (new_layers ()) else None in
  let spec = game_spec seed in
  let cheater = game_cheater seed in
  let image = Game_run.reference_image () in
  Gc.full_major ();
  Metrics.reset ();
  Sigcache.clear ();
  Trace.clear ();
  let vnow = ref 0.0 in
  let verdict_at = Hashtbl.create 4 in
  let on_verdict (ev : Daemon.event) = Hashtbl.replace verdict_at ev.Daemon.ev_session (ev, !vnow) in
  (* Three different logs: the shared cache can never hit. A session
     that keeps pace starts replaying a chunk before it closes, so most
     chunks are never even looked up. *)
  let cache = Replay_cache.create ~seed:cache_key () in
  let d = Daemon.create ~cache ~on_verdict () in
  let names = Array.init game_players (fun i -> Printf.sprintf "player%d" i) in
  let daemon_wall = ref 0.0 in
  let audit_deltas = ref (zero_counters ()) in
  (* Every daemon call is timed: the sum is the online auditor's wall
     time. [name] files the call under [name_s] and, per call, [name_ms]. *)
  let call name f =
    let before = if traced then local_counters () else [] in
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    daemon_wall := !daemon_wall +. dt;
    Option.iter
      (fun l ->
        add_sum l (name ^ "_s") dt;
        add_sample l (name ^ "_ms") (dt *. 1e3);
        audit_deltas := add_delta !audit_deltas before (local_counters ()))
      tr;
    r
  in
  let attached = ref false in
  let ingested = Array.make game_players [] in
  let last_icount = Array.make game_players 0 in
  let budget = ref 0 in
  let lag_samples = ref [] in
  let sample_lags () =
    Array.iter
      (fun id -> lag_samples := float (Daemon.session_status d ~id).Online_audit.lag_entries :: !lag_samples)
      names
  in
  let ingest_all net =
    Array.iteri
      (fun i id ->
        let avmm = Net.node_avmm (Net.node net i) in
        ignore (call "daemon.ingest" (fun () -> Daemon.ingest d ~id (Avmm.log avmm)));
        ingested.(i) <- (!vnow, (Daemon.session_status d ~id).Online_audit.ingested_entries) :: ingested.(i))
      names
  in
  let daemon_chunk = Array.make game_chunks 0.0 in
  let extra net t =
    let d0 = !daemon_wall in
    vnow := t /. 1e6;
    if not !attached then begin
      attached := true;
      let certs = Net.certificates net in
      Array.iteri
        (fun i id ->
          let avmm = Net.node_avmm (Net.node net i) in
          call "daemon.attach" (fun () ->
              Daemon.attach d ~id ~ctx:(Audit.ctx ~node_cert:(List.assoc id certs) ~peer_certs:certs ())
                ~image ~mem_words:Guests.mem_words
                ~snapshot_of:(fun () -> Avmm.snapshots avmm)
                ~peers:(Net.peers net) ()))
        names
    end;
    (* The auditor is another machine: it never sees the producer's
       verified signatures. *)
    Sigcache.clear ();
    ingest_all net;
    (* Budget: the slice's instructions (the session applies the
       default replay_rate on top). *)
    budget := 0;
    for i = 0 to game_players - 1 do
      let ic = Avm_machine.Machine.icount (Avmm.machine (Net.node_avmm (Net.node net i))) in
      budget := max !budget (ic - last_icount.(i));
      last_icount.(i) <- ic
    done;
    ignore (call "daemon.pump" (fun () -> Daemon.pump d ~budget_instructions:(max 1 !budget) ()) : int);
    sample_lags ();
    let j = chunk_of t in
    daemon_chunk.(j) <- daemon_chunk.(j) +. (!daemon_wall -. d0)
  in
  let c0 = read_counters () in
  let r = record_game ~extra spec in
  let o = r.outcome in
  (* Drain what the auditor still lags, then close every session. *)
  let t_drain = now () and d_drain = !daemon_wall in
  let caught_up () =
    Array.for_all
      (fun id ->
        let st = Daemon.session_status d ~id in
        st.Online_audit.verdict <> None || st.Online_audit.lag_entries = 0)
      names
  in
  let rounds = ref 0 in
  while (not (caught_up ())) && !rounds < 100_000 do
    incr rounds;
    Sigcache.clear ();
    ingest_all o.Game_run.net;
    ignore (call "daemon.pump" (fun () -> Daemon.pump d ~budget_instructions:(max 1 !budget) ()) : int);
    sample_lags ()
  done;
  let entries =
    Array.fold_left (fun a id -> a + (Daemon.session_status d ~id).Online_audit.ingested_entries) 0 names
  in
  Array.iter (fun id -> ignore (call "daemon.detach" (fun () -> Daemon.detach d ~id))) names;
  let tail = now () -. t_drain and tail_daemon = !daemon_wall -. d_drain in
  let c1 = read_counters () in
  let log_bytes, wire_bytes = game_exact o in
  let failed = ref 0 and verdicts = Buffer.create 16 in
  let latency = ref 0.0 and detect_lag = ref 0 in
  Array.iteri
    (fun i id ->
      match Hashtbl.find_opt verdict_at id with
      | None ->
        Buffer.add_char verdicts 'C';
        if i = cheater then incr failed
      | Some (ev, vt) ->
        Buffer.add_char verdicts 'F';
        (match ev.Daemon.ev_verdict with
        | Online_audit.Diverged _ when i = cheater -> ()
        | _ -> incr failed);
        (* Virtual time from ingesting the offending entry to the verdict. *)
        let seq = Option.value ~default:max_int ev.Daemon.ev_entry_seq in
        detect_lag := ev.Daemon.ev_lag_entries;
        List.iter (fun (t, n) -> if n >= seq then latency := vt -. t) ingested.(i))
    names;
  Option.iter
    (fun l ->
      let total = add_delta (zero_counters ()) c0 c1 in
      let record_side = List.map2 ( -. ) total !audit_deltas in
      record_layers l ~slice_ms:r.slice_ms record_side;
      audit_layers l !audit_deltas ~replay_s:(sum l "daemon.pump_s");
      let st = Replay_cache.stats cache in
      set_value l "replay_cache.hits" (float st.Replay_cache.hits);
      set_value l "replay_cache.misses" (float st.Replay_cache.misses);
      set_value l "replay_cache.hit_rate"
        (ratio (float st.Replay_cache.hits) (float (st.Replay_cache.hits + st.Replay_cache.misses)));
      set_value l "replay_cache.spot_checks" (float st.Replay_cache.spot_checks);
      set_value l "replay_cache.instructions_saved" (float st.Replay_cache.instructions_saved);
      set_value l "online_audit.lag_p99_entries" (percentile 0.99 !lag_samples);
      set_value l "online_audit.detect_latency_vs" !latency;
      set_value l "online_audit.detect_lag_entries" (float !detect_lag);
      let pure_record = List.fold_left ( +. ) 0.0 r.slice_ms /. 1e3 in
      set_value l "attrib.record_unattributed_share"
        (ratio (r.loop_wall -. pure_record -. r.extra_wall) r.loop_wall);
      let daemon_calls =
        List.fold_left (fun a n -> a +. sum l n) 0.0
          [ "daemon.attach_s"; "daemon.ingest_s"; "daemon.pump_s"; "daemon.detach_s" ]
      in
      set_value l "attrib.audit_unattributed_share"
        (ratio (r.extra_wall +. tail -. daemon_calls) (r.extra_wall +. tail)))
    tr;
  {
    setup_s = r.setup;
    record_vs = (game_duration_us -. game_slice_us) /. 1e6;
    (* The producer waits for ingest and pump: online work pushed back
       onto it shows here. *)
    record_parts = r.chunk_wall;
    log_bytes;
    wire_bytes;
    audit_entries = entries;
    audit_parts = Array.append daemon_chunk [| tail_daemon |];
    node_epochs = game_players;
    pipeline_parts = Array.append r.chunk_wall [| tail |];
    attempted = game_players;
    failed = !failed;
    fingerprint =
      Printf.sprintf "%s/%d/%.17g/%.17g/%.17g/%.17g" (Buffer.contents verdicts) entries log_bytes
        wire_bytes !latency (percentile 0.99 !lag_samples);
    layers = tr;
  }

(* --- Workload: fleet-witness --------------------------------------------- *)

type cheat = { c_node : int; c_epoch : int; c_slot : int; c_value : int }

(* Seeded cheaters: each pokes a kv slot the workload never writes
   (ops use 0..250), once, mid-epoch — invisible in the guest's own
   outputs, so only a witness replay can surface it. *)
let pick_cheats rng =
  let count = max 1 (int_of_float ((fleet_cheat_frac *. float fleet_nodes) +. 0.5)) in
  let chosen = Hashtbl.create 16 in
  let out = ref [] in
  while Hashtbl.length chosen < count do
    let node = Rng.int_in rng 0 (fleet_nodes - 1) in
    if not (Hashtbl.mem chosen node) then begin
      Hashtbl.add chosen node ();
      let c_epoch = Rng.int_in rng 1 fleet_epochs in
      let c_slot = Rng.int_in rng 251 255 in
      let c_value = 1 + Rng.int_in rng 0 65534 in
      out := { c_node = node; c_epoch; c_slot; c_value } :: !out
    end
  done;
  !out

(* Certificates a target's log needs: whoever reports to it (it is
   their primary witness) plus its own witnesses. *)
let cert_slices net (asg : Witness.assignment) =
  let senders = Array.make asg.Witness.nodes [] in
  Array.iteri (fun j set -> senders.(set.(0)) <- j :: senders.(set.(0))) asg.Witness.sets;
  let entry i =
    (Net.node_name (Net.node net i), Identity.certificate (Avmm.identity (Net.node_avmm (Net.node net i))))
  in
  Array.init asg.Witness.nodes (fun t ->
      List.sort_uniq compare (senders.(t) @ Array.to_list asg.Witness.sets.(t)) |> List.map entry)

let fleet_witness ~pool ~seed ~traced =
  let tr = if traced then Some (new_layers ()) else None in
  let lanes = Pool.jobs pool in
  Gc.full_major ();
  Metrics.reset ();
  (* Set-up: assignment, keys and certificates, the fleet, baseline
     snapshots. *)
  let t_setup = now () in
  let asg = Witness.assign ~seed ~nodes:fleet_nodes ~k:fleet_k in
  let topology = Topology.of_adjacency asg.Witness.sets in
  let config = Config.make ~snapshot_every_us:None Config.Avmm_rsa768 in
  let image = (Guests.fleet_image ()).Avm_isa.Asm.words in
  let names = List.init fleet_nodes (fun i -> Printf.sprintf "n%d" i) in
  let t_create = now () in
  let net =
    Net.create ~seed ~faults:(fleet_faults ()) ~rsa_bits:512 ~key_pool:32
      ~mem_words:Guests.fleet_mem_words ~log_backend:Avm_tamperlog.Segment_store.Memory ~topology
      ~config ~images:(List.init fleet_nodes (fun _ -> image)) ~names ()
  in
  let create_s = now () -. t_create in
  let rng = Rng.create (Int64.logxor seed 0x666C656574L) in
  let cheats = pick_cheats rng in
  let vals_addr = Guests.fleet_symbol "g_vals" in
  let certs = cert_slices net asg in
  let avmm_of i = Net.node_avmm (Net.node net i) in
  Array.iter (fun n -> ignore (Avmm.take_snapshot (Net.node_avmm n))) (Net.nodes net);
  let stores = Array.init fleet_nodes (fun _ -> Witness.equiv_store ()) in
  let cert_of i = Identity.certificate (Avmm.identity (avmm_of i)) in
  let cache = Replay_cache.create ~seed:cache_key () in
  let setup_s = now () -. t_setup in
  (* Measured epochs, from cold caches on every lane. *)
  Gc.full_major ();
  cold_lanes pool;
  Metrics.reset ();
  Trace.clear ();
  let par = Audit.parallel ~pool lanes in
  let sim_part = Array.make fleet_epochs 0.0 and audit_part = Array.make fleet_epochs 0.0 in
  let loop_part = Array.make fleet_epochs 0.0 in
  let sim_wall = ref 0.0 and audit_wall = ref 0.0 and prep_wall = ref 0.0 and ex_wall = ref 0.0 in
  let sim_deltas = ref (zero_counters ()) and audit_deltas = ref (zero_counters ()) in
  let ex_deltas = ref (zero_counters ()) in
  let events0 = Sim.processed (Net.sim net) in
  let audit_entries = ref 0 and failed = ref 0 and jobs_run = ref 0 in
  let last_len = Array.init fleet_nodes (fun i -> Log.length (Avmm.log (avmm_of i))) in
  let epoch_entries = Array.make fleet_nodes 0 in
  let verdict_sig = Buffer.create 1024 in
  let syn_ms = ref [] and sem_ms = ref [] and job_s = ref 0.0 and sem_s = ref 0.0 in
  let snap () = if traced then read_counters () else [] in
  let acc r before = if traced then r := add_delta !r before (read_counters ()) in
  for epoch = 1 to fleet_epochs do
    let epoch_start = float (epoch - 1) *. fleet_epoch_us in
    let c0 = snap () in
    let t0 = now () in
    (* Exactly [fleet_activity] of the nodes get two kv writes each,
       so every seed asks the fleet for the same amount of work. *)
    let order = Array.init fleet_nodes Fun.id in
    Rng.shuffle rng order;
    for r = 0 to fleet_active - 1 do
      for _ = 1 to 2 do
        let slot = Rng.int_in rng 0 250 in
        let value = Rng.int_in rng 0 65535 in
        Net.queue_input net order.(r) (Guests.fleet_input_op ~slot ~value)
      done
    done;
    timed tr "net.run_s" (fun () -> Net.run net ~until_us:(epoch_start +. (fleet_epoch_us /. 2.0)) ());
    List.iter
      (fun c ->
        if c.c_epoch = epoch then Avmm.poke (avmm_of c.c_node) ~addr:(vals_addr + c.c_slot) ~value:c.c_value)
      cheats;
    timed tr "net.run_s" (fun () -> Net.run net ~until_us:(float epoch *. fleet_epoch_us) ());
    timed tr "avmm.snapshot_s" (fun () ->
        Array.iter (fun n -> ignore (Avmm.take_snapshot (Net.node_avmm n))) (Net.nodes net));
    sim_part.(epoch - 1) <- now () -. t0;
    sim_wall := !sim_wall +. sim_part.(epoch - 1);
    acc sim_deltas c0;
    for i = 0 to fleet_nodes - 1 do
      let len = Log.length (Avmm.log (avmm_of i)) in
      epoch_entries.(i) <- len - last_len.(i);
      last_len.(i) <- len
    done;
    (* Views and authenticator lists are built before the pool starts,
       so worker domains share nothing mutable. *)
    let t1 = now () in
    let views =
      Array.init fleet_nodes (fun t ->
          let avmm = avmm_of t in
          {
            Witness.log = Avmm.log avmm;
            snapshots = Avmm.snapshots avmm;
            image;
            mem_words = Guests.fleet_mem_words;
            peers = Net.peers_of net t;
            node_cert = cert_of t;
            peer_certs = certs.(t);
          })
    in
    let auth_tbl = Hashtbl.create (fleet_nodes * fleet_k) in
    Array.iteri
      (fun t set ->
        let tname = Net.node_name (Net.node net t) in
        Array.iter
          (fun w ->
            Hashtbl.replace auth_tbl (t, w) (Multiparty.auths_for (Net.node_ledger (Net.node net w)) tname))
          set)
      asg.Witness.sets;
    let collected ~target ~witness = Option.value ~default:[] (Hashtbl.find_opt auth_tbl (target, witness)) in
    let jobs = Witness.epoch_jobs asg ~epoch in
    let njobs = List.length jobs in
    let job_index = Hashtbl.create njobs in
    List.iteri (fun i (j : Witness.job) -> Hashtbl.replace job_index (j.Witness.target, j.Witness.witness) i) jobs;
    let job_times = Array.make njobs 0.0 in
    let f (job : Witness.job) =
      let auths = collected ~target:job.Witness.target ~witness:job.Witness.witness in
      if traced then begin
        let t = now () in
        let v = Witness.audit_job ~cache ~view:views.(job.Witness.target) ~auths job in
        job_times.(Hashtbl.find job_index (job.Witness.target, job.Witness.witness)) <- now () -. t;
        v
      end
      else Witness.audit_job ~cache ~view:views.(job.Witness.target) ~auths job
    in
    prep_wall := !prep_wall +. (now () -. t1);
    let c1 = snap () in
    let t2 = now () in
    let vs = Witness.run_sharded ~par ~shards:fleet_shards ~f jobs in
    audit_part.(epoch - 1) <- now () -. t2;
    audit_wall := !audit_wall +. audit_part.(epoch - 1);
    acc audit_deltas c1;
    jobs_run := !jobs_run + njobs;
    List.iteri
      (fun i (j : Witness.job) ->
        audit_entries := !audit_entries + epoch_entries.(j.Witness.target);
        if traced then begin
          job_s := !job_s +. job_times.(i);
          let ms = job_times.(i) *. 1e3 in
          match j.Witness.mode with
          | Witness.Syntactic -> syn_ms := ms :: !syn_ms
          | Witness.Semantic ->
            sem_s := !sem_s +. job_times.(i);
            sem_ms := ms :: !sem_ms
        end)
      jobs;
    let c2 = snap () in
    let t3 = now () in
    let ex = Witness.exchange asg ~stores ~collected ~cert_of in
    ex_wall := !ex_wall +. (now () -. t3);
    loop_part.(epoch - 1) <- now () -. t0;
    acc ex_deltas c2;
    (* Ground truth per node-epoch: flagged iff poked this epoch. *)
    let flagged = Array.make fleet_nodes false in
    List.iter
      (fun (v : Witness.verdict) ->
        Buffer.add_char verdict_sig (if v.Witness.ok then '.' else 'x');
        if not v.Witness.ok then flagged.(v.Witness.job.Witness.target) <- true)
      vs;
    let poked = Array.make fleet_nodes false in
    List.iter (fun c -> if c.c_epoch = epoch then poked.(c.c_node) <- true) cheats;
    Array.iteri (fun i f -> if f <> poked.(i) then incr failed) flagged;
    (* No honest fork exists, so any equivocation proof is a false accusation. *)
    failed := !failed + List.length ex.Witness.ex_proofs
  done;
  let vs_total = float fleet_epochs *. fleet_epoch_us /. 1e6 in
  let per_node f =
    let t = ref 0 in
    for i = 0 to fleet_nodes - 1 do
      t := !t + f (avmm_of i)
    done;
    float !t /. float fleet_nodes /. vs_total
  in
  let log_bytes = per_node (fun a -> Log.stored_bytes (Avmm.log a)) in
  let wire_bytes = per_node Avmm.bytes_sent_on_wire in
  Option.iter
    (fun l ->
      record_layers l ~slice_ms:[] !sim_deltas;
      audit_layers l !audit_deltas ~replay_s:!sem_s;
      set_value l "sigcache.hit_rate_exchange" (hit_rate !ex_deltas);
      set_value l "witness.equiv.messages" (get_counter !ex_deltas "witness.equiv.messages");
      set_value l "witness.equiv.auths_exchanged" (get_counter !ex_deltas "witness.equiv.auths_exchanged");
      set_value l "net.create_s" create_s;
      set_value l "net.sim_events" (float (Sim.processed (Net.sim net) - events0));
      add_sum l "witness.run_sharded_s" !audit_wall;
      add_sum l "witness.prepare_s" !prep_wall;
      add_sum l "witness.exchange_s" !ex_wall;
      set_value l "witness.jobs_per_s" (ratio (float !jobs_run) !audit_wall);
      Hashtbl.replace l.samples "witness.syntactic_job_ms" !syn_ms;
      Hashtbl.replace l.samples "witness.semantic_job_ms" !sem_ms;
      set_value l "domain_pool.busy_share" (ratio !job_s (float lanes *. !audit_wall));
      let snap = Metrics.snapshot () in
      let shard_s =
        List.filter_map
          (fun (name, (h : Metrics.histogram)) ->
            if String.length name > 13 && String.sub name 0 13 = "witness.shard"
               && Filename.extension name = ".seconds"
            then Some h.Metrics.total
            else None)
          snap.Metrics.histograms
      in
      let mean = ratio (List.fold_left ( +. ) 0.0 shard_s) (float (List.length shard_s)) in
      set_value l "domain_pool.imbalance" (ratio (List.fold_left max 0.0 shard_s) mean);
      let st = Replay_cache.stats cache in
      set_value l "replay_cache.hits" (float st.Replay_cache.hits);
      set_value l "replay_cache.misses" (float st.Replay_cache.misses);
      set_value l "replay_cache.hit_rate"
        (ratio (float st.Replay_cache.hits) (float (st.Replay_cache.hits + st.Replay_cache.misses)));
      set_value l "replay_cache.spot_checks" (float st.Replay_cache.spot_checks);
      set_value l "replay_cache.instructions_saved" (float st.Replay_cache.instructions_saved);
      set_value l "attrib.record_unattributed_share"
        (ratio (!sim_wall -. sum l "net.run_s" -. sum l "avmm.snapshot_s") !sim_wall);
      set_value l "attrib.audit_unattributed_share"
        (ratio (!audit_wall -. (!job_s /. float lanes)) !audit_wall))
    tr;
  {
    setup_s;
    record_vs = vs_total;
    record_parts = sim_part;
    log_bytes;
    wire_bytes;
    audit_entries = !audit_entries;
    audit_parts = audit_part;
    node_epochs = fleet_nodes * fleet_epochs;
    pipeline_parts = loop_part;
    attempted = fleet_nodes * fleet_epochs;
    failed = !failed;
    fingerprint =
      Printf.sprintf "%s/%d/%.17g/%.17g" (Digest.to_hex (Digest.string (Buffer.contents verdict_sig)))
        !audit_entries log_bytes wire_bytes;
    layers = tr;
  }

(* --- Result --------------------------------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let per_layer_units =
  [
    ("record.slice_ms_p50", "ms"); ("record.slice_ms_p99", "ms");
    ("avmm.instructions", "count"); ("avmm.events_logged", "count"); ("rsa.signs", "count");
    ("sha256.bytes_record", "B"); ("sigcache.hit_rate_record", "ratio");
    ("log.segments_sealed", "count"); ("log.bytes_sealed", "B"); ("log.bytes_compressed", "B");
    ("net.packets_sent", "count"); ("net.bytes_sent", "B"); ("net.retransmissions", "count");
    ("recording.extract_s", "s"); ("recording.encode_s", "s"); ("recording.decode_s", "s");
    ("recording.cert_check_s", "s"); ("log.of_entries_s", "s"); ("audit.full_of_log_s", "s");
    ("audit.syntactic_s", "s"); ("audit.semantic_s", "s"); ("audit.chunk_ms_p50", "ms");
    ("audit.chunk_ms_p99", "ms"); ("audit.evidence_check_s", "s"); ("rsa.verifies", "count");
    ("rsa.batched", "count"); ("sigcache.hit_rate", "ratio"); ("sha256.bytes_audit", "B");
    ("log.inflate_misses", "count"); ("replay.instructions", "count");
    ("replay.entries_fed", "count"); ("replay.mips", "MIPS"); ("net.run_s", "s");
    ("net.sim_events", "count"); ("net.create_s", "s"); ("avmm.snapshot_s", "s");
    ("witness.prepare_s", "s"); ("witness.run_sharded_s", "s"); ("witness.jobs_per_s", "1/s");
    ("witness.syntactic_job_ms_p50", "ms"); ("witness.syntactic_job_ms_p99", "ms");
    ("witness.semantic_job_ms_p50", "ms"); ("witness.semantic_job_ms_p99", "ms");
    ("domain_pool.busy_share", "ratio"); ("domain_pool.imbalance", "ratio");
    ("replay_cache.hits", "count"); ("replay_cache.misses", "count");
    ("replay_cache.hit_rate", "ratio"); ("replay_cache.spot_checks", "count");
    ("replay_cache.instructions_saved", "count"); ("spot_check.state_bytes", "B");
    ("spot_check.replay_instructions", "count"); ("witness.exchange_s", "s");
    ("sigcache.hit_rate_exchange", "ratio"); ("witness.equiv.messages", "count");
    ("witness.equiv.auths_exchanged", "count"); ("daemon.attach_s", "s");
    ("daemon.ingest_s", "s"); ("daemon.ingest_ms_p99", "ms"); ("daemon.pump_s", "s");
    ("daemon.pump_ms_p99", "ms"); ("daemon.detach_s", "s");
    ("online_audit.chunks_retired", "count"); ("online_audit.backpressure_refusals", "count");
    ("online_audit.lag_p99_entries", "entries"); ("online_audit.detect_latency_vs", "s");
    ("online_audit.detect_lag_entries", "entries");
    ("attrib.record_unattributed_share", "ratio"); ("attrib.audit_unattributed_share", "ratio");
    ("attrib.full_of_log_unattributed_share", "ratio"); ("trace.overhead_share", "ratio");
    ("host.nproc", "count"); ("host.recommended_domains", "count"); ("host.lanes", "count");
  ]

(* One traced iteration's value for a per-layer name: a named value, a
   summed call time, or a percentile of the samples of its base name;
   0 for a layer the workload does not exercise. *)
let layer_value l name =
  let pct suffix p =
    let base = String.sub name 0 (String.length name - String.length suffix) in
    percentile p (samples l base)
  in
  match (Hashtbl.find_opt l.values name, Hashtbl.find_opt l.sums name) with
  | Some v, _ | None, Some v -> v
  | None, None ->
    if String.ends_with ~suffix:"_p50" name then pct "_p50" 0.50
    else if String.ends_with ~suffix:"_p99" name then pct "_p99" 0.99
    else 0.0

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " body)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let commit = ref "unknown" and source_digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  game-batch | fleet-witness | game-online");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measurement window");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--nproc", Arg.Set_int nproc, "N  host CPU count (fleet-witness pool lanes)");
      ("--commit", Arg.Set_string commit, "ID  source revision, recorded with the result");
      ("--source-digest", Arg.Set_string source_digest, "HEX  digest of the built sources");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "avmbench --workload NAME --seed N --seconds S --trace 0|1";
  let seed64 = Int64.of_int !seed in
  let pool = ref None in
  let lanes = ref 1 in
  let iterate =
    match !workload with
    | "game-batch" -> fun ~traced -> game_batch ~seed:seed64 ~traced
    | "game-online" -> fun ~traced -> game_online ~seed:seed64 ~traced
    | "fleet-witness" ->
      lanes := max 1 !nproc;
      let p = Pool.create ~jobs:!lanes () in
      pool := Some p;
      fun ~traced -> fleet_witness ~pool:p ~seed:seed64 ~traced
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  let traced_mode = !trace = 1 in
  (* Untraced and traced iterations alternate in a traced run, so both
     see the same drift of the host. *)
  let min_iters = if traced_mode then 5 else 4 in
  let t_start = now () in
  let iters = ref [] in
  let n = ref 0 in
  (* Peak major heap of the first iteration alone, so it does not depend
     on how many iterations the window holds. *)
  let peak_heap_mb = ref 0.0 in
  while (!n < min_iters || now () -. t_start < !seconds) && !n < 200 do
    let traced = traced_mode && !n mod 2 = 0 && !n > 0 in
    let it = iterate ~traced in
    Printf.eprintf
      "%s iter %d%s: setup %.3fs record %.3fx audit %.0f entries/s pipeline %.3f node-epochs/s failed %d\n%!"
      !workload !n (if traced then " (traced)" else "") it.setup_s (record_speed [ it ])
      (audit_rate [ it ]) (pipeline_rate [ it ]) it.failed;
    if !n = 0 then
      peak_heap_mb :=
        float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.0;
    iters := it :: !iters;
    incr n
  done;
  Option.iter Pool.shutdown !pool;
  let iters = List.rev !iters in
  let first = List.hd iters in
  (* Same seed, same inputs: every iteration must reach the same
     verdicts and the same exact counts. *)
  let failed =
    List.fold_left
      (fun a it -> a + if it.fingerprint = first.fingerprint then it.failed else it.attempted)
      0 iters
  in
  let attempted = List.fold_left (fun a it -> a + it.attempted) 0 iters in
  (* The first iteration pays the process's warm-up (heap growth, first
     touch of memory, guest compilation): it counts for correctness and
     set-up time, not for the rates. *)
  let warm = List.tl iters in
  let untraced = List.filter (fun it -> it.layers = None) warm in
  let traced = List.filter_map (fun it -> it.layers) iters in
  let med f l = median (List.map f l) in
  let metrics =
    if not traced_mode then
      [
        { name = "setup_s"; unit = "s"; value = med (fun it -> it.setup_s) iters };
        { name = "peak_heap_mb"; unit = "MB"; value = !peak_heap_mb };
        { name = "record_speed_x"; unit = "x"; value = record_speed untraced };
        { name = "log_bytes_per_node_s"; unit = "B/s"; value = first.log_bytes };
        { name = "wire_bytes_per_node_s"; unit = "B/s"; value = first.wire_bytes };
        { name = "audit_entries_per_s"; unit = "1/s"; value = audit_rate untraced };
        { name = "node_epochs_per_s"; unit = "1/s"; value = pipeline_rate untraced };
      ]
    else
      let traced_iters = List.filter (fun it -> it.layers <> None) iters in
      let overhead = 1.0 -. ratio (pipeline_rate traced_iters) (pipeline_rate untraced) in
      List.map
        (fun (name, unit) ->
          let value =
            match name with
            | "trace.overhead_share" -> overhead
            | "host.nproc" -> float !nproc
            | "host.recommended_domains" -> float (Domain.recommended_domain_count ())
            | "host.lanes" -> float !lanes
            | _ -> median (List.map (fun l -> layer_value l name) traced)
          in
          { name; unit; value })
        per_layer_units
  in
  Printf.printf
    "{\"host\": {\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"recommended_domain_count\": %d, \
     \"lanes\": %d, \"ocaml\": %S, \"commit\": %S, \"source_digest\": %S, \"iterations\": %d, \
     \"traced_iterations\": %d}}\n"
    !workload !seed !nproc (Domain.recommended_domain_count ()) !lanes Sys.ocaml_version !commit
    !source_digest (List.length iters) (List.length traced);
  let correct = failed = 0 in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
