open Avm_core
module Net = Avm_netsim.Net
module Topology = Avm_netsim.Topology
module Faults = Avm_netsim.Faults
module Sim = Avm_netsim.Sim
module Rng = Avm_util.Rng
module Stats = Avm_util.Stats
module Identity = Avm_crypto.Identity
module Metrics = Avm_obs.Metrics
module Daemon = Avm_service.Daemon
module Log = Avm_tamperlog.Log
module Entry = Avm_tamperlog.Entry
module Auth = Avm_tamperlog.Auth

type adversary = Poke | Rewrite | Fork
type audit = Witness_jobs | Daemon_sessions | Witness_exchange
type twin = Jobs_4 | Cache_off
type size = { nodes : int; epochs : int; key_pool : int; faults : Faults.t option }

type spec = {
  name : string;
  seed : int64;
  epoch_us : float;
  activity : float;
  cheat_frac : float;
  mix : (adversary * float) list;
  audit : audit;
  twin : twin;
  smoke : size;
  full : size;
}

type cheat = { node : int; epoch : int; adversary : adversary; slot : int; value : int }

type outcome = {
  spec : spec;
  size : size;
  cheats : cheat list;
  flags : (int * int) list;
  failed : (int * int) list;
  coverage : float list;
  failures : int list;
  verdicts : Witness.verdict list;
  events : Daemon.event list;
  proofs : Evidence.t list;
  proofs_verified : int;
  undrained : int list;
  lags : int list;
  latencies_us : float list;
  counts : (string * int) list;
  cache : Replay_cache.stats option;
  twin_signature : string option;
}

let witnesses = 3
let shards = 8
let spot_rate = 8
let max_lag = 4096
let budget = 5_000_000
let drain_limit = 1000

(* --- the scenarios -------------------------------------------------------- *)

let lossy = Some (Faults.make ~drop:0.02 ~reorder:0.05 ~jitter_us:2_000.0 ())

let fleet =
  {
    name = "fleet";
    seed = 7L;
    epoch_us = 1_000_000.0;
    activity = 0.10;
    cheat_frac = 0.02;
    mix = [ (Poke, 1.0) ];
    audit = Witness_jobs;
    twin = Jobs_4;
    smoke = { nodes = 200; epochs = 3; key_pool = 32; faults = lossy };
    (* Retransmission backoff has to carry the reports through two
       fail-stop crash windows that heal before epoch 1 ends. *)
    full =
      {
        nodes = 10_000;
        epochs = 3;
        key_pool = 64;
        faults =
          Some
            (Faults.make ~drop:0.02 ~reorder:0.05 ~jitter_us:2_000.0
               ~crashes:
                 [
                   { Faults.from_us = 250_000.0; to_us = 550_000.0; node = 10_000 / 7 };
                   { Faults.from_us = 300_000.0; to_us = 600_000.0; node = 10_000 / 3 };
                 ]
               ());
      };
  }

(* Dedup is the fleet scenario (same name, so the same driver stream). *)
let dedup =
  {
    fleet with
    seed = 11L;
    activity = 0.05;
    twin = Cache_off;
    smoke = { fleet.smoke with nodes = 300 };
    full = { fleet.smoke with nodes = 2_000 };
  }

let service =
  {
    name = "service";
    seed = 11L;
    epoch_us = 1_000_000.0;
    activity = 0.10;
    cheat_frac = 0.05;
    mix = [ (Rewrite, 0.4); (Poke, 0.6) ];
    audit = Daemon_sessions;
    twin = Jobs_4;
    smoke = { nodes = 50; epochs = 3; key_pool = 32; faults = None };
    full = { nodes = 200; epochs = 3; key_pool = 32; faults = None };
  }

let equiv =
  {
    name = "equiv";
    seed = 11L;
    epoch_us = 400_000.0;
    activity = 0.15;
    cheat_frac = 0.05;
    mix = [ (Fork, 1.0) ];
    audit = Witness_exchange;
    twin = Jobs_4;
    smoke = { nodes = 60; epochs = 3; key_pool = 32; faults = None };
    full = { nodes = 200; epochs = 4; key_pool = 32; faults = None };
  }

let scenarios = [ ("fleet", fleet); ("dedup", dedup); ("service", service); ("equiv", equiv) ]

(* --- the adversary picker ------------------------------------------------- *)

(* The name's ASCII, so "fleet" salts with 0x666C6565745F ("fleet_"). *)
let driver_rng spec =
  let salt =
    String.fold_left
      (fun acc c -> Int64.(logor (shift_left acc 8) (of_int (Char.code c))))
      0L (spec.name ^ "_")
  in
  Rng.create (Int64.logxor spec.seed salt)

let pick_cheats rng spec size =
  let nodes = size.nodes in
  let count =
    if spec.cheat_frac <= 0.0 then 0
    else max 1 (int_of_float ((spec.cheat_frac *. float_of_int nodes) +. 0.5))
  in
  let rec choose u acc = function
    | [ (a, _) ] -> a
    | (a, share) :: rest -> if u < acc +. share then a else choose u (acc +. share) rest
    | [] -> invalid_arg "Fleet_harness: empty adversary mix"
  in
  let chosen = Hashtbl.create (max 16 count) in
  let out = ref [] in
  while Hashtbl.length chosen < min count nodes do
    let node = Rng.int_in rng 0 (nodes - 1) in
    if not (Hashtbl.mem chosen node) then begin
      Hashtbl.add chosen node ();
      let epoch = Rng.int_in rng 1 size.epochs in
      let adversary =
        match spec.mix with [ (a, _) ] -> a | mix -> choose (Rng.float rng 1.0) 0.0 mix
      in
      (* A kv slot the workload never writes (ops use 0..250), with a
         nonzero value: invisible to the guest's own outputs. *)
      let slot, value =
        if adversary = Poke then
          let slot = Rng.int_in rng 251 255 in
          (slot, 1 + Rng.int_in rng 0 65534)
        else (0, 0)
      in
      out := { node; epoch; adversary; slot; value } :: !out
    end
  done;
  List.sort (fun a b -> compare a.node b.node) !out

(* --- the run -------------------------------------------------------------- *)

(* Who sends envelopes into each node's log: reporters whose primary
   witness it is, plus its own witnesses (their acks carry signatures
   the syntactic pass verifies). Keeping peer_certs this small is what
   lets a 10k-node audit avoid a 10k-entry cert list per job. *)
let cert_slices (asg : Witness.assignment) ~name_of ~cert_of =
  let senders = Array.make asg.nodes [] in
  Array.iteri (fun j set -> senders.(set.(0)) <- j :: senders.(set.(0))) asg.sets;
  Array.init asg.nodes (fun t ->
      let seen = Hashtbl.create 8 in
      let add acc i =
        if Hashtbl.mem seen i then acc
        else begin
          Hashtbl.add seen i ();
          (name_of i, cert_of i) :: acc
        end
      in
      Array.fold_left add (List.fold_left add [] senders.(t)) asg.sets.(t))

(* The forged head: a commitment over a Note the node never logged, at
   the same seq and prev as the genuine one, signed with the node's
   real identity — exactly what a log fork looks like from outside. *)
let fork_commitment avmm ~epoch =
  let log = Avmm.log avmm in
  let n = Log.length log in
  let prev = Log.prev_hash log n in
  let entry =
    Entry.seal ~prev ~seq:n (Entry.Note (Printf.sprintf "commit epoch %d (forked)" epoch))
  in
  Auth.make (Avmm.identity avmm) ~entry ~prev_hash:prev

let metric name = Metrics.counter (Metrics.snapshot ()) name
let sorted tbl = Hashtbl.fold (fun n e acc -> (n, e) :: acc) tbl [] |> List.sort compare

let run ?(jobs = 1) ?(dedup = true) spec size =
  let nodes = size.nodes in
  if size.epochs < 1 then invalid_arg "Fleet_harness.run: need at least one epoch";
  if spec.audit = Daemon_sessions && nodes mod 2 <> 0 then
    invalid_arg "Fleet_harness.run: daemon sessions pair up, so nodes must be even";
  let par = if jobs > 1 then Audit.parallel jobs else Audit.sequential in
  let rng = driver_rng spec in
  let cheats = pick_cheats rng spec size in
  let asg =
    match spec.audit with
    | Daemon_sessions -> { Witness.nodes; k = 1; sets = Array.init nodes (fun i -> [| i lxor 1 |]) }
    | Witness_jobs | Witness_exchange -> Witness.assign ~seed:spec.seed ~nodes ~k:witnesses
  in
  (* A fork lives in the fault layer: the node is two-faced from just
     after its fork epoch opens until halfway through the next, which
     covers the epoch-boundary commitment. *)
  let forks =
    List.filter_map
      (fun c ->
        if c.adversary <> Fork then None
        else
          Some
            {
              Faults.node = c.node;
              from_us = (float_of_int (c.epoch - 1) *. spec.epoch_us) +. 1.0;
              to_us = (float_of_int c.epoch +. 0.5) *. spec.epoch_us;
            })
      cheats
  in
  let faults =
    if forks = [] then size.faults
    else Some { (Option.value size.faults ~default:Faults.none) with Faults.forks }
  in
  let image = (Guests.fleet_image ()).Avm_isa.Asm.words in
  let net =
    Net.create ~seed:spec.seed ?faults ~rsa_bits:512 ~key_pool:size.key_pool
      ~mem_words:Guests.fleet_mem_words ~log_backend:Avm_tamperlog.Segment_store.Memory
      ~topology:(Topology.of_adjacency asg.Witness.sets)
      ~config:(Config.make ~snapshot_every_us:None Config.Avmm_rsa768)
      ~images:(List.init nodes (fun _ -> image))
      ~names:(List.init nodes (Printf.sprintf "n%d"))
      ()
  in
  let avmm i = Net.node_avmm (Net.node net i) in
  let name_of i = Net.node_name (Net.node net i) in
  let cert_of i = Identity.certificate (Avmm.identity (avmm i)) in
  let index = Hashtbl.create nodes in
  for i = 0 to nodes - 1 do
    Hashtbl.replace index (name_of i) i
  done;
  let seal_all () =
    Array.iter (fun n -> ignore (Avmm.take_snapshot (Net.node_avmm n))) (Net.nodes net)
  in
  (* Baseline: snapshot seq 1 for every node before epoch 1, so each
     epoch seals exactly one replay chunk. *)
  seal_all ();
  (* One cache for the whole run, shared by every audit across all
     epochs and lanes: the idle majority's epoch chunks are
     fingerprint-identical fleet-wide, so each distinct chunk replays
     once (DESIGN.md §14). Seeded, so the spot-check designation is
     reproducible. *)
  let cache =
    if dedup then Some (Replay_cache.create ~spot_rate ~seed:spec.seed ()) else None
  in
  let first_flag = Hashtbl.create 16 and first_fail = Hashtbl.create 16 in
  let note tbl node epoch = if not (Hashtbl.mem tbl node) then Hashtbl.add tbl node epoch in
  let counts = Hashtbl.create 16 in
  let add name n =
    Hashtbl.replace counts name (n + Option.value ~default:0 (Hashtbl.find_opt counts name))
  in
  let injected_at = Hashtbl.create 16 in
  let cur_epoch = ref 1 and now_us = ref 0.0 in
  let verdicts = ref [] and coverage = ref [] and failures = ref [] in
  let events = ref [] and lags = ref [] and latencies = ref [] and undrained = ref [] in
  (* --- witness jobs (and the exchange) ---------------------------------- *)
  let certs = lazy (cert_slices asg ~name_of ~cert_of) in
  let stores =
    if spec.audit = Witness_exchange then Array.init nodes (fun _ -> Witness.equiv_store ())
    else [||]
  in
  let commit epoch =
    for i = 0 to nodes - 1 do
      let a = avmm i in
      Avmm.note a (Printf.sprintf "commit epoch %d" epoch);
      match Avmm.commitment a with
      | None -> ()
      | Some auth ->
        let record w auth =
          Multiparty.record_auth (Net.node_ledger (Net.node net w)) auth;
          add "commit_auths" 1
        in
        let set = asg.Witness.sets.(i) in
        if Net.two_faced net i then begin
          let forged = fork_commitment a ~epoch in
          Array.iteri (fun slot w -> record w (if slot mod 2 = 0 then auth else forged)) set
        end
        else Array.iter (fun w -> record w auth) set
    done
  in
  let sem0 = metric "witness.semantic_entries" in
  let witness_step epoch =
    (* The commitment Note lands after the boundary Snapshot_ref, so it
       is audited with the next epoch: the per-witness audits cannot
       flag a fork until one epoch later, while the exchange catches it
       now. *)
    if spec.audit = Witness_exchange then commit epoch;
    (* Views, plans and auth lists are built before the pool starts, so
       the worker domains share nothing mutable. *)
    let views =
      Array.init nodes (fun t ->
          let a = avmm t in
          {
            Witness.log = Avmm.log a;
            snapshots = Avmm.snapshots a;
            image;
            mem_words = Guests.fleet_mem_words;
            peers = Net.peers_of net t;
            node_cert = cert_of t;
            peer_certs = (Lazy.force certs).(t);
          })
    in
    let plans =
      Array.map
        (fun (v : Witness.target_view) -> Spot_check.plan ~log:v.log ~snapshots:v.snapshots)
        views
    in
    let auth_tbl = Hashtbl.create (nodes * asg.Witness.k) in
    Array.iteri
      (fun t set ->
        Array.iter
          (fun w ->
            Hashtbl.replace auth_tbl (t, w)
              (Multiparty.auths_for (Net.node_ledger (Net.node net w)) (name_of t)))
          set)
      asg.Witness.sets;
    let auths_of target witness =
      Option.value ~default:[] (Hashtbl.find_opt auth_tbl (target, witness))
    in
    let f (job : Witness.job) =
      Witness.audit_job ?cache ~plan:plans.(job.target) ~view:views.(job.target)
        ~auths:(auths_of job.target job.witness) job
    in
    let jobs = Witness.epoch_jobs asg ~epoch in
    let vs = Witness.run_sharded ~par ~shards ~f jobs in
    add "audit_jobs" (List.length jobs);
    let failing = List.filter (fun (v : Witness.verdict) -> not v.ok) vs in
    List.iter (fun (v : Witness.verdict) -> note first_fail v.job.target epoch) failing;
    coverage := Witness.coverage vs ~nodes ~epoch :: !coverage;
    failures := List.length failing :: !failures;
    verdicts := vs :: !verdicts;
    if spec.audit = Witness_exchange then begin
      let ex =
        Witness.exchange asg ~stores
          ~collected:(fun ~target ~witness -> auths_of target witness)
          ~cert_of
      in
      add "exchange_messages" ex.ex_messages;
      add "exchange_auths" ex.ex_auths;
      add "exchange_bytes" ex.ex_bytes;
      List.iter
        (fun (ev : Evidence.t) -> note first_flag (Hashtbl.find index ev.accused) epoch)
        ex.ex_proofs
    end
  in
  (* --- daemon sessions ---------------------------------------------------- *)
  let on_verdict (ev : Daemon.event) =
    events := ev :: !events;
    let node = Hashtbl.find index ev.ev_session in
    note first_flag node !cur_epoch;
    Option.iter (fun t0 -> latencies := (!now_us -. t0) :: !latencies)
      (Hashtbl.find_opt injected_at node)
  in
  let daemon_steps () =
    let d = Daemon.create ~max_lag_entries:max_lag ?cache ~on_verdict () in
    let bp_engaged0 = metric "online_audit.backpressure_engaged" in
    let bp_refused0 = metric "online_audit.backpressure_refusals" in
    for i = 0 to nodes - 1 do
      let partner = i lxor 1 in
      let ctx =
        Audit.ctx ~node_cert:(cert_of i) ~peer_certs:[ (name_of partner, cert_of partner) ] ()
      in
      let a = avmm i in
      Daemon.attach d ~id:(name_of i) ~ctx ~image ~mem_words:Guests.fleet_mem_words
        ~replay_rate:1.0
        ~snapshot_of:(fun () -> Avmm.snapshots a)
        ~peers:(Net.peers_of net i) ()
    done;
    let ingest_and_pump () =
      for i = 0 to nodes - 1 do
        ignore (Daemon.ingest d ~id:(name_of i) (Avmm.log (avmm i)))
      done;
      ignore (Daemon.pump d ~budget_instructions:budget ~par () : int);
      List.iter
        (fun id -> lags := (Daemon.session_status d ~id).Online_audit.lag_entries :: !lags)
        (Daemon.session_ids d)
    in
    let lagging () =
      List.filter
        (fun id ->
          let st = Daemon.session_status d ~id in
          st.Online_audit.verdict = None && st.Online_audit.lag_entries > 0)
        (Daemon.session_ids d)
    in
    (* Keep re-offering (backpressured producers included) and pumping
       until every live session has caught up, then close them all. *)
    let drain () =
      let rounds = ref 0 in
      while lagging () <> [] && !rounds < drain_limit do
        incr rounds;
        ingest_and_pump ()
      done;
      undrained := List.sort compare (List.map (Hashtbl.find index) (lagging ()));
      ignore (Daemon.shutdown d : Daemon.event list);
      add "entries_ingested" (Daemon.stats d).Daemon.entries_ingested;
      add "drain_rounds" !rounds;
      add "backpressure_engaged" (metric "online_audit.backpressure_engaged" - bp_engaged0);
      add "backpressure_refusals" (metric "online_audit.backpressure_refusals" - bp_refused0)
    in
    ((fun _epoch -> ingest_and_pump ()), drain)
  in
  let audit_step, finish =
    match spec.audit with
    | Daemon_sessions -> daemon_steps ()
    | Witness_jobs | Witness_exchange ->
      ( witness_step,
        fun () ->
          add "semantic_entries" (metric "witness.semantic_entries" - sem0);
          add "retransmissions" (Net.retransmissions net) )
  in
  (* --- the epoch loop ----------------------------------------------------- *)
  let vals_addr = Guests.fleet_symbol "g_vals" in
  let mid_epoch = List.exists (fun (a, _) -> a <> Fork) spec.mix in
  for epoch = 1 to size.epochs do
    cur_epoch := epoch;
    let epoch_mid = (float_of_int (epoch - 1) *. spec.epoch_us) +. (spec.epoch_us /. 2.0) in
    let epoch_end = float_of_int epoch *. spec.epoch_us in
    let due = List.filter (fun c -> c.epoch = epoch) cheats in
    (* With rewriters in the mix every cheater is active in its cheat
       epoch, so a rewrite has fresh unobserved entries to corrupt
       (value drawn before slot, as the recorded signatures assume). *)
    if List.mem_assoc Rewrite spec.mix then
      List.iter
        (fun c ->
          let value = Rng.int_in rng 0 65535 in
          let slot = Rng.int_in rng 0 250 in
          Net.queue_input net c.node (Guests.fleet_input_op ~slot ~value))
        due;
    for i = 0 to nodes - 1 do
      if Rng.float rng 1.0 < spec.activity then
        for _ = 1 to 1 + Rng.int_in rng 0 2 do
          let slot = Rng.int_in rng 0 250 in
          let value = Rng.int_in rng 0 65535 in
          Net.queue_input net i (Guests.fleet_input_op ~slot ~value)
        done
    done;
    if mid_epoch then begin
      Net.run net ~until_us:epoch_mid ();
      List.iter
        (fun c ->
          Hashtbl.replace injected_at c.node epoch_mid;
          match c.adversary with
          | Poke -> Avmm.poke (avmm c.node) ~addr:(vals_addr + c.slot) ~value:c.value
          | Rewrite ->
            (* The newest entry is still unobserved, so the syntactic
               stream must catch it at the next ingest. *)
            let log = Avmm.log (avmm c.node) in
            Log.tamper_replace log (Log.length log) (Entry.Note "rewritten")
          | Fork -> ())
        due
    end;
    Net.run net ~until_us:epoch_end ();
    now_us := epoch_end;
    seal_all ();
    audit_step epoch
  done;
  finish ();
  add "sim_events" (Sim.processed (Net.sim net));
  (* Every proof must stand alone: a third party with only the accused
     node's certificate — no log, no image, no peers — re-verifies it. *)
  let proofs =
    Array.to_list stores
    |> List.concat_map Witness.equiv_proofs
    |> List.sort_uniq (fun (a : Evidence.t) b -> compare a.accused b.accused)
  in
  let proofs_verified =
    List.length
      (List.filter
         (fun (ev : Evidence.t) ->
           let ctx = Audit.ctx ~node_cert:(cert_of (Hashtbl.find index ev.accused)) () in
           Audit.check_evidence ev ~ctx ~image:[||] ~peers:[] ())
         proofs)
  in
  {
    spec;
    size;
    cheats;
    flags = sorted (if spec.audit = Witness_jobs then first_fail else first_flag);
    failed = sorted first_fail;
    coverage = List.rev !coverage;
    failures = List.rev !failures;
    verdicts = List.concat (List.rev !verdicts);
    events = List.rev !events;
    proofs;
    proofs_verified;
    undrained = !undrained;
    lags = !lags;
    latencies_us = List.rev !latencies;
    counts = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []);
    cache = Option.map Replay_cache.stats cache;
    twin_signature = None;
  }

(* --- reading an outcome ----------------------------------------------------- *)

let signature o =
  let b = Buffer.create 4096 in
  List.iter
    (fun (v : Witness.verdict) ->
      let j = v.job in
      Printf.bprintf b "%d:%d:%d:%s:%b:%s\n" j.epoch j.target j.witness
        (match j.mode with Witness.Syntactic -> "syn" | Witness.Semantic -> "sem")
        v.ok v.detail)
    o.verdicts;
  (match o.spec.audit with
  | Witness_jobs -> ()
  | Daemon_sessions ->
    List.map
      (fun (ev : Daemon.event) ->
        Printf.sprintf "%s:%s:%s\n" ev.ev_session
          (Format.asprintf "%a" Online_audit.pp_verdict ev.ev_verdict)
          (match ev.ev_entry_seq with Some s -> string_of_int s | None -> "-"))
      o.events
    |> List.sort compare
    |> List.iter (Buffer.add_string b)
  | Witness_exchange ->
    List.iter
      (fun (ev : Evidence.t) ->
        match ev.accusation with
        | Evidence.Equivocation { a; b = b' } ->
          Printf.bprintf b "proof:%s:%d:%s:%s\n" ev.accused a.Auth.seq a.Auth.hash b'.Auth.hash
        | _ -> Printf.bprintf b "proof:%s\n" ev.accused)
      o.proofs;
    List.iter (fun (n, e) -> Printf.bprintf b "caught:%d:%d\n" n e) o.flags);
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_twin o =
  let t =
    match o.spec.twin with
    | Jobs_4 -> run ~jobs:4 o.spec o.size
    | Cache_off -> run ~dedup:false o.spec o.size
  in
  { o with twin_signature = Some (signature t) }

let cheaters o ~flagged =
  List.filter_map
    (fun c -> if List.mem_assoc c.node o.flags = flagged then Some c.node else None)
    o.cheats

let detected o = cheaters o ~flagged:true
let missed o = cheaters o ~flagged:false

let false_flagged o =
  List.map fst (o.flags @ o.failed)
  |> List.filter (fun n -> not (List.exists (fun c -> c.node = n) o.cheats))
  |> List.sort_uniq compare

let count o name = Option.value ~default:0 (List.assoc_opt name o.counts)

let percentile xs p =
  if xs = [] then 0.0
  else begin
    let s = Stats.create () in
    List.iter (Stats.add s) xs;
    Stats.percentile s p
  end

let lag o p = int_of_float (percentile (List.map float_of_int o.lags) p)
let latency_us o p = percentile o.latencies_us p

let check o =
  let breaches = ref [] in
  let breach fmt = Printf.ksprintf (fun s -> breaches := s :: !breaches) fmt in
  List.iter
    (fun c ->
      match List.assoc_opt c.node o.flags with
      | None -> breach "cheater n%d (epoch %d) never flagged" c.node c.epoch
      | Some e when e > c.epoch ->
        breach "cheater n%d (epoch %d) flagged only at epoch %d" c.node c.epoch e
      | Some _ -> ())
    o.cheats;
  List.iter (breach "honest node n%d flagged") (false_flagged o);
  List.iteri (fun i c -> if c < 1.0 then breach "epoch %d coverage %.3f < 1" (i + 1) c) o.coverage;
  (match o.twin_signature with
  | Some s when s <> signature o ->
    breach "verdict signature %s differs from the twin run's %s (%s)" (signature o) s
      (match o.spec.twin with Jobs_4 -> "jobs 4" | Cache_off -> "cache off")
  | _ -> ());
  List.iter (breach "session n%d never drained") o.undrained;
  if lag o 99.0 > max_lag then breach "p99 audit lag %d exceeds the bound %d" (lag o 99.0) max_lag;
  let proofs = List.length o.proofs in
  if o.proofs_verified < proofs then
    breach "%d of %d proofs failed standalone verification" (proofs - o.proofs_verified) proofs;
  if o.spec.audit = Witness_exchange && proofs <> List.length o.cheats then
    breach "%d proofs for %d forkers" proofs (List.length o.cheats);
  (match (o.spec.twin, o.cache) with
  | Cache_off, Some s when s.Replay_cache.hits = 0 -> breach "the replay cache never hit"
  | _ -> ());
  List.rev !breaches
