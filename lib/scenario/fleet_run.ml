open Avm_core
module Net = Avm_netsim.Net
module Topology = Avm_netsim.Topology
module Faults = Avm_netsim.Faults
module Sim = Avm_netsim.Sim
module Rng = Avm_util.Rng
module Identity = Avm_crypto.Identity

type spec = {
  nodes : int;
  witnesses : int;
  epochs : int;
  epoch_us : float;
  activity : float;
  cheat_frac : float;
  seed : int64;
  rsa_bits : int;
  key_pool : int;
  faults : Faults.t option;
  shards : int;
  dedup : bool;
  spot_rate : int;
}

let default_spec =
  {
    nodes = 200;
    witnesses = 3;
    epochs = 3;
    epoch_us = 1_000_000.0;
    activity = 0.10;
    cheat_frac = 0.02;
    seed = 7L;
    rsa_bits = 512;
    key_pool = 32;
    faults = Some (Faults.make ~drop:0.02 ~reorder:0.05 ~jitter_us:2_000.0 ());
    shards = 8;
    dedup = true;
    spot_rate = 8;
  }

type cheat = { node : int; epoch : int; slot : int; value : int }

type epoch_report = { epoch : int; coverage : float; jobs : int; failures : int }

type outcome = {
  spec : spec;
  net : Net.t;
  assignment : Witness.assignment;
  verdicts : Witness.verdict list;
  reports : epoch_report list;
  cheats : cheat list;
  detected : int list;
  missed : int list;
  false_flagged : int list;
  sim_events : int;
  run_seconds : float;
  audit_jobs : int;
  audit_seconds : float;
  semantic_entries : int;
  semantic_us : int;
  cache : Replay_cache.stats option;
}

(* The driver's own random stream — distinct from both the witness
   assignment's and the network's, so adding a cheater or changing
   activity never reshuffles who audits whom. *)
let driver_rng seed = Rng.create (Int64.logxor seed 0x666C6565745FL)

let pick_cheats rng ~nodes ~epochs ~cheat_frac =
  let count =
    if cheat_frac <= 0.0 then 0
    else max 1 (int_of_float ((cheat_frac *. float_of_int nodes) +. 0.5))
  in
  let chosen = Hashtbl.create (max 16 count) in
  let out = ref [] in
  while Hashtbl.length chosen < min count nodes do
    let node = Rng.int_in rng 0 (nodes - 1) in
    if not (Hashtbl.mem chosen node) then begin
      Hashtbl.add chosen node ();
      (* Poke a kv slot the workload never writes (ops use 0..250),
         with a nonzero value: the tamper is invisible to the guest's
         own outputs and only a witness replay can surface it. *)
      let epoch = Rng.int_in rng 1 epochs in
      let slot = Rng.int_in rng 251 255 in
      let value = 1 + Rng.int_in rng 0 65534 in
      out := { node; epoch; slot; value } :: !out
    end
  done;
  List.sort (fun a b -> compare a.node b.node) !out

(* Who sends envelopes into each node's log: reporters whose primary
   witness it is, plus its own witnesses (their acks carry signatures
   the syntactic pass verifies). Keeping peer_certs this small is what
   lets a 10k-node audit avoid a 10k-entry cert list per job. *)
let cert_slices net (asg : Witness.assignment) =
  let senders = Array.make asg.nodes [] in
  Array.iteri (fun j set -> senders.(set.(0)) <- j :: senders.(set.(0))) asg.sets;
  let cert_of i = Identity.certificate (Avmm.identity (Net.node_avmm (Net.node net i))) in
  let name_of i = Net.node_name (Net.node net i) in
  Array.init asg.nodes (fun t ->
      let seen = Hashtbl.create 8 in
      let add acc i =
        if Hashtbl.mem seen i then acc
        else begin
          Hashtbl.add seen i ();
          (name_of i, cert_of i) :: acc
        end
      in
      let acc = List.fold_left add [] senders.(t) in
      Array.fold_left add acc asg.sets.(t))

let run ?par spec =
  if spec.epochs < 1 then invalid_arg "Fleet_run.run: need at least one epoch";
  let asg = Witness.assign ~seed:spec.seed ~nodes:spec.nodes ~k:spec.witnesses in
  let topology = Topology.of_adjacency asg.Witness.sets in
  let config = Config.make ~snapshot_every_us:None Config.Avmm_rsa768 in
  let image = Guests.fleet_image () in
  let names = List.init spec.nodes (fun i -> Printf.sprintf "n%d" i) in
  let images = List.init spec.nodes (fun _ -> image.Avm_isa.Asm.words) in
  let net =
    Net.create ~seed:spec.seed ?faults:spec.faults ~rsa_bits:spec.rsa_bits
      ~key_pool:spec.key_pool ~mem_words:Guests.fleet_mem_words
      ~log_backend:Avm_tamperlog.Segment_store.Memory ~topology ~config ~images
      ~names ()
  in
  let rng = driver_rng spec.seed in
  let cheats = pick_cheats rng ~nodes:spec.nodes ~epochs:spec.epochs ~cheat_frac:spec.cheat_frac in
  let vals_addr = Guests.fleet_symbol "g_vals" in
  let certs = cert_slices net asg in
  (* Baseline: snapshot seq 1 for every node, before epoch 1 — the
     authenticated state every epoch-1 replay starts from. *)
  Array.iter (fun n -> ignore (Avmm.take_snapshot (Net.node_avmm n))) (Net.nodes net);
  let view_of t =
    let avmm = Net.node_avmm (Net.node net t) in
    {
      Witness.log = Avmm.log avmm;
      snapshots = Avmm.snapshots avmm;
      image = image.Avm_isa.Asm.words;
      mem_words = Guests.fleet_mem_words;
      peers = Net.peers_of net t;
      node_cert = Identity.certificate (Avmm.identity avmm);
      peer_certs = certs.(t);
    }
  in
  (* One replay cache for the whole run, shared by every (target,
     witness) job across all epochs and worker domains: the idle
     majority's epoch chunks are fingerprint-identical fleet-wide, so
     each distinct chunk replays once and the rest are three-digest
     compares (DESIGN.md §14). Seeded from the spec so the spot-check
     designation — and with it the verdict vector — is reproducible. *)
  let cache =
    if spec.dedup then
      Some (Replay_cache.create ~spot_rate:spec.spot_rate ~seed:spec.seed ())
    else None
  in
  let sem_counter name =
    Avm_obs.Metrics.counter (Avm_obs.Metrics.snapshot ()) name
  in
  let sem_entries0 = sem_counter "witness.semantic_entries" in
  let sem_us0 = sem_counter "witness.semantic_us" in
  let verdicts = ref [] in
  let reports = ref [] in
  let run_seconds = ref 0.0 in
  let audit_seconds = ref 0.0 in
  let audit_jobs = ref 0 in
  for epoch = 1 to spec.epochs do
    let epoch_start = float_of_int (epoch - 1) *. spec.epoch_us in
    let epoch_end = float_of_int epoch *. spec.epoch_us in
    (* Seeded activity: ops land at epoch start, waking the chosen
       nodes; everyone else stays parked and costs no events. *)
    let t0 = Unix.gettimeofday () in
    for i = 0 to spec.nodes - 1 do
      if Rng.float rng 1.0 < spec.activity then
        for _ = 1 to 1 + Rng.int_in rng 0 2 do
          let slot = Rng.int_in rng 0 250 in
          let value = Rng.int_in rng 0 65535 in
          Net.queue_input net i (Guests.fleet_input_op ~slot ~value)
        done
    done;
    Net.run net ~until_us:(epoch_start +. (spec.epoch_us /. 2.0)) ();
    List.iter
      (fun (c : cheat) ->
        if c.epoch = epoch then
          Avmm.poke (Net.node_avmm (Net.node net c.node)) ~addr:(vals_addr + c.slot)
            ~value:c.value)
      cheats;
    Net.run net ~until_us:epoch_end ();
    (* Seal every node's segment for this epoch. *)
    Array.iter (fun n -> ignore (Avmm.take_snapshot (Net.node_avmm n))) (Net.nodes net);
    run_seconds := !run_seconds +. (Unix.gettimeofday () -. t0);
    (* Audit: every (target, witness) pair, each witness armed with the
       authenticators its own ledger collected for the target. Views,
       their audit plans and auth lists are materialized before the
       pool starts so the worker domains share nothing mutable. *)
    let views = Array.init spec.nodes view_of in
    let plans =
      Array.map
        (fun (v : Witness.target_view) -> Spot_check.plan ~log:v.log ~snapshots:v.snapshots)
        views
    in
    let auth_tbl = Hashtbl.create (spec.nodes * asg.Witness.k) in
    Array.iteri
      (fun t set ->
        let tname = Net.node_name (Net.node net t) in
        Array.iter
          (fun w ->
            Hashtbl.replace auth_tbl (t, w)
              (Multiparty.auths_for (Net.node_ledger (Net.node net w)) tname))
          set)
      asg.Witness.sets;
    let f (job : Witness.job) =
      let auths =
        match Hashtbl.find_opt auth_tbl (job.Witness.target, job.Witness.witness) with
        | Some l -> l
        | None -> []
      in
      Witness.audit_job ?cache ~plan:plans.(job.Witness.target) ~view:views.(job.Witness.target)
        ~auths job
    in
    let jobs = Witness.epoch_jobs asg ~epoch in
    let t1 = Unix.gettimeofday () in
    let vs = Witness.run_sharded ?par ~shards:spec.shards ~f jobs in
    audit_seconds := !audit_seconds +. (Unix.gettimeofday () -. t1);
    audit_jobs := !audit_jobs + List.length jobs;
    let failures = List.length (List.filter (fun v -> not v.Witness.ok) vs) in
    reports :=
      {
        epoch;
        coverage = Witness.coverage vs ~nodes:spec.nodes ~epoch;
        jobs = List.length jobs;
        failures;
      }
      :: !reports;
    verdicts := vs :: !verdicts
  done;
  let verdicts = List.concat (List.rev !verdicts) in
  let flagged = Hashtbl.create 16 in
  List.iter
    (fun (v : Witness.verdict) ->
      if not v.Witness.ok then Hashtbl.replace flagged v.Witness.job.Witness.target ())
    verdicts;
  let cheater_set = Hashtbl.create 16 in
  List.iter (fun (c : cheat) -> Hashtbl.replace cheater_set c.node ()) cheats;
  let detected =
    List.filter_map
      (fun (c : cheat) -> if Hashtbl.mem flagged c.node then Some c.node else None)
      cheats
  in
  let missed =
    List.filter_map
      (fun (c : cheat) -> if Hashtbl.mem flagged c.node then None else Some c.node)
      cheats
  in
  let false_flagged =
    Hashtbl.fold (fun t () acc -> if Hashtbl.mem cheater_set t then acc else t :: acc) flagged []
    |> List.sort compare
  in
  {
    spec;
    net;
    assignment = asg;
    verdicts;
    reports = List.rev !reports;
    cheats;
    detected;
    missed;
    false_flagged;
    sim_events = Sim.processed (Net.sim net);
    run_seconds = !run_seconds;
    audit_jobs = !audit_jobs;
    audit_seconds = !audit_seconds;
    semantic_entries = sem_counter "witness.semantic_entries" - sem_entries0;
    semantic_us = sem_counter "witness.semantic_us" - sem_us0;
    cache = Option.map Replay_cache.stats cache;
  }

let signature outcome =
  let b = Buffer.create 4096 in
  List.iter
    (fun (v : Witness.verdict) ->
      let j = v.Witness.job in
      Buffer.add_string b
        (Printf.sprintf "%d:%d:%d:%s:%b:%s\n" j.Witness.epoch j.Witness.target
           j.Witness.witness
           (match j.Witness.mode with Witness.Syntactic -> "syn" | Witness.Semantic -> "sem")
           v.Witness.ok v.Witness.detail))
    outcome.verdicts;
  Digest.to_hex (Digest.string (Buffer.contents b))
