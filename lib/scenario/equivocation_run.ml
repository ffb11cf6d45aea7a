open Avm_core
module Net = Avm_netsim.Net
module Topology = Avm_netsim.Topology
module Faults = Avm_netsim.Faults
module Sim = Avm_netsim.Sim
module Rng = Avm_util.Rng
module Identity = Avm_crypto.Identity
module Log = Avm_tamperlog.Log
module Entry = Avm_tamperlog.Entry
module Auth = Avm_tamperlog.Auth

type spec = {
  nodes : int;
  witnesses : int;
  epochs : int;
  epoch_us : float;
  activity : float;
  fork_frac : float;
  seed : int64;
  rsa_bits : int;
  key_pool : int;
  shards : int;
}

let default_spec =
  {
    nodes = 60;
    witnesses = 3;
    epochs = 3;
    epoch_us = 400_000.0;
    activity = 0.15;
    fork_frac = 0.05;
    seed = 11L;
    rsa_bits = 512;
    key_pool = 32;
    shards = 8;
  }

type forker = { node : int; epoch : int }

type outcome = {
  spec : spec;
  net : Net.t;
  assignment : Witness.assignment;
  verdicts : Witness.verdict list;
  forkers : forker list;
  exchange_detected : (int * int) list;
  baseline_detected : (int * int) list;
  false_flags : int list;
  proofs : Evidence.t list;
  proofs_verified : int;
  commit_auths : int;
  ex_messages : int;
  ex_auths : int;
  ex_bytes : int;
  sim_events : int;
  run_seconds : float;
  audit_seconds : float;
  exchange_seconds : float;
}

(* Distinct from the assignment's and the network's streams, so adding
   a forker never reshuffles who audits whom. *)
let driver_rng seed = Rng.create (Int64.logxor seed 0x65717569765FL)

let pick_forkers rng ~nodes ~epochs ~fork_frac =
  let count =
    if fork_frac <= 0.0 then 0
    else max 1 (int_of_float ((fork_frac *. float_of_int nodes) +. 0.5))
  in
  let chosen = Hashtbl.create (max 16 count) in
  let out = ref [] in
  while Hashtbl.length chosen < min count nodes do
    let node = Rng.int_in rng 0 (nodes - 1) in
    if not (Hashtbl.mem chosen node) then begin
      Hashtbl.add chosen node ();
      out := { node; epoch = Rng.int_in rng 1 epochs } :: !out
    end
  done;
  List.sort (fun a b -> compare a.node b.node) !out

(* Same slice as Fleet_run: reporters whose primary witness the target
   is, plus the target's own witnesses. *)
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

let run ?par spec =
  if spec.epochs < 1 then invalid_arg "Equivocation_run.run: need at least one epoch";
  if spec.witnesses < 2 then
    invalid_arg "Equivocation_run.run: equivocation needs at least two witnesses per node";
  let asg = Witness.assign ~seed:spec.seed ~nodes:spec.nodes ~k:spec.witnesses in
  let topology = Topology.of_adjacency asg.Witness.sets in
  let config = Config.make ~snapshot_every_us:None Config.Avmm_rsa768 in
  let image = Guests.fleet_image () in
  let names = List.init spec.nodes (fun i -> Printf.sprintf "n%d" i) in
  let images = List.init spec.nodes (fun _ -> image.Avm_isa.Asm.words) in
  let rng = driver_rng spec.seed in
  let forkers = pick_forkers rng ~nodes:spec.nodes ~epochs:spec.epochs ~fork_frac:spec.fork_frac in
  (* The adversary lives in the fault layer: a fork window makes the
     node two-faced from just after its fork epoch opens until halfway
     through the next, which covers the epoch-boundary commitment. *)
  let faults =
    Faults.make
      ~forks:
        (List.map
           (fun f ->
             {
               Faults.node = f.node;
               from_us = (float_of_int (f.epoch - 1) *. spec.epoch_us) +. 1.0;
               to_us = (float_of_int f.epoch +. 0.5) *. spec.epoch_us;
             })
           forkers)
      ()
  in
  let net =
    Net.create ~seed:spec.seed ~faults ~rsa_bits:spec.rsa_bits ~key_pool:spec.key_pool
      ~mem_words:Guests.fleet_mem_words ~log_backend:Avm_tamperlog.Segment_store.Memory
      ~topology ~config ~images ~names ()
  in
  let certs = cert_slices net asg in
  let cert_of i = Identity.certificate (Avmm.identity (Net.node_avmm (Net.node net i))) in
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
  (* One persistent store per witness, kept across epochs: a fork's two
     heads may reach the same store epochs apart. *)
  let stores = Array.init spec.nodes (fun _ -> Witness.equiv_store ()) in
  let verdicts = ref [] in
  let run_seconds = ref 0.0 in
  let audit_seconds = ref 0.0 in
  let exchange_seconds = ref 0.0 in
  let commit_auths = ref 0 in
  let ex_messages = ref 0 and ex_auths = ref 0 and ex_bytes = ref 0 in
  let accused_seen = Hashtbl.create 8 in
  let exchange_detected = ref [] in
  for epoch = 1 to spec.epochs do
    let epoch_end = float_of_int epoch *. spec.epoch_us in
    let t0 = Unix.gettimeofday () in
    for i = 0 to spec.nodes - 1 do
      if Rng.float rng 1.0 < spec.activity then
        for _ = 1 to 1 + Rng.int_in rng 0 2 do
          let slot = Rng.int_in rng 0 250 in
          let value = Rng.int_in rng 0 65535 in
          Net.queue_input net i (Guests.fleet_input_op ~slot ~value)
        done
    done;
    Net.run net ~until_us:epoch_end ();
    (* Seal every node's segment, then run the commitment protocol:
       the commitment Note lands after the boundary Snapshot_ref, so
       it is audited as part of the next epoch — which is exactly why
       the per-witness baseline audits cannot flag a fork until one
       epoch later, while the exchange catches it now. *)
    Array.iter (fun n -> ignore (Avmm.take_snapshot (Net.node_avmm n))) (Net.nodes net);
    for i = 0 to spec.nodes - 1 do
      let avmm = Net.node_avmm (Net.node net i) in
      Avmm.note avmm (Printf.sprintf "commit epoch %d" epoch);
      match Avmm.commitment avmm with
      | None -> ()
      | Some a ->
        let set = asg.Witness.sets.(i) in
        let record w auth =
          Multiparty.record_auth (Net.node_ledger (Net.node net w)) auth;
          incr commit_auths
        in
        if Net.two_faced net i then begin
          let b = fork_commitment avmm ~epoch in
          Array.iteri (fun slot w -> record w (if slot mod 2 = 0 then a else b)) set
        end
        else Array.iter (fun w -> record w a) set
    done;
    run_seconds := !run_seconds +. (Unix.gettimeofday () -. t0);
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
      Witness.audit_job ~plan:plans.(job.Witness.target) ~view:views.(job.Witness.target)
        ~auths job
    in
    let jobs = Witness.epoch_jobs asg ~epoch in
    let t1 = Unix.gettimeofday () in
    let vs = Witness.run_sharded ?par ~shards:spec.shards ~f jobs in
    audit_seconds := !audit_seconds +. (Unix.gettimeofday () -. t1);
    verdicts := vs :: !verdicts;
    (* The tentpole: gossip each witness set's collected authenticators
       (commitments included) and pair up conflicting heads. *)
    let t2 = Unix.gettimeofday () in
    let stats =
      Witness.exchange asg ~stores
        ~collected:(fun ~target ~witness ->
          match Hashtbl.find_opt auth_tbl (target, witness) with Some l -> l | None -> [])
        ~cert_of
    in
    exchange_seconds := !exchange_seconds +. (Unix.gettimeofday () -. t2);
    ex_messages := !ex_messages + stats.Witness.ex_messages;
    ex_auths := !ex_auths + stats.Witness.ex_auths;
    ex_bytes := !ex_bytes + stats.Witness.ex_bytes;
    List.iter
      (fun (ev : Evidence.t) ->
        if not (Hashtbl.mem accused_seen ev.Evidence.accused) then begin
          Hashtbl.add accused_seen ev.Evidence.accused ();
          let idx = Scanf.sscanf ev.Evidence.accused "n%d" (fun i -> i) in
          exchange_detected := (idx, epoch) :: !exchange_detected
        end)
      stats.Witness.ex_proofs
  done;
  let verdicts = List.concat (List.rev !verdicts) in
  (* Per-witness baseline: first epoch each target was flagged by an
     ordinary audit job (the collected-auth-vs-log mismatch route). *)
  let baseline_first = Hashtbl.create 8 in
  List.iter
    (fun (v : Witness.verdict) ->
      if not v.Witness.ok then begin
        let t = v.Witness.job.Witness.target and e = v.Witness.job.Witness.epoch in
        match Hashtbl.find_opt baseline_first t with
        | Some e' when e' <= e -> ()
        | _ -> Hashtbl.replace baseline_first t e
      end)
    verdicts;
  let baseline_detected =
    Hashtbl.fold (fun t e acc -> (t, e) :: acc) baseline_first [] |> List.sort compare
  in
  let forker_set = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace forker_set f.node ()) forkers;
  let exchange_detected = List.sort compare !exchange_detected in
  let false_flags =
    List.filter (fun (t, _) -> not (Hashtbl.mem forker_set t)) (exchange_detected @ baseline_detected)
    |> List.map fst |> List.sort_uniq compare
  in
  (* Every proof must stand alone: a third party with only the accused
     node's certificate — no log, no image, no peers — re-verifies it. *)
  let proofs =
    Array.to_list stores
    |> List.concat_map Witness.equiv_proofs
    |> List.sort_uniq (fun (a : Evidence.t) b -> compare a.Evidence.accused b.Evidence.accused)
  in
  let proofs_verified =
    List.length
      (List.filter
         (fun (ev : Evidence.t) ->
           let idx = Scanf.sscanf ev.Evidence.accused "n%d" (fun i -> i) in
           let ctx = Audit.ctx ~node_cert:(cert_of idx) () in
           Audit.check_evidence ev ~ctx ~image:[||] ~peers:[] ())
         proofs)
  in
  {
    spec;
    net;
    assignment = asg;
    verdicts;
    forkers;
    exchange_detected;
    baseline_detected;
    false_flags;
    proofs;
    proofs_verified;
    commit_auths = !commit_auths;
    ex_messages = !ex_messages;
    ex_auths = !ex_auths;
    ex_bytes = !ex_bytes;
    sim_events = Sim.processed (Net.sim net);
    run_seconds = !run_seconds;
    audit_seconds = !audit_seconds;
    exchange_seconds = !exchange_seconds;
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
  List.iter
    (fun (ev : Evidence.t) ->
      match ev.Evidence.accusation with
      | Evidence.Equivocation { a; b = b' } ->
        Buffer.add_string b
          (Printf.sprintf "proof:%s:%d:%s:%s\n" ev.Evidence.accused a.Auth.seq a.Auth.hash
             b'.Auth.hash)
      | _ -> Buffer.add_string b (Printf.sprintf "proof:%s\n" ev.Evidence.accused))
    outcome.proofs;
  List.iter
    (fun (n, e) -> Buffer.add_string b (Printf.sprintf "caught:%d:%d\n" n e))
    outcome.exchange_detected;
  Digest.to_hex (Digest.string (Buffer.contents b))
