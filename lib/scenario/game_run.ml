open Avm_core
open Avm_netsim

type spec = {
  players : int;
  duration_us : float;
  config : Config.t;
  cheat : (int * Cheats.t) option;
  frame_cap : bool;
  seed : int64;
  rsa_bits : int;
  faults : Faults.t option;
}

let default_spec =
  {
    players = 3;
    duration_us = 60.0e6;
    config = Config.make ~snapshot_every_us:(Some 30_000_000) Config.Avmm_rsa768;
    cheat = None;
    frame_cap = false;
    seed = 1L;
    rsa_bits = 768;
    faults = None;
  }

type outcome = {
  net : Net.t;
  spec : spec;
  fps : float array;
  instructions : int array;
  devices : Secure_input.device array;
  attestations : Secure_input.attestation list array;
}

let player_names n = List.init n (fun i -> Printf.sprintf "player%d" i)
let reference_image () = (Guests.game_image ()).Avm_isa.Asm.words

let play ?(on_slice = fun _ _ -> ()) spec =
  let images =
    List.init spec.players (fun i ->
        match spec.cheat with
        | Some (ci, cheat) when ci = i -> (Cheats.image_for cheat).Avm_isa.Asm.words
        | _ -> reference_image ())
  in
  let net =
    Net.create ~seed:spec.seed ?faults:spec.faults ~rsa_bits:spec.rsa_bits
      ~config:spec.config ~images ~mem_words:Guests.mem_words
      ~names:(player_names spec.players) ()
  in
  (* Every player has a signing keyboard (§7.2); genuine inputs are
     attested as they are typed. Forged inputs (the external aimbot's)
     enter through Avmm.queue_input directly and leave no attestation. *)
  let dev_rng = Avm_util.Rng.create (Int64.add spec.seed 777L) in
  let devices = Array.init spec.players (fun _ -> Secure_input.create_device dev_rng ()) in
  let attested : Secure_input.attestation list ref array =
    Array.init spec.players (fun _ -> ref [])
  in
  let typed i v =
    attested.(i) := Secure_input.attest devices.(i) v :: !(attested.(i));
    Net.queue_input net i v
  in
  (* Role assignment must be the first input each guest reads. *)
  for i = 0 to spec.players - 1 do
    let role = Guests.input_role ~role:i ~nplayers:spec.players in
    let role = if spec.frame_cap then role lor (1 lsl 16) else role in
    typed i role
  done;
  let bots =
    Array.init spec.players (fun i ->
        Bots.create ~seed:(Int64.add spec.seed (Int64.of_int (1000 + i))))
  in
  let step = 50_000.0 in
  let t = ref 0.0 in
  while !t < spec.duration_us do
    let last = !t in
    t := Float.min spec.duration_us (!t +. step);
    Net.run net ~until_us:!t ();
    for i = 0 to spec.players - 1 do
      Bots.tick bots.(i) ~now_us:!t ~last_us:last (typed i)
    done;
    (match spec.cheat with
    | Some (ci, cheat) ->
      let avmm = Net.node_avmm (Net.node net ci) in
      List.iter (fun act -> act avmm) (Cheats.runtime_actions cheat ~now_us:!t ~last_us:last)
    | None -> ());
    on_slice net !t
  done;
  let fps =
    Array.init spec.players (fun i ->
        float_of_int (Avmm.frames (Net.node_avmm (Net.node net i)))
        /. (spec.duration_us /. 1.0e6))
  in
  let instructions =
    Array.init spec.players (fun i ->
        Avm_machine.Machine.icount (Avm_core.Avmm.machine (Net.node_avmm (Net.node net i))))
  in
  {
    net;
    spec;
    fps;
    instructions;
    devices;
    attestations = Array.map (fun r -> List.rev !r) attested;
  }

let collect_auths net ~target =
  let name = Net.node_name (Net.node net target) in
  let pool = Multiparty.create ~self:"auditor" in
  Array.iter
    (fun n -> Multiparty.merge_auths pool ~from:(Net.node_ledger n) ~node:name)
    (Net.nodes net);
  Multiparty.auths_for pool name

let audit_player ?par outcome ~auditor ~target =
  ignore auditor;
  let net = outcome.net in
  let node = Net.node net target in
  let name = Net.node_name node in
  let log = Avmm.log (Net.node_avmm node) in
  let certs = Net.certificates net in
  let fuel =
    (* The recorded run's instruction count bounds honest replay; give
       slack for divergence hunting. *)
    (2 * Avm_machine.Machine.icount (Avmm.machine (Net.node_avmm node))) + 5_000_000
  in
  Audit.full_of_log
    ~ctx:
      (Audit.ctx ~node_cert:(List.assoc name certs) ~peer_certs:certs
         ~auths:(collect_auths net ~target) ())
    ~image:(reference_image ()) ~mem_words:Guests.mem_words ~fuel ~peers:(Net.peers net) ~log
    ?par ()

let audit_inputs outcome ~target =
  let node = Net.node outcome.net target in
  let log = Avmm.log (Net.node_avmm node) in
  Secure_input.audit
    ~device_key:(Secure_input.device_public outcome.devices.(target))
    ~entries:(Avm_tamperlog.Log.segment log ~from:1 ~upto:(Avm_tamperlog.Log.length log))
    ~attestations:outcome.attestations.(target)
