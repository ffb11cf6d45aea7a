open Avm_core
open Avm_netsim

(* Chunk c belongs initially to peer c / chunks_per_peer. Message
   types: 1 = REQUEST [requester, chunk], 2 = DATA [chunk, payload]. *)
let p2p_source =
  {|
const NCHUNKS = 32;
const PER_PEER = 8;

global role;
global nplayers;
global have[32];
global served;
global fetched;

fn serve(requester, chunk) {
  if (have[chunk] == 1) {
    out(NET_TX, requester);
    out(NET_TX, 2);
    out(NET_TX, chunk);
    out(NET_TX, chunk * 7 + 3);   // deterministic chunk payload
    out(NET_TX_SEND, 0);
    served = served + 1;
  }
}

fn drain() {
  var avail = in(NET_RX_AVAIL);
  while (avail > 0) {
    var typ = in(NET_RX);
    if (typ == 1) {
      var requester = in(NET_RX);
      var chunk = in(NET_RX);
      serve(requester, chunk);
    } else if (typ == 2) {
      var chunk2 = in(NET_RX);
      var payload = in(NET_RX);
      if (payload == chunk2 * 7 + 3 && have[chunk2] == 0) {
        have[chunk2] = 1;
        fetched = fetched + 1;
      }
    }
    out(NET_RX_NEXT, 0);
    avail = in(NET_RX_AVAIL);
  }
}

fn request_missing() {
  var r = in(RNG);
  var chunk = r % NCHUNKS;
  if (have[chunk] == 0) {
    var owner = chunk / PER_PEER;
    if (owner != role) {
      out(NET_TX, owner);
      out(NET_TX, 1);
      out(NET_TX, role);
      out(NET_TX, chunk);
      out(NET_TX_SEND, 0);
    }
  }
}

fn main() {
  var r = in(INPUT);
  role = r & 255;
  nplayers = (r >> 8) & 255;
  var i = role * PER_PEER;
  while (i < (role + 1) * PER_PEER) {
    have[i] = 1;
    i = i + 1;
  }
  var pace = 0;
  while (1) {
    var t = in(CLOCK);
    t = t;
    drain();
    pace = pace + 1;
    if (pace >= 40) {
      pace = 0;
      request_missing();
    }
  }
}
|}

let image_memo = Hashtbl.create 2

let compile_cached src =
  match Hashtbl.find_opt image_memo src with
  | Some img -> img
  | None ->
    let img = Avm_mlang.Compile.compile ~stack_top:Guests.stack_top src in
    Hashtbl.replace image_memo src img;
    img

let p2p_image () = compile_cached p2p_source

(* The freerider's patch: receive requests, serve nothing. *)
let freerider_image () =
  let patched_serve =
    {|fn serve(requester, chunk) {
  if (have[chunk] == 1) {
    served = served + 0;
    requester = requester + chunk;
  }
}|}
  in
  let original_serve =
    {|fn serve(requester, chunk) {
  if (have[chunk] == 1) {
    out(NET_TX, requester);
    out(NET_TX, 2);
    out(NET_TX, chunk);
    out(NET_TX, chunk * 7 + 3);   // deterministic chunk payload
    out(NET_TX_SEND, 0);
    served = served + 1;
  }
}|}
  in
  let i =
    let rec find j =
      if j + String.length original_serve > String.length p2p_source then
        failwith "serve function not found"
      else if String.sub p2p_source j (String.length original_serve) = original_serve then j
      else find (j + 1)
    in
    find 0
  in
  let patched =
    String.sub p2p_source 0 i
    ^ patched_serve
    ^ String.sub p2p_source
        (i + String.length original_serve)
        (String.length p2p_source - i - String.length original_serve)
  in
  compile_cached patched

type outcome = {
  net : Net.t;
  peers_n : int;
  duration_us : float;
  served : int array;
  have : int array;
}

let run ?(peers_n = 4) ?(duration_us = 20.0e6) ?(freerider = None) ?(rsa_bits = 512)
    ?(seed = 33L) () =
  let reference = (p2p_image ()).Avm_isa.Asm.words in
  let images =
    List.init peers_n (fun i ->
        match freerider with
        | Some f when f = i -> (freerider_image ()).Avm_isa.Asm.words
        | _ -> reference)
  in
  let names = List.init peers_n (Printf.sprintf "peer%d") in
  let config = Config.make ~snapshot_every_us:(Some 5_000_000) Config.Avmm_rsa768 in
  let net =
    Net.create ~seed ~rsa_bits ~config ~images ~mem_words:Guests.mem_words ~names ()
  in
  for i = 0 to peers_n - 1 do
    Net.queue_input net i ((i land 0xff) lor (peers_n lsl 8))
  done;
  Net.run net ~until_us:duration_us ();
  (* Globals moved in the patched image: use each node's own symbol
     table when reading its state. *)
  let image_of i =
    match freerider with Some f when f = i -> freerider_image () | _ -> p2p_image ()
  in
  let sym i name = Avm_isa.Asm.symbol (image_of i) name in
  let peek i addr = Avmm.peek (Net.node_avmm (Net.node net i)) ~addr in
  let served = Array.init peers_n (fun i -> peek i (sym i "g_served")) in
  let have =
    Array.init peers_n (fun i ->
        let base = sym i "g_have" in
        let count = ref 0 in
        for c = 0 to 31 do
          if peek i (base + c) = 1 then incr count
        done;
        !count)
  in
  { net; peers_n; duration_us; served; have }

let audit outcome ~target =
  let net = outcome.net in
  let node = Net.node net target in
  let name = Net.node_name node in
  let log = Avmm.log (Net.node_avmm node) in
  let pool = Multiparty.create ~self:"pool" in
  Array.iter
    (fun n -> Multiparty.merge_auths pool ~from:(Net.node_ledger n) ~node:name)
    (Net.nodes net);
  let fuel =
    (2 * Avm_machine.Machine.icount (Avmm.machine (Net.node_avmm node))) + 5_000_000
  in
  Audit.full_of_log
    ~ctx:
      (Audit.ctx
         ~node_cert:(List.assoc name (Net.certificates net))
         ~peer_certs:(Net.certificates net)
         ~auths:(Multiparty.auths_for pool name) ())
    ~image:(p2p_image ()).Avm_isa.Asm.words ~mem_words:Guests.mem_words ~fuel
    ~peers:(Net.peers net) ~log ()
