open Avm_core
open Avm_netsim

let auction_source =
  {|
const ROUND_US = 200000;
const MAXP = 8;

global role;
global nplayers;
global tick_flag;
global round_no;
global high_bid;
global high_bidder;
global wins[8];

interrupt fn on_irq() {
  var cause = in(IRQ_CAUSE);
  if (cause == 0) { tick_flag = 1; }
}

fn announce(d) {
  out(NET_TX, d);
  out(NET_TX, 2);
  out(NET_TX, round_no);
  out(NET_TX, high_bidder);
  out(NET_TX, high_bid);
  out(NET_TX_SEND, 0);
}

fn auctioneer_round() {
  var avail = in(NET_RX_AVAIL);
  while (avail > 0) {
    var typ = in(NET_RX);
    if (typ == 1) {
      var bidder = in(NET_RX);
      var amount = in(NET_RX);
      if (bidder > 0 && bidder < nplayers && amount > high_bid) {
        high_bid = amount;
        high_bidder = bidder;
      }
    }
    out(NET_RX_NEXT, 0);
    avail = in(NET_RX_AVAIL);
  }
  if (high_bid > 0) {
    wins[high_bidder] = wins[high_bidder] + 1;
    var d = 1;
    while (d < nplayers) {
      announce(d);
      d = d + 1;
    }
    round_no = round_no + 1;
  }
  high_bid = 0;
  high_bidder = 0;
}

fn bidder_step() {
  var n = in(INPUT_AVAIL);
  while (n > 0) {
    var amount = in(INPUT);
    if (amount > 0) {
      out(NET_TX, 0);
      out(NET_TX, 1);
      out(NET_TX, role);
      out(NET_TX, amount);
      out(NET_TX_SEND, 0);
    }
    n = n - 1;
  }
  var avail = in(NET_RX_AVAIL);
  while (avail > 0) {
    var typ = in(NET_RX);
    if (typ == 2) {
      var rn = in(NET_RX);
      var wb = in(NET_RX);
      var wa = in(NET_RX);
      wins[wb] = wins[wb] + 1;
      rn = rn + wa;
    }
    out(NET_RX_NEXT, 0);
    avail = in(NET_RX_AVAIL);
  }
}

fn main() {
  var r = in(INPUT);
  role = r & 255;
  nplayers = (r >> 8) & 255;
  ivt(on_irq);
  if (role == 0) { out(TIMER_CTL, ROUND_US); }
  ei();
  while (1) {
    var t = in(CLOCK);
    t = t;
    if (role == 0) {
      if (tick_flag) { tick_flag = 0; auctioneer_round(); }
    } else {
      bidder_step();
    }
  }
}
|}

let image_memo = ref None

let auction_image () =
  match !image_memo with
  | Some img -> img
  | None ->
    let img = Avm_mlang.Compile.compile ~stack_top:Guests.stack_top auction_source in
    image_memo := Some img;
    img

type outcome = {
  net : Net.t;
  bidders : int;
  duration_us : float;
  rounds : int;
  wins : int array;
}

let run ?(bidders = 3) ?(duration_us = 12.0e6) ?(rigged = false) ?(rsa_bits = 512)
    ?(seed = 21L) () =
  let players = bidders + 1 in
  let image = (auction_image ()).Avm_isa.Asm.words in
  let names = List.init players (fun i -> if i = 0 then "auctioneer" else Printf.sprintf "bidder%d" i) in
  let config = Config.make ~snapshot_every_us:(Some 4_000_000) Config.Avmm_rsa768 in
  let net =
    Net.create ~seed ~rsa_bits ~config
      ~images:(List.init players (fun _ -> image))
      ~mem_words:Guests.mem_words ~names ()
  in
  for i = 0 to players - 1 do
    Net.queue_input net i ((i land 0xff) lor (players lsl 8))
  done;
  let rng = Avm_util.Rng.create seed in
  let high_bid_addr = Avm_isa.Asm.symbol (auction_image ()) "g_high_bid" in
  let high_bidder_addr = Avm_isa.Asm.symbol (auction_image ()) "g_high_bidder" in
  let t = ref 0.0 in
  let step = 50_000.0 in
  while !t < duration_us do
    t := !t +. step;
    Net.run net ~until_us:!t ();
    (* each bidder bids roughly every 300 ms *)
    for i = 1 to bidders do
      if Avm_util.Rng.float rng 1.0 < step /. 300_000.0 then
        Net.queue_input net i (1 + Avm_util.Rng.int rng 1000)
    done;
    (* the crooked auctioneer rewrites the round state shortly before
       each close so that he "won" with a fantasy bid *)
    if rigged && Avm_util.Rng.float rng 1.0 < step /. 150_000.0 then begin
      let avmm = Net.node_avmm (Net.node net 0) in
      Avmm.poke avmm ~addr:high_bid_addr ~value:999_999;
      Avmm.poke avmm ~addr:high_bidder_addr ~value:0
    end
  done;
  let auctioneer = Net.node_avmm (Net.node net 0) in
  let wins_addr = Avm_isa.Asm.symbol (auction_image ()) "g_wins" in
  let wins = Array.init players (fun i -> Avmm.peek auctioneer ~addr:(wins_addr + i)) in
  let rounds =
    Avmm.peek auctioneer ~addr:(Avm_isa.Asm.symbol (auction_image ()) "g_round_no")
  in
  { net; bidders; duration_us; rounds; wins }

let audit outcome ~target =
  let net = outcome.net in
  let node = Net.node net target in
  let name = Net.node_name node in
  let log = Avmm.log (Net.node_avmm node) in
  let pool = Multiparty.create ~self:"pool" in
  Array.iter (fun n -> Multiparty.merge_auths pool ~from:(Net.node_ledger n) ~node:name)
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
    ~image:(auction_image ()).Avm_isa.Asm.words ~mem_words:Guests.mem_words ~fuel
    ~peers:(Net.peers net) ~log ()
