(* Bechamel micro-benchmarks: one Test.make per paper table/figure,
   measuring the component cost that drives that result, plus ablation
   benches for the design choices called out in DESIGN.md §5.

   These complement bin/experiments.exe (which regenerates the actual
   tables/figures): the benches answer "how expensive is the mechanism
   itself on this host", the experiments answer "does the paper's shape
   reproduce". *)

open Bechamel
open Avm_core
open Avm_tamperlog
module Identity = Avm_crypto.Identity
module Machine = Avm_machine.Machine

(* ------------------------------------------------------------------ *)
(* Fixtures: one small recorded two-party session, reused throughout. *)

let rng = Avm_util.Rng.create 99L
let ca = Identity.create_ca rng ~bits:512 "ca"
let alice = Identity.issue ca rng ~bits:512 "alice"
let bob = Identity.issue ca rng ~bits:512 "bob"
let kp768 = Avm_crypto.Rsa.generate rng ~bits:768

let guest_src =
  {|
global acc;
fn main() {
  out(NET_TX, 1);
  out(NET_TX, 7);
  out(NET_TX_SEND, 0);
  while (1) {
    var t = in(CLOCK);
    acc = acc + (t & 3);
    var avail = in(NET_RX_AVAIL);
    while (avail > 0) {
      var len = in(NET_RX_LEN);
      out(NET_TX, 1);
      while (len > 0) { out(NET_TX, in(NET_RX) + 1); len = len - 1; }
      out(NET_RX_NEXT, 0);
      out(NET_TX_SEND, 0);
      avail = in(NET_RX_AVAIL);
    }
  }
}
|}

let guest_image = (Avm_mlang.Compile.compile ~stack_top:4096 guest_src).Avm_isa.Asm.words
let peers_a = [ (0, "alice"); (1, "bob") ]
let peers_b = [ (0, "bob"); (1, "alice") ]

let record_session ~poke_at =
  let config = Config.make ~snapshot_every_us:(Some 200_000) Config.Avmm_rsa768 in
  let a_out = Queue.create () and b_out = Queue.create () in
  let a =
    Avmm.create ~identity:alice ~config ~image:guest_image ~mem_words:4096 ~peers:peers_a
      ~on_send:(fun e -> Queue.add e a_out) ()
  in
  let b =
    Avmm.create ~identity:bob ~config ~image:guest_image ~mem_words:4096 ~peers:peers_b
      ~on_send:(fun e -> Queue.add e b_out) ()
  in
  let cert_of n = Identity.certificate (if n = "alice" then alice else bob) in
  let shuttle src dst outq =
    while not (Queue.is_empty outq) do
      let env = Queue.pop outq in
      match Avmm.deliver dst env ~sender_cert:(cert_of env.Wireformat.src) with
      | `Ack ack | `Duplicate ack ->
        ignore (Avmm.accept_ack src ack ~acker_cert:(cert_of ack.Wireformat.acker))
      | `Rejected _ -> ()
    done
  in
  let t = ref 0.0 in
  for i = 1 to 100 do
    t := !t +. 10_000.0;
    ignore (Avmm.run_slice a ~until_us:!t);
    ignore (Avmm.run_slice b ~until_us:!t);
    (match poke_at with
    | Some slice when slice = i ->
      Avmm.poke b ~addr:(Avm_isa.Asm.symbol (Avm_mlang.Compile.compile ~stack_top:4096 guest_src) "g_acc") ~value:31337
    | _ -> ());
    shuttle a b a_out;
    shuttle b a b_out
  done;
  b

let honest = record_session ~poke_at:None
let cheater = record_session ~poke_at:(Some 50)

let entries_of avmm =
  let log = Avmm.log avmm in
  Log.segment log ~from:1 ~upto:(Log.length log)

let honest_entries = entries_of honest
let honest_list_log = Log.of_entries honest_entries
let cheater_entries = entries_of cheater
let bob_ctx =
  Audit.ctx ~node_cert:(Identity.certificate bob)
    ~peer_certs:[ ("alice", Identity.certificate alice); ("bob", Identity.certificate bob) ]
    ()

(* The honest log as a live compressed log stands every 50 appends
   (a fork pins each state), for the online ingest bench. *)
let live_log_states =
  let log = Log.create ~backend:Segment_store.Compressed () in
  let states =
    List.fold_left
      (fun acc (e : Entry.t) ->
        ignore (Log.append log e.Entry.content : Entry.t);
        if Log.length log mod 50 = 0 then Log.fork log :: acc else acc)
      [] honest_entries
  in
  List.rev (Log.fork log :: states)

let honest_segment_raw = Log.encode_segment honest_entries
let honest_segment_packed = Avm_compress.Codec.compress honest_segment_raw

(* A long-lived machine spinning a loop, for interpreter-rate benches. *)
let spin_machine =
  let src = "movi r1, 0\nloop:\naddi r1, r1, 1\njmp loop\n" in
  Machine.create ~mem_words:1024 (Avm_isa.Asm.assemble src).Avm_isa.Asm.words

(* A machine with dirty pages, for snapshot benches. *)
let snap_machine = Machine.create ~mem_words:32768 guest_image
let snap_tracker = Avm_machine.Snapshot.tracker ()
let _ = Avm_machine.Snapshot.take snap_tracker snap_machine

(* A short kv-store run with snapshots every 5 virtual seconds, for the
   per-check cost of Figure 9. *)
let kv =
  Avm_scenario.Kv_run.run ~duration_us:20.0e6 ~snapshot_every_us:5_000_000 ~rsa_bits:512 ()

let sha_buf = String.init 4096 (fun i -> Char.chr (i land 0xff))
let sample_log = Log.create ()

let sample_event =
  Avm_machine.Event.Io_in { port = Avm_isa.Isa.port_clock; value = 123456; msg = -1 }

let clock_opt = Clock_opt.create ~threshold_us:100 ~base_delay_us:150 ~max_delay_us:1000 ()
let clock_now = ref 0.0

(* ------------------------------------------------------------------ *)
(* The benches. *)

let stage = Staged.stage

let tests =
  [
    (* Table 1: detecting a cheat = replaying until divergence. *)
    Test.make ~name:"table1/replay-detects-poke"
      (stage (fun () ->
           match
             Replay.replay ~image:guest_image ~mem_words:4096 ~peers:peers_b
               ~entries:cheater_entries ()
           with
           | Replay.Diverged _ -> ()
           | Replay.Verified _ -> failwith "cheat missed"));
    (* Figure 3: log growth = cost of appending execution events. *)
    Test.make ~name:"fig3/log-append-exec-event"
      (stage (fun () -> ignore (Log.append sample_log (Entry.Exec sample_event))));
    Test.make ~name:"fig3/authenticator-issue-rsa512"
      (stage (fun () ->
           let e = Log.entry sample_log 1 in
           ignore (Auth.make bob ~entry:e ~prev_hash:Log.genesis_hash)));
    (* Figure 4: compressed-log series. *)
    Test.make ~name:"fig4/compress-recorded-log"
      (stage (fun () -> ignore (Avm_compress.Codec.compress honest_segment_raw)));
    Test.make ~name:"fig4/decompress-recorded-log"
      (stage (fun () -> ignore (Avm_compress.Codec.decompress honest_segment_packed)));
    (* §6.5: the clock-read optimization itself. *)
    Test.make ~name:"s6.5/clock-opt-on-read"
      (stage (fun () ->
           clock_now := !clock_now +. 2.0;
           ignore (Clock_opt.on_read clock_opt ~now_us:!clock_now)));
    (* §6.6: the two audit phases, over an in-memory store and
       streamed off the compressed one (the AVMM's log is compressed at
       rest). *)
    Test.make ~name:"s6.6/syntactic-check"
      (stage (fun () ->
           ignore
             (Audit.syntactic_of_log
                ~ctx:bob_ctx
                ~log:honest_list_log ())));
    Test.make ~name:"s6.6/syntactic-streaming-compressed"
      (stage (fun () ->
           ignore
             (Audit.syntactic_of_log
                ~ctx:bob_ctx
                ~log:(Avmm.log honest) ())));
    Test.make ~name:"s6.6/semantic-replay-chunked"
      (stage (fun () ->
           let log = Avmm.log honest in
           match
             Replay.replay_chunks ~image:guest_image ~mem_words:4096 ~peers:peers_b
               ~chunks:(Log.chunk_seq log ~from:1 ~upto:(Log.length log)) ()
           with
           | Replay.Verified _ -> ()
           | Replay.Diverged _ -> failwith "honest log diverged"));
    Test.make ~name:"s6.6/semantic-replay-1s-guest"
      (stage (fun () ->
           match
             Replay.replay ~image:guest_image ~mem_words:4096 ~peers:peers_b
               ~entries:honest_entries ()
           with
           | Replay.Verified _ -> ()
           | Replay.Diverged _ -> failwith "honest log diverged"));
    (* Figure 5: the RTT ladder is driven by signature costs. *)
    Test.make ~name:"fig5/rsa768-sign"
      (stage (fun () -> ignore (Avm_crypto.Rsa.sign kp768.Avm_crypto.Rsa.private_ "ping")));
    Test.make ~name:"fig5/rsa768-verify"
      (let s = Avm_crypto.Rsa.sign kp768.Avm_crypto.Rsa.private_ "ping" in
       stage (fun () ->
           ignore (Avm_crypto.Rsa.verify kp768.Avm_crypto.Rsa.public ~msg:"ping" ~signature:s)));
    (* Figures 6/7: frame rates derive from interpreter throughput. *)
    Test.make ~name:"fig6-7/machine-1000-instructions"
      (stage (fun () -> ignore (Machine.run spin_machine Machine.null_backend ~fuel:1000)));
    (* The same 1000 instructions through the poll-free kernel replay
       and the AVMM drive between events (DESIGN.md §22). *)
    Test.make ~name:"fig6-7/machine-run-until-1000"
      (stage (fun () ->
           Machine.run_until spin_machine Machine.null_backend
             ~limit:(Machine.icount spin_machine + 1000)));
    (* Figure 8: online auditing = incremental engine cranking. *)
    Test.make ~name:"fig8/online-engine-feed-and-crank"
      (stage (fun () ->
           let e = Replay.engine ~image:guest_image ~mem_words:4096 ~peers:peers_b () in
           Replay.feed e honest_entries;
           let rec drain () =
             match Replay.crank e ~fuel:200_000 with
             | `Blocked -> ()
             | `Fuel_exhausted -> drain ()
             | `Fault _ -> failwith "fault"
           in
           drain ()));
    (* Figure 8, ingest side: a session reading a live compressed log
       slice by slice, 50 entries at a time, across every seal the
       producer made (DESIGN.md §26). Signatures are verified once:
       the signature cache is warm after the first run, so this times
       the chain walk and the segment reads. *)
    Test.make ~name:"fig8/online-ingest-live-log"
      (stage (fun () ->
           let s =
             Audit.Session.open_session ~ctx:bob_ctx ~image:guest_image ~mem_words:4096
               ~high_watermark:max_int ~peers:peers_b ()
           in
           List.iter
             (fun log -> ignore (Audit.Session.ingest s log : [ `Accepted | `Backpressure of int ]))
             live_log_states));
    (* Figure 9 / §6.12: snapshot mechanics. *)
    Test.make ~name:"fig9/incremental-snapshot-3-dirty-pages"
      (stage (fun () ->
           Avm_machine.Memory.write (Machine.mem snap_machine) 100 1;
           Avm_machine.Memory.write (Machine.mem snap_machine) 2000 2;
           Avm_machine.Memory.write (Machine.mem snap_machine) 30000 3;
           ignore (Avm_machine.Snapshot.take snap_tracker snap_machine)));
    (* One uncached spot check of a 1-chunk: the state download and its
       authentication, the fingerprint and the replay (DESIGN.md §23). *)
    Test.make ~name:"fig9/spot-check-chunk-k1"
      (stage (fun () ->
           ignore (Avm_scenario.Kv_run.audit_server_chunk kv ~start_snapshot:1 ~k:1)));
    (* The from-scratch tree the leaf-hash cache avoids rebuilding. *)
    Test.make ~name:"fig9/merkle-root-128-pages"
      (stage (fun () ->
           let mem = Machine.mem snap_machine in
           ignore
             (Avm_crypto.Merkle.of_leaves
                (List.init (Avm_machine.Memory.page_count mem) (Avm_machine.Memory.page_data mem)))));
    (* Substrate ablations (DESIGN.md §5). *)
    Test.make ~name:"ablation/sha256-4KiB"
      (stage (fun () -> ignore (Avm_crypto.Sha256.digest sha_buf)));
    Test.make ~name:"ablation/entry-seal-hash-chain"
      (stage (fun () ->
           ignore
             (Entry.seal ~prev:Log.genesis_hash ~seq:1
                (Entry.Exec sample_event))));
    Test.make ~name:"ablation/rsa512-sign-vs-768"
      (stage (fun () -> ignore (Identity.sign bob "x")));
    Test.make ~name:"ablation/mlang-compile-game"
      (stage (fun () ->
           ignore (Avm_mlang.Compile.compile ~stack_top:32768 Avm_scenario.Guests.game_source)));
    (* §7.5 ablation: what taint tracking adds to a replay. *)
    Test.make ~name:"ablation/replay-with-taint-tracking"
      (stage (fun () ->
           let taint = Avm_analysis.Taint.create () in
           let r =
             Avm_analysis.Forensics.replay ~image:guest_image ~mem_words:4096 ~peers:peers_b
               ~entries:honest_entries ~taint ()
           in
           match r.Avm_analysis.Forensics.outcome with
           | Avm_core.Replay.Verified _ -> ()
           | Avm_core.Replay.Diverged _ -> failwith "diverged"));
    (* §7.2 extension: per-keystroke attestation cost. *)
    Test.make ~name:"ablation/secure-input-attest"
      (let device = Secure_input.create_device (Avm_util.Rng.create 4L) () in
       stage (fun () -> ignore (Secure_input.attest device 42)));
  ]

(* ------------------------------------------------------------------ *)
(* Runner: OLS estimate of monotonic-clock time per run. *)

let () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~kde:None () in
  Printf.printf "%-42s  %14s  %8s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> nan
          in
          let pretty =
            if Float.is_nan ns then "-"
            else if ns > 1.0e9 then Printf.sprintf "%.2f s" (ns /. 1.0e9)
            else if ns > 1.0e6 then Printf.sprintf "%.2f ms" (ns /. 1.0e6)
            else if ns > 1.0e3 then Printf.sprintf "%.2f us" (ns /. 1.0e3)
            else Printf.sprintf "%.0f ns" ns
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "-"
          in
          Printf.printf "%-42s  %14s  %8s\n%!" name pretty r2)
        analyzed)
    tests
