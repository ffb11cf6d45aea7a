open Avm_scenario
open Avm_core

(* Scenario tests exercise whole-system behaviour; durations are kept
   short and keys small so the suite stays fast. *)

let quick_spec ?cheat ?(duration = 6.0e6) ?(level = Config.Avmm_rsa768) () =
  {
    Game_run.players = 3;
    duration_us = duration;
    config = Config.make ~snapshot_every_us:(Some 3_000_000) level;
    cheat;
    frame_cap = false;
    seed = 42L;
    rsa_bits = 512;
    faults = None;
  }

let test_guests_compile () =
  Alcotest.(check bool) "game" true (Array.length (Guests.game_image ()).Avm_isa.Asm.words > 100);
  Alcotest.(check bool) "kvstore" true
    (Array.length (Guests.kvstore_image ()).Avm_isa.Asm.words > 100)

let test_game_symbols_exist () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Guests.game_symbol s >= 0))
    [ "g_ammo"; "g_myx"; "g_myy"; "g_phealth"; "g_pscore"; "g_frame_no" ]

let test_patch_missing_anchor_fails () =
  Alcotest.(check bool) "missing anchor" true
    (match Guests.game_with_patch ~old:"no such code anywhere" ~new_:"x" with
    | _ -> false
    | exception Failure _ -> true)

let test_input_encoding () =
  Alcotest.(check int) "role" 0x0300 (Guests.input_role ~role:0 ~nplayers:3);
  let mv = Guests.input_move ~dx:(-128) ~dy:127 in
  Alcotest.(check int) "move tag" 1 (mv lsr 28);
  let aim = Guests.input_aim ~angle:0xffff in
  Alcotest.(check int) "aim tag" 2 (aim lsr 28);
  Alcotest.(check int) "fire tag" 3 (Guests.input_fire lsr 28)

let test_cheat_catalog_shape () =
  Alcotest.(check int) "26 cheats" 26 (List.length Cheats.catalog);
  let class2 = List.filter (fun c -> c.Cheats.class2) Cheats.catalog in
  Alcotest.(check int) "4 any-implementation" 4 (List.length class2);
  (* names unique *)
  let names = List.map (fun c -> c.Cheats.name) Cheats.catalog in
  Alcotest.(check int) "unique names" 26 (List.length (List.sort_uniq compare names));
  (* all patched images compile and differ from the reference *)
  List.iter
    (fun c ->
      match c.Cheats.mechanism with
      | Cheats.Image_patch _ ->
        let img = Cheats.image_for c in
        Alcotest.(check bool) (c.Cheats.name ^ " differs") true
          (img.Avm_isa.Asm.words <> (Guests.game_image ()).Avm_isa.Asm.words)
      | _ -> ())
    Cheats.catalog

let test_bots_deterministic () =
  let collect () =
    let bot = Bots.create ~seed:7L in
    let acc = ref [] in
    for i = 1 to 20 do
      Bots.tick bot
        ~now_us:(float_of_int i *. 100_000.0)
        ~last_us:(float_of_int (i - 1) *. 100_000.0)
        (fun v -> acc := v :: !acc)
    done;
    !acc
  in
  Alcotest.(check (list int)) "deterministic" (collect ()) (collect ())

let test_game_runs_and_audits () =
  let o = Game_run.play (quick_spec ()) in
  Array.iter
    (fun fps -> Alcotest.(check bool) "renders frames" true (fps > 50.0))
    o.Game_run.fps;
  for target = 0 to 2 do
    let report = Game_run.audit_player o ~auditor:((target + 1) mod 3) ~target in
    match report.Audit.verdict with
    | Ok () -> ()
    | Error e -> Alcotest.failf "honest player %d failed audit: %s" target e
  done

let test_partition_heal_verdicts_parallel () =
  (* ISSUE 4 acceptance: 20% loss plus a partition window that heals
     mid-session; every player's log still converges (all sends acked
     once the wire clears) and the audit verdict is identical whether
     the syntactic pass runs on 1 lane or 4. *)
  let d = 3.0e6 in
  let faults =
    Avm_netsim.Faults.make ~drop:0.2 ~until_us:(0.8 *. d)
      ~partitions:[ { Avm_netsim.Faults.from_us = 0.2 *. d; to_us = 0.4 *. d; node = 1 } ]
      ()
  in
  let spec =
    {
      (quick_spec ~duration:d ()) with
      Game_run.faults = Some faults;
      config =
        (* fast backoff so the post-heal tail converges within 3 s *)
        Config.make
          ~snapshot_every_us:(Some 1_500_000)
          ~retrans_base_us:60_000.0 ~retrans_cap_us:500_000.0 Config.Avmm_rsa768;
    }
  in
  let o = Game_run.play spec in
  Alcotest.(check bool) "loss caused retransmissions" true
    (Avm_netsim.Net.retransmissions o.Game_run.net > 0);
  for target = 0 to 2 do
    let auditor = (target + 1) mod 3 in
    let seq = Game_run.audit_player ~par:Audit.sequential o ~auditor ~target in
    let par = Game_run.audit_player ~par:(Audit.parallel 4) o ~auditor ~target in
    Alcotest.(check bool)
      (Printf.sprintf "player %d: same verdict at 1 and 4 lanes" target)
      true
      (seq.Audit.verdict = par.Audit.verdict);
    match seq.Audit.verdict with
    | Ok () -> ()
    | Error e -> Alcotest.failf "honest player %d failed under faults: %s" target e
  done

let test_fps_ladder () =
  let fps level =
    let o = Game_run.play (quick_spec ~level ()) in
    Array.fold_left ( +. ) 0.0 o.Game_run.fps /. 3.0
  in
  let bare = fps Config.Bare_hw in
  let avmm = fps Config.Avmm_rsa768 in
  Alcotest.(check bool) "bare faster" true (bare > avmm);
  let drop = 1.0 -. (avmm /. bare) in
  Alcotest.(check bool) "drop in 5-25% band (paper: 13%)" true (drop > 0.05 && drop < 0.25)

let test_representative_cheats_detected () =
  (* One representative per mechanism family; Table 1 in full runs all
     26 via bin/experiments. *)
  List.iter
    (fun name ->
      let c = Cheats.find name in
      Alcotest.(check bool) (name ^ " detected") true
        (Experiments.check_cheat ~scale:Experiments.Quick c))
    [ "aimbot-zeus"; "wallhack-driver"; "speedhack-4x"; "unlimited-ammo"; "scorehack" ]

let test_external_aimbot_not_detected () =
  Alcotest.(check bool) "external aimbot passes audits" false
    (Experiments.check_cheat ~scale:Experiments.Quick Cheats.external_aimbot)

let test_kv_run_and_spot_check () =
  let o = Kv_run.run ~duration_us:30.0e6 ~snapshot_every_us:5_000_000 ~rsa_bits:512 () in
  Alcotest.(check bool) "client made progress" true (o.Kv_run.client_ops > 10);
  Alcotest.(check bool) "snapshots taken" true (List.length o.Kv_run.server_snapshots >= 4);
  let rep = Kv_run.audit_server_chunk o ~start_snapshot:1 ~k:2 in
  (match rep.Spot_check.outcome with
  | Replay.Verified _ -> ()
  | out -> Alcotest.failf "chunk diverged: %s" (Format.asprintf "%a" Replay.pp_outcome out));
  Alcotest.(check bool) "replayed something" true (rep.Spot_check.replay_instructions > 1000)

let test_kv_full_audit_cost_positive () =
  let o = Kv_run.run ~duration_us:20.0e6 ~snapshot_every_us:5_000_000 ~rsa_bits:512 () in
  let instr, bytes = Kv_run.full_audit_cost o in
  Alcotest.(check bool) "instructions" true (instr > 100_000);
  Alcotest.(check bool) "compressed bytes" true (bytes > 1000)

let test_fig5_shape () =
  let rows = Experiments.fig5 ~scale:Experiments.Quick () in
  Alcotest.(check int) "five configs" 5 (List.length rows);
  let medians = List.map (fun r -> r.Experiments.median_us) rows in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone ladder" true (monotone medians)

let test_frame_cap_holds () =
  let spec = { (quick_spec ~duration:5.0e6 ()) with Game_run.frame_cap = true } in
  let o = Game_run.play spec in
  Array.iter
    (fun fps -> Alcotest.(check bool) "capped near 72" true (fps < 75.0))
    o.Game_run.fps

let test_recording_roundtrip () =
  let o = Game_run.play (quick_spec ~duration:3.0e6 ()) in
  let r = Recording.of_game_node o 1 in
  let r2 = Recording.decode (Recording.encode r) in
  Alcotest.(check string) "node" r.Recording.node r2.Recording.node;
  Alcotest.(check int) "entries" (List.length r.Recording.entries)
    (List.length r2.Recording.entries);
  Alcotest.(check int) "auths" (List.length r.Recording.auths) (List.length r2.Recording.auths);
  Alcotest.(check int) "certs" (List.length r.Recording.certificates)
    (List.length r2.Recording.certificates);
  (* file round trip *)
  let path = Filename.temp_file "avmrec" ".bin" in
  Recording.save ~path r;
  let r3 = Recording.load ~path in
  Sys.remove path;
  Alcotest.(check bool) "file identical" true (Recording.encode r3 = Recording.encode r);
  (* and the recording audits clean end-to-end, like bin/avm_audit *)
  let node_cert = List.assoc r.Recording.node r.Recording.certificates in
  let report =
    Avm_core.Audit.full
      ~ctx:
        (Avm_core.Audit.ctx ~node_cert ~peer_certs:r.Recording.certificates
           ~auths:r.Recording.auths ())
      ~image:(Recording.image_of_scenario r.Recording.scenario)
      ~mem_words:r.Recording.mem_words ~peers:r.Recording.peers ~entries:r.Recording.entries ()
  in
  Alcotest.(check bool) "audits clean" true (report.Avm_core.Audit.verdict = Ok ())

let test_recording_garbage_rejected () =
  Alcotest.(check bool) "garbage" true
    (match Recording.decode "not a recording at all" with
    | _ -> false
    | exception Avm_util.Wire.Malformed _ -> true)

(* A recording whose log holds one SEND with its nonce spelled
   [nonce] verbatim: the segment is written by hand, bypassing the
   canonical writer, and spliced in for the empty log of a real
   recording encoding. *)
let recording_with_nonce nonce =
  let module W = Avm_util.Wire in
  let content = W.writer () in
  W.bytes content "bob";
  W.raw content nonce;
  W.bytes content "hi";
  let seg = W.writer () in
  W.varint seg 1 (* entries *);
  W.varint seg 1 (* seq *);
  W.u8 seg 1 (* SEND *);
  W.bytes seg (W.contents content);
  let rng = Avm_util.Rng.create 99L in
  let ca = Avm_crypto.Identity.create_ca rng ~bits:512 "ca" in
  let empty =
    Recording.encode
      {
        Recording.scenario = Recording.Game;
        node = "alice";
        mem_words = 4096;
        ca_public = Avm_crypto.Identity.ca_public ca;
        certificates = [];
        peers = [];
        entries = [];
        auths = [];
      }
  in
  (* tail of [empty]: the one-byte segment [count 0], then [auths 0] *)
  let cut = String.length empty - 3 in
  Alcotest.(check string) "empty log tail" "\x01\x00\x00" (String.sub empty cut 3);
  let w = W.writer () in
  W.raw w (String.sub empty 0 cut);
  W.bytes w (W.contents seg);
  W.varint w 0;
  W.contents w

let test_recording_noncanonical_varint_rejected () =
  (match (Recording.decode (recording_with_nonce "\x05")).Recording.entries with
  | [ e ] ->
    Alcotest.(check bool) "canonical nonce" true
      (e.Avm_tamperlog.Entry.content
      = Avm_tamperlog.Entry.Send { dest = "bob"; nonce = 5; payload = "hi" })
  | _ -> Alcotest.fail "expected one entry");
  List.iter
    (fun (name, nonce) ->
      match Recording.decode (recording_with_nonce nonce) with
      | _ -> Alcotest.failf "%s nonce decoded" name
      | exception Avm_util.Wire.Malformed _ -> ())
    [ ("non-minimal", "\x80\x00"); ("above max_int", String.make 8 '\xff' ^ "\x7f") ]

let test_auction_honest_and_rigged () =
  let honest = Auction_run.run ~duration_us:8.0e6 () in
  Alcotest.(check bool) "rounds happened" true (honest.Auction_run.rounds > 5);
  Alcotest.(check int) "honest auctioneer never wins" 0 honest.Auction_run.wins.(0);
  (match (Auction_run.audit honest ~target:0).Audit.verdict with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest auctioneer failed audit: %s" e);
  (* bidders audit clean too *)
  (match (Auction_run.audit honest ~target:1).Audit.verdict with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bidder failed audit: %s" e);
  let rigged = Auction_run.run ~duration_us:8.0e6 ~rigged:true () in
  Alcotest.(check bool) "rigging works" true (rigged.Auction_run.wins.(0) > 0);
  match (Auction_run.audit rigged ~target:0).Audit.verdict with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "rigged auctioneer passed audit"

let test_p2p_fair_and_freerider () =
  let fair = P2p_run.run ~duration_us:15.0e6 () in
  Alcotest.(check bool) "everyone uploads" true
    (Array.for_all (fun s -> s > 0) fair.P2p_run.served);
  (match (P2p_run.audit fair ~target:0).Audit.verdict with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fair peer failed audit: %s" e);
  let bad = P2p_run.run ~duration_us:15.0e6 ~freerider:(Some 1) () in
  Alcotest.(check int) "freerider uploads nothing" 0 bad.P2p_run.served.(1);
  match (P2p_run.audit bad ~target:1).Audit.verdict with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "freerider passed audit"

(* --- fleet -------------------------------------------------------------------------------------- *)

let test_fleet_run () =
  let spec =
    {
      Fleet_run.default_spec with
      Fleet_run.nodes = 30;
      witnesses = 2;
      epochs = 2;
      activity = 0.2;
      cheat_frac = 0.05;
    }
  in
  let o = Fleet_run.run ~par:Audit.sequential spec in
  let o2 = Fleet_run.run ~par:(Audit.parallel 2) spec in
  Alcotest.(check int) "all pairs audited" (30 * 2 * 2) (List.length o.Fleet_run.verdicts);
  List.iter
    (fun (r : Fleet_run.epoch_report) ->
      Alcotest.(check (float 1e-9)) "full coverage" 1.0 r.Fleet_run.coverage)
    o.Fleet_run.reports;
  Alcotest.(check bool) "cheats planted" true (o.Fleet_run.cheats <> []);
  Alcotest.(check (list int)) "no cheat missed" [] o.Fleet_run.missed;
  Alcotest.(check (list int)) "no honest node flagged" [] o.Fleet_run.false_flagged;
  Alcotest.(check string) "verdicts invariant under auditor jobs" (Fleet_run.signature o)
    (Fleet_run.signature o2);
  Alcotest.(check bool) "events flowed" true (o.Fleet_run.sim_events > 0)

(* Deduplication does the same work at any lane count: a lane that
   looks up a fingerprint another lane is replaying waits for its
   verdict instead of replaying it too, so hit, miss and spot counts
   at jobs 2 equal those at jobs 1. Lanes race only now and then at
   this size, so jobs 2 runs three times. *)
let test_fleet_cache_counts_lane_invariant () =
  let spec =
    {
      Fleet_run.default_spec with
      Fleet_run.nodes = 100;
      witnesses = 2;
      epochs = 2;
      activity = 0.1;
      cheat_frac = 0.05;
      spot_rate = 3;
    }
  in
  let counts (o : Fleet_run.outcome) =
    match o.Fleet_run.cache with
    | Some s -> (s.Replay_cache.hits, s.Replay_cache.misses, s.Replay_cache.spot_checks)
    | None -> Alcotest.fail "dedup run without a cache"
  in
  let one = Fleet_run.run ~par:Audit.sequential spec in
  Alcotest.(check bool) "cheats planted" true (one.Fleet_run.cheats <> []);
  let h, _, _ = counts one in
  Alcotest.(check bool) "the cache hit" true (h > 0);
  for _ = 1 to 3 do
    let two = Fleet_run.run ~par:(Audit.parallel 2) spec in
    Alcotest.(check (triple int int int)) "hits, misses, spots at jobs 1 = jobs 2" (counts one)
      (counts two);
    Alcotest.(check string) "verdicts" (Fleet_run.signature one) (Fleet_run.signature two)
  done

let () =
  Alcotest.run "scenario"
    [
      ( "guests",
        [
          Alcotest.test_case "compile" `Quick test_guests_compile;
          Alcotest.test_case "symbols" `Quick test_game_symbols_exist;
          Alcotest.test_case "patch anchors checked" `Quick test_patch_missing_anchor_fails;
          Alcotest.test_case "input encoding" `Quick test_input_encoding;
        ] );
      ( "cheats",
        [
          Alcotest.test_case "catalog shape" `Quick test_cheat_catalog_shape;
          Alcotest.test_case "representative detection" `Slow test_representative_cheats_detected;
          Alcotest.test_case "external aimbot invisible" `Slow test_external_aimbot_not_detected;
        ] );
      ( "game",
        [
          Alcotest.test_case "bots deterministic" `Quick test_bots_deterministic;
          Alcotest.test_case "runs and audits" `Slow test_game_runs_and_audits;
          Alcotest.test_case "partition+loss heals, verdicts lane-invariant" `Slow
            test_partition_heal_verdicts_parallel;
          Alcotest.test_case "fps ladder" `Slow test_fps_ladder;
          Alcotest.test_case "frame cap holds" `Slow test_frame_cap_holds;
        ] );
      ( "kvstore",
        [
          Alcotest.test_case "run + spot check" `Slow test_kv_run_and_spot_check;
          Alcotest.test_case "full audit cost" `Slow test_kv_full_audit_cost_positive;
        ] );
      ( "p2p",
        [ Alcotest.test_case "fair swarm vs freerider" `Slow test_p2p_fair_and_freerider ] );
      ( "auction",
        [ Alcotest.test_case "honest vs rigged" `Slow test_auction_honest_and_rigged ] );
      ( "recording",
        [
          Alcotest.test_case "roundtrip + audit" `Slow test_recording_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_recording_garbage_rejected;
          Alcotest.test_case "non-canonical varints rejected" `Quick
            test_recording_noncanonical_varint_rejected;
        ] );
      ( "experiments", [ Alcotest.test_case "fig5 shape" `Quick test_fig5_shape ] );
      ( "fleet",
        [
          Alcotest.test_case "witness audits catch the cheating minority" `Slow test_fleet_run;
          Alcotest.test_case "cache counts equal at jobs 1 and 2" `Slow
            test_fleet_cache_counts_lane_invariant;
        ] );
    ]
