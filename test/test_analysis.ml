(* Replay-time analysis (paper §7.5) and secure local input (§7.2). *)

open Avm_analysis
module Machine = Avm_machine.Machine
module Isa = Avm_isa.Isa

let compile src = (Avm_mlang.Compile.compile ~stack_top:4096 src).Avm_isa.Asm.words

let run_with_backend ?(fuel = 500_000) image backend attachments =
  let m = Machine.create ~mem_words:4096 image in
  List.iter (fun f -> f m) attachments;
  ignore (Machine.run m backend ~fuel);
  m

(* Backend serving scripted NET_RX words. *)
let rx_backend words =
  let remaining = ref words in
  {
    Machine.null_backend with
    io_in =
      (fun port ->
        if port = Isa.port_net_rx then begin
          match !remaining with
          | [] -> 0
          | w :: rest ->
            remaining := rest;
            w
        end
        else if port = Isa.port_net_rx_avail then List.length !remaining
        else 0);
  }

(* --- Taint ----------------------------------------------------------------- *)

let test_taint_propagation () =
  (* network word -> arithmetic -> memory -> back to a register *)
  let src =
    {|
global cell;
fn main() {
  var v = in(NET_RX);     // tainted
  var w = v * 2 + 1;      // still tainted
  cell = w;               // memory tainted
  var c = cell;           // reload: tainted
  var k = 5;              // clean
  c = c + k;
  halt();
}
|}
  in
  let t = Taint.create () in
  let m = run_with_backend (compile src) (rx_backend [ 42 ]) [ Taint.attach t ] in
  ignore m;
  Alcotest.(check bool) "memory tainted" true (Taint.tainted_words t > 0);
  Alcotest.(check (list Alcotest.reject)) "no findings (benign flow)" [] (Taint.findings t)

let test_taint_clean_overwrite () =
  let src =
    {|
global cell;
fn main() {
  cell = in(NET_RX);  // taint it
  cell = 7;           // constant overwrite clears it
  halt();
}
|}
  in
  let t = Taint.create () in
  ignore (run_with_backend (compile src) (rx_backend [ 1 ]) [ Taint.attach t ]);
  Alcotest.(check int) "taint cleared" 0 (Taint.tainted_words t)

let test_taint_control_flow_hijack () =
  (* Jump through a register loaded from the network: the §7.5
     buffer-overflow-detection analogue. *)
  let asm = {|
      in r1, NET_RX
      jr r1
  target:
      halt
  |} in
  let image = (Avm_isa.Asm.assemble asm).Avm_isa.Asm.words in
  let t = Taint.create () in
  (try ignore (run_with_backend ~fuel:100 image (rx_backend [ 2 ]) [ Taint.attach t ])
   with Machine.Runtime_fault _ -> ());
  match Taint.findings t with
  | [ { kind = `Hijacked_control_flow; _ } ] -> ()
  | fs -> Alcotest.failf "expected one hijack finding, got %d" (List.length fs)

let test_taint_code_injection () =
  (* Write a network word into the instruction stream ahead, then run
     into it. *)
  let asm = {|
      in r1, NET_RX
      la r2, hole
      store r1, r2, 0
  hole:
      nop
      halt
  |} in
  let image = (Avm_isa.Asm.assemble asm).Avm_isa.Asm.words in
  let t = Taint.create () in
  (* The injected word is a valid NOP encoding so execution continues. *)
  (try
     ignore
       (run_with_backend ~fuel:100 image
          (rx_backend [ Isa.encode Isa.Nop ])
          [ Taint.attach t ])
   with Machine.Runtime_fault _ -> ());
  Alcotest.(check bool) "code injection flagged" true
    (List.exists
       (fun (f : Taint.finding) -> f.Taint.kind = `Tainted_code_executed)
       (Taint.findings t))

let test_taint_sink_policy () =
  let src =
    {|
fn main() {
  var v = in(NET_RX);
  out(DISK_SECTOR, 0);
  out(DISK_WORD, 0);
  out(DISK_WRITE, v);   // tainted word persisted
  out(CONSOLE, 9);      // clean word to console
  halt();
}
|}
  in
  let t = Taint.create ~sink_ports:[ Isa.port_disk_write ] () in
  ignore (run_with_backend (compile src) (rx_backend [ 5 ]) [ Taint.attach t ]);
  (match Taint.findings t with
  | [ { kind = `Tainted_sink p; _ } ] ->
    Alcotest.(check int) "sink port" Isa.port_disk_write p
  | fs -> Alcotest.failf "expected one sink finding, got %d" (List.length fs));
  Alcotest.(check bool) "registers report" true (List.length (Taint.tainted_registers t) >= 0)

let test_taint_input_source_optional () =
  let src = {|
fn main() {
  var v = in(INPUT);
  out(NET_TX, v);
  out(NET_TX_SEND, 0);
  halt();
}
|} in
  let image = compile src in
  let backend =
    { Machine.null_backend with io_in = (fun p -> if p = Isa.port_input then 9 else 0) }
  in
  let without = Taint.create ~sink_ports:[ Isa.port_net_tx ] () in
  ignore (run_with_backend image backend [ Taint.attach without ]);
  Alcotest.(check int) "input untainted by default" 0 (List.length (Taint.findings without));
  let with_ = Taint.create ~taint_input:true ~sink_ports:[ Isa.port_net_tx ] () in
  ignore (run_with_backend image backend [ Taint.attach with_ ]);
  Alcotest.(check int) "input tainted when enabled" 1 (List.length (Taint.findings with_))

(* --- Profile ----------------------------------------------------------------- *)

let test_profile_counts () =
  let src = {|
fn main() {
  var i = 0;
  while (i < 100) { i = i + 1; }
  halt();
}
|} in
  let p = Profile.create () in
  ignore (run_with_backend (compile src) Machine.null_backend [ Profile.attach p ]);
  Alcotest.(check bool) "instructions counted" true (Profile.instructions p > 500);
  Alcotest.(check bool) "branches counted" true (Profile.branch_count p >= 100);
  Alcotest.(check bool) "coverage sane" true
    (Profile.distinct_pcs p > 10 && Profile.distinct_pcs p <= Profile.instructions p);
  let hist = Profile.opcode_histogram p in
  Alcotest.(check bool) "histogram descending" true
    (match hist with (_, a) :: (_, b) :: _ -> a >= b | _ -> false);
  let hot = Profile.hottest p ~n:3 in
  Alcotest.(check int) "top-3" 3 (List.length hot)

let test_profile_report_renders () =
  let image = compile "fn main() { var i = 0; while (i < 10) { i = i + 1; } halt(); }" in
  let p = Profile.create () in
  ignore (run_with_backend image Machine.null_backend [ Profile.attach p ]);
  let report = Profile.report p ~image in
  Alcotest.(check bool) "mentions hotspots" true
    (String.length report > 50 && String.index_opt report ':' <> None)

(* --- Watchpoints ---------------------------------------------------------------- *)

let test_watchpoints_history () =
  let src = {|
global counter;
fn main() {
  var i = 0;
  while (i < 5) { i = i + 1; counter = i * 10; }
  halt();
}
|} in
  let image = compile src in
  let addr = Avm_isa.Asm.symbol (Avm_mlang.Compile.compile ~stack_top:4096 src) "g_counter" in
  let w = Watchpoints.create ~addrs:[ addr ] in
  ignore (run_with_backend image Machine.null_backend [ Watchpoints.attach w ]);
  let hits = Watchpoints.hits w in
  Alcotest.(check int) "five writes" 5 (List.length hits);
  Alcotest.(check (list int)) "values in order" [ 10; 20; 30; 40; 50 ]
    (List.map (fun h -> h.Watchpoints.value) hits);
  Alcotest.(check (option int)) "last value" (Some 50) (Watchpoints.last_value w addr);
  Alcotest.(check (option int)) "unwatched" None (Watchpoints.last_value w (addr + 1));
  (* icounts strictly increase *)
  let icounts = List.map (fun h -> h.Watchpoints.at_icount) hits in
  Alcotest.(check bool) "monotonic" true (List.sort compare icounts = icounts)

(* --- Forensics over a real recorded log -------------------------------------------- *)

(* A tiny accountable session that adds clock reads into [acc]: its
   image, its log entries and the address of [acc]. *)
let acc_session () =
  let rng = Avm_util.Rng.create 9L in
  let ca = Avm_crypto.Identity.create_ca rng ~bits:512 "ca" in
  let solo = Avm_crypto.Identity.issue ca rng ~bits:512 "solo" in
  let src = {|
global acc;
fn main() {
  var i = 0;
  while (i < 2000) {
    var t = in(CLOCK);
    acc = acc + (t & 7);
    i = i + 1;
  }
  halt();
}
|} in
  let image = compile src in
  let config = Avm_core.Config.make Avm_core.Config.Avmm_rsa768 in
  let avmm =
    Avm_core.Avmm.create ~identity:solo ~config ~image ~mem_words:4096
      ~peers:[ (0, "solo") ] ~on_send:(fun _ -> ()) ()
  in
  let t = ref 0.0 in
  while not (Avm_core.Avmm.halted avmm) do
    t := !t +. 100_000.0;
    ignore (Avm_core.Avmm.run_slice avmm ~until_us:!t)
  done;
  let log = Avm_core.Avmm.log avmm in
  let entries =
    Avm_tamperlog.Log.segment log ~from:1 ~upto:(Avm_tamperlog.Log.length log)
  in
  let acc_addr = Avm_isa.Asm.symbol (Avm_mlang.Compile.compile ~stack_top:4096 src) "g_acc" in
  (image, entries, acc_addr)

let test_forensics_replay () =
  (* Replay the session with all three analyses attached. *)
  let image, entries, acc_addr = acc_session () in
  let taint = Taint.create () in
  let profile = Profile.create () in
  let watch = Watchpoints.create ~addrs:[ acc_addr ] in
  let r =
    Forensics.replay ~image ~mem_words:4096 ~peers:[ (0, "solo") ] ~entries ~taint ~profile
      ~watch ()
  in
  (match r.Forensics.outcome with
  | Avm_core.Replay.Verified _ -> ()
  | o -> Alcotest.failf "forensic replay diverged: %s"
           (Format.asprintf "%a" Avm_core.Replay.pp_outcome o));
  Alcotest.(check (list Alcotest.reject)) "no taint findings" [] r.Forensics.taint_findings;
  (* Replay covers exactly the logged execution: it stops once the
     2000th clock read is reproduced, before the final store — so the
     watchpoint sees 1999 of the 2000 writes. *)
  Alcotest.(check int) "acc write history" 1999 (List.length r.Forensics.watch_hits);
  match r.Forensics.profile with
  | Some p -> Alcotest.(check bool) "profiled" true (Profile.instructions p > 10_000)
  | None -> Alcotest.fail "profile missing"

let test_forensics_watch_untraced () =
  (* A watchpoint alone installs no tracer, so replay runs the untraced
     kernel; a profile installs one, so the same replay takes the
     traced path. Both must see the same writes at the same icounts. *)
  let image, entries, acc_addr = acc_session () in
  let replay ?profile () =
    let watch = Watchpoints.create ~addrs:[ acc_addr ] in
    let r =
      Forensics.replay ~image ~mem_words:4096 ~peers:[ (0, "solo") ] ~entries ?profile ~watch ()
    in
    (match r.Forensics.outcome with
    | Avm_core.Replay.Verified _ -> ()
    | o ->
      Alcotest.failf "forensic replay diverged: %s"
        (Format.asprintf "%a" Avm_core.Replay.pp_outcome o));
    List.map (fun h -> Watchpoints.(h.at_icount, h.addr, h.old, h.value)) r.Forensics.watch_hits
  in
  let untraced = replay () in
  let profile = Profile.create () in
  let traced = replay ~profile () in
  Alcotest.(check bool) "traced path ran" true (Profile.instructions profile > 10_000);
  Alcotest.(check int) "acc write history" 1999 (List.length untraced);
  Alcotest.(check (list (pair int (pair int (pair int int)))))
    "same hits"
    (List.map (fun (i, a, o, v) -> (i, (a, (o, v)))) traced)
    (List.map (fun (i, a, o, v) -> (i, (a, (o, v)))) untraced)

(* --- Secure input (§7.2) ------------------------------------------------------------- *)

let test_secure_input_roundtrip () =
  let rng = Avm_util.Rng.create 77L in
  let d = Avm_core.Secure_input.create_device rng () in
  let a1 = Avm_core.Secure_input.attest d 42 in
  let a2 = Avm_core.Secure_input.attest d 43 in
  Alcotest.(check bool) "verifies" true
    (Avm_core.Secure_input.verify (Avm_core.Secure_input.device_public d) a1);
  Alcotest.(check bool) "counter increments" true (a2.Avm_core.Secure_input.seq > a1.Avm_core.Secure_input.seq);
  let other = Avm_core.Secure_input.create_device rng () in
  Alcotest.(check bool) "wrong device" false
    (Avm_core.Secure_input.verify (Avm_core.Secure_input.device_public other) a1)

let test_secure_input_audit () =
  let open Avm_core.Secure_input in
  let rng = Avm_util.Rng.create 78L in
  let d = create_device rng () in
  let mk_entry seq value =
    Avm_tamperlog.Entry.seal ~prev:"" ~seq
      (Avm_tamperlog.Entry.Exec
         (Avm_machine.Event.Io_in { port = Isa.port_input; value; msg = -1 }))
  in
  let a1 = attest d 100 and a2 = attest d 200 in
  (* genuine stream verifies; zero reads (empty queue) are skipped *)
  (match
     audit ~device_key:(device_public d)
       ~entries:[ mk_entry 1 100; mk_entry 2 0; mk_entry 3 200 ]
       ~attestations:[ a1; a2 ]
   with
  | Ok n -> Alcotest.(check int) "two verified" 2 n
  | Error e -> Alcotest.fail e);
  (* a forged event (no attestation) is caught *)
  (match
     audit ~device_key:(device_public d)
       ~entries:[ mk_entry 1 100; mk_entry 2 999 ]
       ~attestations:[ a1 ]
   with
  | Ok _ -> Alcotest.fail "forged input accepted"
  | Error _ -> ());
  (* value mismatch is caught *)
  match
    audit ~device_key:(device_public d) ~entries:[ mk_entry 1 150 ] ~attestations:[ a1 ]
  with
  | Ok _ -> Alcotest.fail "mismatched input accepted"
  | Error _ -> ()

let test_external_aimbot_caught_with_secure_input () =
  let open Avm_scenario in
  let spec =
    {
      Game_run.default_spec with
      duration_us = 6.0e6;
      rsa_bits = 512;
      config =
        Avm_core.Config.make ~snapshot_every_us:(Some 3_000_000) Avm_core.Config.Avmm_rsa768;
      cheat = Some (1, Cheats.external_aimbot);
    }
  in
  let o = Game_run.play spec in
  (* standard audit cannot see it *)
  let std = Game_run.audit_player o ~auditor:0 ~target:1 in
  Alcotest.(check bool) "standard audit blind" true (std.Avm_core.Audit.verdict = Ok ());
  (* §7.2 trusted keyboard catches it *)
  (match Game_run.audit_inputs o ~target:1 with
  | Ok _ -> Alcotest.fail "secure-input audit missed the external aimbot"
  | Error _ -> ());
  (* honest players still verify *)
  match Game_run.audit_inputs o ~target:2 with
  | Ok n -> Alcotest.(check bool) "honest events verified" true (n > 0)
  | Error e -> Alcotest.failf "honest player failed: %s" e

let () =
  Alcotest.run "analysis"
    [
      ( "taint",
        [
          Alcotest.test_case "propagation through arith and memory" `Quick test_taint_propagation;
          Alcotest.test_case "constant overwrite clears" `Quick test_taint_clean_overwrite;
          Alcotest.test_case "control-flow hijack" `Quick test_taint_control_flow_hijack;
          Alcotest.test_case "code injection" `Quick test_taint_code_injection;
          Alcotest.test_case "sink policy" `Quick test_taint_sink_policy;
          Alcotest.test_case "input source toggle" `Quick test_taint_input_source_optional;
        ] );
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_profile_counts;
          Alcotest.test_case "report renders" `Quick test_profile_report_renders;
        ] );
      ( "watchpoints", [ Alcotest.test_case "write history" `Quick test_watchpoints_history ] );
      ( "forensics",
        [
          Alcotest.test_case "replay with analyses" `Quick test_forensics_replay;
          Alcotest.test_case "watch hits: untraced = traced" `Quick test_forensics_watch_untraced;
        ] );
      ( "secure-input",
        [
          Alcotest.test_case "attest/verify" `Quick test_secure_input_roundtrip;
          Alcotest.test_case "audit stream" `Quick test_secure_input_audit;
          Alcotest.test_case "catches the external aimbot" `Slow
            test_external_aimbot_caught_with_secure_input;
        ] );
    ]
