(* Crypto hot-path benchmark (DESIGN.md §12).

   Measures the three primitives the audit engine leans on:

   - SHA-256 throughput (MB/s), one-shot and streamed through a
     reusable context;
   - RSA sign and verify rates at the paper's 768-bit key size, with
     the verified-signature cache both cold (every verify is a full
     Montgomery exponentiation) and warm (repeats answered from the
     cache), plus the observed hit rate;
   - a verdict cross-check: a short two-party session is recorded, its
     log tampered mid-stream, and the syntactic audit run at jobs=1
     and jobs=4 with the signature cache enabled and disabled. All
     four reports must be identical and must flag the tampering — the
     cache and the domain pool may change only the cost of an audit,
     never its verdict. Any mismatch is fatal (exit 1).

   Results land in a small JSON file (default BENCH_crypto.json). *)

open Avm_core
open Avm_crypto
open Avm_tamperlog

let guest_src =
  {|
global acc;
fn main() {
  out(NET_TX, 5);
  out(NET_TX_SEND, 0);
  while (1) {
    acc = acc + (in(CLOCK) & 7);
    var avail = in(NET_RX_AVAIL);
    while (avail > 0) {
      var len = in(NET_RX_LEN);
      out(NET_TX, 2);
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

(* A compact two-party session (same shape as audit_bench's) that
   yields a log with signed authenticators to audit. *)
let record_session ~slices =
  let rng = Avm_util.Rng.create 77L in
  let ca = Identity.create_ca rng ~bits:512 "ca" in
  let alice = Identity.issue ca rng ~bits:512 "alice" in
  let bob = Identity.issue ca rng ~bits:512 "bob" in
  let config = Config.make ~snapshot_every_us:(Some 100_000) Config.Avmm_rsa768 in
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
  let auths = ref [] in
  let shuttle src dst outq =
    while not (Queue.is_empty outq) do
      let env = Queue.pop outq in
      auths := env.Wireformat.auth :: !auths;
      match Avmm.deliver dst env ~sender_cert:(cert_of env.Wireformat.src) with
      | `Ack ack | `Duplicate ack ->
        ignore (Avmm.accept_ack src ack ~acker_cert:(cert_of ack.Wireformat.acker))
      | `Rejected _ -> ()
    done
  in
  let t = ref 0.0 in
  for _ = 1 to slices do
    t := !t +. 10_000.0;
    ignore (Avmm.run_slice a ~until_us:!t);
    ignore (Avmm.run_slice b ~until_us:!t);
    shuttle a b a_out;
    shuttle b a b_out
  done;
  (b, Identity.certificate bob, [ ("alice", cert_of "alice"); ("bob", cert_of "bob") ], !auths)

(* Repetitions of [f] per second over at least [min_seconds]. *)
let per_sec ~min_seconds f =
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  while Unix.gettimeofday () -. t0 < min_seconds || !reps = 0 do
    f ();
    incr reps
  done;
  float_of_int !reps /. (Unix.gettimeofday () -. t0)

let counter name = Avm_obs.Metrics.counter (Avm_obs.Metrics.snapshot ()) name

let () =
  let out = ref "BENCH_crypto.json" in
  let smoke = ref false in
  Arg.parse
    [
      ("--out", Arg.Set_string out, "PATH  where to write the JSON report");
      ("--smoke", Arg.Set smoke, "  tiny run for CI smoke checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "crypto_bench [--out PATH] [--smoke]";
  let min_seconds = if !smoke then 0.1 else 0.5 in

  (* --- SHA-256 throughput ------------------------------------------------ *)
  let block = String.init (1 lsl 16) (fun i -> Char.chr (i land 0xff)) in
  let block_mb = float_of_int (String.length block) /. 1_048_576.0 in
  let sha_oneshot = block_mb *. per_sec ~min_seconds (fun () -> ignore (Sha256.digest block)) in
  let ctx = Sha256.init () in
  let sha_streamed =
    block_mb
    *. per_sec ~min_seconds (fun () ->
           Sha256.reset ctx;
           (* 64-byte slices: the shape of entry/authenticator hashing. *)
           let pos = ref 0 in
           while !pos < String.length block do
             Sha256.feed_sub ctx block ~pos:!pos ~len:64;
             pos := !pos + 64
           done;
           ignore (Sha256.finalize ctx))
  in
  let sha_kernel = Sha256.kernel_name Sha256.kernel in
  Printf.printf "sha256 (%s): %.1f MB/s one-shot, %.1f MB/s streamed (64B chunks)\n%!" sha_kernel
    sha_oneshot sha_streamed;

  (* --- RSA sign / verify ------------------------------------------------- *)
  let rng = Avm_util.Rng.create 2024L in
  let kp = Rsa.generate rng ~bits:768 in
  let msg = "crypto bench payload" in
  let signature = Rsa.sign kp.Rsa.private_ msg in
  let sign_rate = per_sec ~min_seconds (fun () -> ignore (Rsa.sign kp.Rsa.private_ msg)) in
  Sigcache.set_enabled false;
  let verify_cold =
    per_sec ~min_seconds (fun () ->
        if not (Rsa.verify kp.Rsa.public ~msg ~signature) then exit 1)
  in
  Sigcache.set_enabled true;
  Sigcache.clear ();
  let h0 = counter "crypto.sig_cache_hits" and m0 = counter "crypto.sig_cache_misses" in
  let verify_cached =
    per_sec ~min_seconds (fun () ->
        if not (Rsa.verify kp.Rsa.public ~msg ~signature) then exit 1)
  in
  let hits = counter "crypto.sig_cache_hits" - h0 in
  let misses = counter "crypto.sig_cache_misses" - m0 in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  Printf.printf "rsa-768: %.0f signs/s, %.0f verifies/s cold, %.0f/s cached (%.4f hit rate)\n%!"
    sign_rate verify_cold verify_cached hit_rate;

  (* --- Verdict cross-check: cache x jobs on a tampered log ---------------- *)
  let slices = if !smoke then 40 else 120 in
  let avmm, node_cert, peer_certs, auths = record_session ~slices in
  let log = Avmm.log avmm in
  let n = Log.length log in
  let forked = Log.fork log in
  Log.tamper_replace forked (n / 2) (Log.entry log 1).Entry.content;
  let ctx = Audit.ctx ~node_cert ~peer_certs ~auths () in
  let audit ~cache ~jobs =
    Sigcache.set_enabled cache;
    Sigcache.clear ();
    Audit.syntactic_of_log ~ctx ~log:forked ~par:(Audit.parallel jobs) ()
  in
  let reference = audit ~cache:false ~jobs:1 in
  if reference.Audit.failures = [] then begin
    Printf.eprintf "FATAL: tampered log went undetected\n";
    exit 1
  end;
  let crosscheck_ok =
    List.for_all
      (fun (cache, jobs) -> audit ~cache ~jobs = reference)
      [ (false, 4); (true, 1); (true, 4) ]
  in
  Sigcache.set_enabled true;
  if not crosscheck_ok then begin
    Printf.eprintf "FATAL: audit verdict depends on the signature cache or job count\n";
    exit 1
  end;
  Printf.printf "crosscheck: %d-entry tampered log, cache {on,off} x jobs {1,4} agree\n%!" n;

  let oc = open_out !out in
  Printf.fprintf oc
    "{\n\
    \  \"sha256_kernel\": \"%s\",\n\
    \  \"sha256_mb_per_sec\": %.1f,\n\
    \  \"sha256_streamed_mb_per_sec\": %.1f,\n\
    \  \"rsa_bits\": 768,\n\
    \  \"rsa_signs_per_sec\": %.1f,\n\
    \  \"rsa_verifies_per_sec\": %.1f,\n\
    \  \"rsa_verifies_cached_per_sec\": %.1f,\n\
    \  \"sig_cache_hit_rate\": %.4f,\n\
    \  \"crosscheck_entries\": %d,\n\
    \  \"crosscheck_ok\": %b\n\
     }\n"
    sha_kernel sha_oneshot sha_streamed sign_rate verify_cold verify_cached hit_rate n
    crosscheck_ok;
  close_out oc;
  Printf.printf "wrote %s\n%!" !out
