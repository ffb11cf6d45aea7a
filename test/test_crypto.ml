open Avm_crypto
module Rng = Avm_util.Rng

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- SHA-256 -------------------------------------------------------------- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
    (* exactly one block of padding boundary: 55, 56, 64 bytes *)
    ( String.make 55 'a',
      "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318" );
    ( String.make 56 'a',
      "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a" );
    ( String.make 64 'a',
      "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb" );
  ]

let test_sha_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%d bytes" (String.length input))
        expected (Sha256.hex input))
    sha_vectors

let test_sha_streaming_chunks () =
  (* Feeding in odd-sized chunks must equal one-shot hashing. *)
  let data = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  let sizes = [ 1; 7; 63; 64; 65; 100; 500; 200 ] in
  List.iter
    (fun n ->
      let take = min n (String.length data - !pos) in
      Sha256.feed ctx (String.sub data !pos take);
      pos := !pos + take)
    sizes;
  Alcotest.(check string) "streaming" (Sha256.hex data)
    (Avm_util.Hex.encode (Sha256.finalize ctx))

let test_sha_million_a () =
  (* FIPS 180-4 long-message vector: one million 'a's, fed in uneven
     chunks so the multi-block streaming path is exercised. *)
  let chunk = String.make 9973 'a' in
  let ctx = Sha256.init () in
  let left = ref 1_000_000 in
  while !left > 0 do
    let take = min !left (String.length chunk) in
    Sha256.feed_sub ctx chunk ~pos:0 ~len:take;
    left := !left - take
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Avm_util.Hex.encode (Sha256.finalize ctx))

let test_sha_feed_sub () =
  let data = "..prefix.." ^ String.make 200 'q' ^ "..suffix.." in
  let ctx = Sha256.init () in
  Sha256.feed_sub ctx data ~pos:10 ~len:200;
  Alcotest.(check string) "feed_sub window" (Sha256.hex (String.make 200 'q'))
    (Avm_util.Hex.encode (Sha256.finalize ctx));
  let b = Bytes.of_string data in
  Sha256.reset ctx;
  Sha256.feed_bytes ctx b ~pos:10 ~len:200;
  Alcotest.(check string) "feed_bytes window" (Sha256.hex (String.make 200 'q'))
    (Avm_util.Hex.encode (Sha256.finalize ctx))

let test_sha_feed_buffer () =
  let buf = Buffer.create 16 in
  for i = 0 to 999 do
    Buffer.add_char buf (Char.chr (i mod 251))
  done;
  Alcotest.(check string) "digest_buffer"
    (Sha256.digest (Buffer.contents buf))
    (Sha256.digest_buffer buf)

let test_sha_reset_reuse () =
  (* A context survives finalize + reset without bleeding state. *)
  let ctx = Sha256.init () in
  Sha256.feed ctx "abc";
  let first = Sha256.finalize ctx in
  Sha256.reset ctx;
  Sha256.feed ctx "abc";
  Alcotest.(check string) "same digest after reset" (Avm_util.Hex.encode first)
    (Avm_util.Hex.encode (Sha256.finalize ctx));
  Sha256.reset ctx;
  Alcotest.(check string) "empty after reset"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Avm_util.Hex.encode (Sha256.finalize ctx))

let prop_sha_digest_list =
  qtest "sha256: digest_list = digest of concat"
    QCheck2.Gen.(list_size (int_range 0 5) string)
    (fun parts ->
      String.equal (Sha256.digest_list parts) (Sha256.digest (String.concat "" parts)))

let test_sha_length () =
  Alcotest.(check int) "32 bytes" 32 (String.length (Sha256.digest "x"));
  Alcotest.(check int) "digest_length" 32 Sha256.digest_length

(* Each compressor this host can run, against the from-spec oracle:
   every length across the padding boundaries, then random inputs fed
   through all four entry points at random split points. A kernel the
   host lacks is reported as skipped, not passed. *)
let test_sha_kernel kernel () =
  if not (Sha256.available kernel) then Alcotest.skip ();
  let oracle = Crypto_backend.Reference.digest in
  let ctx = Sha256.init_kernel kernel in
  for len = 0 to 300 do
    let s = String.init len (fun i -> Char.chr (((i * 131) + len) land 0xff)) in
    Sha256.reset ctx;
    Sha256.feed ctx s;
    Alcotest.(check string) (Printf.sprintf "length %d" len) (Avm_util.Hex.encode (oracle s))
      (Avm_util.Hex.encode (Sha256.finalize ctx))
  done;
  let rng = Rng.create 0x5a256L in
  for round = 1 to 200 do
    let len = Rng.int rng 4097 in
    let s = Rng.bytes rng len in
    Sha256.reset ctx;
    let pos = ref 0 in
    while !pos < len do
      let take = min (len - !pos) (Rng.int rng 200) in
      (match Rng.int rng 4 with
      | 0 -> Sha256.feed ctx (String.sub s !pos take)
      | 1 -> Sha256.feed_sub ctx s ~pos:!pos ~len:take
      | 2 -> Sha256.feed_bytes ctx (Bytes.of_string s) ~pos:!pos ~len:take
      | _ ->
        let b = Buffer.create take in
        Buffer.add_substring b s !pos take;
        Sha256.feed_buffer ctx b);
      pos := !pos + take
    done;
    Alcotest.(check string) (Printf.sprintf "round %d, %d bytes" round len)
      (Avm_util.Hex.encode (oracle s))
      (Avm_util.Hex.encode (Sha256.finalize ctx))
  done

(* --- Bignum ------------------------------------------------------------------ *)

let small_pair = QCheck2.Gen.(pair (int_range 0 1_000_000_000) (int_range 0 1_000_000_000))

let prop_bignum_add =
  qtest "bignum: add matches int" small_pair (fun (a, b) ->
      Bignum.to_int (Bignum.add (Bignum.of_int a) (Bignum.of_int b)) = a + b)

let prop_bignum_sub =
  qtest "bignum: sub matches int" small_pair (fun (a, b) ->
      let hi = max a b and lo = min a b in
      Bignum.to_int (Bignum.sub (Bignum.of_int hi) (Bignum.of_int lo)) = hi - lo)

let prop_bignum_mul =
  qtest "bignum: mul matches int"
    QCheck2.Gen.(pair (int_range 0 2_000_000) (int_range 0 2_000_000))
    (fun (a, b) -> Bignum.to_int (Bignum.mul (Bignum.of_int a) (Bignum.of_int b)) = a * b)

let prop_bignum_divmod_small =
  qtest "bignum: divmod matches int"
    QCheck2.Gen.(pair (int_range 0 1_000_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let q, r = Bignum.divmod (Bignum.of_int a) (Bignum.of_int b) in
      Bignum.to_int q = a / b && Bignum.to_int r = a mod b)

let prop_bignum_divmod_big =
  qtest ~count:60 "bignum: big divmod identity a = q*b + r, r < b"
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 1 500))
    (fun (abits, bbits) ->
      let rng = Rng.create (Int64.of_int ((abits * 1000) + bbits)) in
      let a = Bignum.random_bits rng abits in
      let b = Bignum.add Bignum.one (Bignum.random_bits rng bbits) in
      let q, r = Bignum.divmod a b in
      Bignum.compare r b < 0 && Bignum.equal a (Bignum.add (Bignum.mul q b) r))

let test_bignum_div_by_zero () =
  Alcotest.check_raises "zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod Bignum.one Bignum.zero))

let prop_bignum_shift =
  qtest "bignum: shifts are *2^k and /2^k"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 40))
    (fun (a, k) ->
      let big = Bignum.of_int a in
      Bignum.equal (Bignum.shift_left big k)
        (Bignum.mul big (Bignum.mod_pow Bignum.two (Bignum.of_int k) (Bignum.shift_left Bignum.one 80)))
      && Bignum.to_int (Bignum.shift_right (Bignum.shift_left big k) k) = a)

let test_bignum_bit_length () =
  Alcotest.(check int) "0" 0 (Bignum.bit_length Bignum.zero);
  Alcotest.(check int) "1" 1 (Bignum.bit_length Bignum.one);
  Alcotest.(check int) "255" 8 (Bignum.bit_length (Bignum.of_int 255));
  Alcotest.(check int) "256" 9 (Bignum.bit_length (Bignum.of_int 256));
  Alcotest.(check int) "2^100" 101 (Bignum.bit_length (Bignum.shift_left Bignum.one 100))

let test_bignum_fermat () =
  let p = Bignum.of_int 1_000_000_007 in
  let a = Bignum.of_int 123_456_789 in
  Alcotest.(check bool) "a^(p-1) = 1 mod p" true
    (Bignum.equal (Bignum.mod_pow a (Bignum.sub p Bignum.one) p) Bignum.one)

let prop_bignum_modpow_small =
  qtest ~count:100 "bignum: mod_pow matches naive"
    QCheck2.Gen.(triple (int_range 0 100) (int_range 0 12) (int_range 1 1000))
    (fun (b, e, m) ->
      let naive = ref 1 in
      for _ = 1 to e do
        naive := !naive * b mod m
      done;
      Bignum.to_int (Bignum.mod_pow (Bignum.of_int b) (Bignum.of_int e) (Bignum.of_int m))
      = !naive)

let prop_bignum_mod_inv =
  qtest ~count:100 "bignum: mod_inv is an inverse"
    QCheck2.Gen.(pair (int_range 2 100000) (int_range 2 100000))
    (fun (a, m) ->
      match Bignum.mod_inv (Bignum.of_int a) (Bignum.of_int m) with
      | None -> Bignum.to_int (Bignum.gcd (Bignum.of_int a) (Bignum.of_int m)) <> 1
      | Some x -> a * Bignum.to_int x mod m = 1 mod m)

let test_bignum_gcd () =
  let g a b = Bignum.to_int (Bignum.gcd (Bignum.of_int a) (Bignum.of_int b)) in
  Alcotest.(check int) "gcd(12,18)" 6 (g 12 18);
  Alcotest.(check int) "gcd(17,5)" 1 (g 17 5);
  Alcotest.(check int) "gcd(0,5)" 5 (g 0 5)

let prop_bignum_bytes_roundtrip =
  qtest "bignum: big-endian bytes roundtrip" QCheck2.Gen.(int_range 0 max_int) (fun v ->
      let b = Bignum.of_int v in
      Bignum.equal (Bignum.of_bytes_be (Bignum.to_bytes_be b)) b)

let test_bignum_to_bytes_padding () =
  Alcotest.(check string) "padded" "\x00\x00\x01" (Bignum.to_bytes_be ~len:3 Bignum.one);
  Alcotest.check_raises "too big" (Invalid_argument "Bignum.to_bytes_be: value too large")
    (fun () -> ignore (Bignum.to_bytes_be ~len:1 (Bignum.of_int 70000)))

let test_miller_rabin_known () =
  let rng = Rng.create 17L in
  let prime v = Bignum.is_probable_prime rng (Bignum.of_int v) in
  List.iter
    (fun p -> Alcotest.(check bool) (Printf.sprintf "%d prime" p) true (prime p))
    [ 2; 3; 5; 7; 997; 1_000_003; 2_147_483_647 ];
  List.iter
    (fun c -> Alcotest.(check bool) (Printf.sprintf "%d composite" c) false (prime c))
    [ 1; 4; 561 (* Carmichael *); 1105 (* Carmichael *); 1_000_001; 25 ]

let test_random_prime_bits () =
  let rng = Rng.create 23L in
  List.iter
    (fun bits ->
      let p = Bignum.random_prime rng ~bits in
      Alcotest.(check int) (Printf.sprintf "%d bits" bits) bits (Bignum.bit_length p);
      Alcotest.(check bool) "prime" true (Bignum.is_probable_prime rng p))
    [ 16; 32; 64; 128 ]

let test_random_below () =
  let rng = Rng.create 31L in
  let n = Bignum.of_int 1000 in
  for _ = 1 to 200 do
    Alcotest.(check bool) "below" true (Bignum.compare (Bignum.random_below rng n) n < 0)
  done

let test_bignum_int_helpers () =
  let n = Bignum.of_int 1000 in
  Alcotest.(check int) "add_int" 1007 (Bignum.to_int (Bignum.add_int n 7));
  Alcotest.(check int) "add_int neg" 993 (Bignum.to_int (Bignum.add_int n (-7)));
  Alcotest.(check int) "sub_int" 993 (Bignum.to_int (Bignum.sub_int n 7));
  Alcotest.(check int) "sub_int neg" 1007 (Bignum.to_int (Bignum.sub_int n (-7)));
  Alcotest.(check int) "mul_int" 3000 (Bignum.to_int (Bignum.mul_int n 3));
  Alcotest.(check int) "rem_int" 1 (Bignum.rem_int n 3)

let test_bignum_to_int_overflow () =
  let huge = Bignum.shift_left Bignum.one 100 in
  Alcotest.(check bool) "overflow raises" true
    (match Bignum.to_int huge with _ -> false | exception Failure _ -> true)

let test_bignum_mod_pow_modulus_one () =
  Alcotest.(check bool) "x^y mod 1 = 0" true
    (Bignum.is_zero (Bignum.mod_pow (Bignum.of_int 5) (Bignum.of_int 3) Bignum.one))

let test_bignum_hex_roundtrip () =
  let v = Bignum.of_hex "deadbeef0123456789" in
  Alcotest.(check string) "hex" "deadbeef0123456789" (Bignum.to_hex v);
  Alcotest.(check bool) "testbit" true (Bignum.testbit v 0);
  Alcotest.(check bool) "even check" false (Bignum.is_even v)

(* --- Montgomery ----------------------------------------------------------------- *)

let prop_mont_matches_classic =
  qtest ~count:80 "bignum: Montgomery mod_pow = classic"
    QCheck2.Gen.(triple (int_range 60 512) (int_range 1 512) (int_range 0 1_000_000))
    (fun (mbits, ebits, seed) ->
      let rng = Rng.create (Int64.of_int ((mbits * 1_000_003) + (ebits * 7) + seed)) in
      (* Force the modulus odd (and >= 2 limbs wide) so Mont.make accepts it. *)
      let m =
        let c = Bignum.random_bits rng mbits in
        if Bignum.is_even c then Bignum.add_int c 1 else c
      in
      let b = Bignum.random_below rng m in
      let e = Bignum.random_bits rng ebits in
      Bignum.equal (Bignum.mod_pow b e m) (Bignum.mod_pow_classic b e m))

(* The C kernel against the classic ladder at fixed widths from two
   limbs to the cap, including the 64-bit limb boundaries, with the
   edge bases (0, 1, m-1) and exponents (0, 1, 65537 and one long
   enough for 5-bit windows). *)
let test_mont_kernel_edges () =
  let rng = Rng.create 0x30d7L in
  List.iter
    (fun mbits ->
      let m =
        Bignum.add
          (Bignum.shift_left Bignum.one (mbits - 1))
          (Bignum.random_bits rng (mbits - 1))
      in
      let m = if Bignum.is_even m then Bignum.add_int m 1 else m in
      match Bignum.Mont.make m with
      | None -> Alcotest.failf "%d-bit odd modulus refused" mbits
      | Some ctx ->
        let long_e = Bignum.random_bits rng (min 300 (2 * mbits)) in
        List.iter
          (fun base ->
            List.iter
              (fun e ->
                if not (Bignum.equal (Bignum.Mont.pow ctx base e) (Bignum.mod_pow_classic base e m))
                then
                  Alcotest.failf "%d-bit modulus, base %s, exponent %s" mbits (Bignum.to_hex base)
                    (Bignum.to_hex e))
              [ Bignum.zero; Bignum.one; Bignum.of_int 65537; long_e ])
          [ Bignum.zero; Bignum.one; Bignum.sub_int m 1; Bignum.random_below rng m ])
    [ 27; 52; 63; 64; 65; 127; 128; 129; 383; 384; 385; 768; 1024; 2048; 4096; 13_000 ]

let test_mont_make_guards () =
  let odd = Bignum.of_hex "deadbeefdeadbeefdeadbeefdeadbeefdeadbeef" in
  let even = Bignum.of_hex "deadbeefdeadbeefdeadbeefdeadbeefdeadbee0" in
  Alcotest.(check bool) "even rejected" true (Bignum.Mont.make even = None);
  Alcotest.(check bool) "single limb rejected" true
    (Bignum.Mont.make (Bignum.of_int 1_000_003) = None);
  (* Past 500 limbs a kernel column sum could overflow a native int,
     so such moduli get no context and mod_pow takes the classic
     ladder instead. *)
  let wide = Bignum.add_int (Bignum.shift_left Bignum.one (501 * 26)) 1 in
  Alcotest.(check bool) "over-wide rejected" true (Bignum.Mont.make wide = None);
  let widest = Bignum.sub_int (Bignum.shift_left Bignum.one (500 * 26)) 1 in
  (match Bignum.Mont.make widest with
  | None -> Alcotest.fail "500-limb modulus rejected"
  | Some c ->
    (* All-ones limbs: the widest columns the kernel accepts. *)
    let b = Bignum.sub_int widest 2 and e = Bignum.of_int 3 in
    Alcotest.(check bool) "widest pow matches classic" true
      (Bignum.equal (Bignum.Mont.pow c b e) (Bignum.mod_pow_classic b e widest)));
  match Bignum.Mont.make odd with
  | None -> Alcotest.fail "odd wide modulus accepted"
  | Some c ->
    Alcotest.(check bool) "modulus kept" true (Bignum.equal (Bignum.Mont.modulus c) odd);
    let b = Bignum.of_int 123_456_789 and e = Bignum.of_int 65537 in
    Alcotest.(check bool) "pow matches classic" true
      (Bignum.equal (Bignum.Mont.pow c b e) (Bignum.mod_pow_classic b e odd))

(* --- RSA ----------------------------------------------------------------------- *)

let test_rsa_sign_verify () =
  let rng = Rng.create 41L in
  let kp = Rsa.generate rng ~bits:512 in
  let s = Rsa.sign kp.Rsa.private_ "attack at dawn" in
  Alcotest.(check int) "sig length" 64 (String.length s);
  Alcotest.(check bool) "verifies" true
    (Rsa.verify kp.Rsa.public ~msg:"attack at dawn" ~signature:s);
  Alcotest.(check bool) "different msg" false
    (Rsa.verify kp.Rsa.public ~msg:"attack at dusk" ~signature:s)

let test_rsa_tampered_signature () =
  let rng = Rng.create 43L in
  let kp = Rsa.generate rng ~bits:512 in
  let s = Bytes.of_string (Rsa.sign kp.Rsa.private_ "m") in
  Bytes.set s 10 (Char.chr (Char.code (Bytes.get s 10) lxor 1));
  Alcotest.(check bool) "tampered" false
    (Rsa.verify kp.Rsa.public ~msg:"m" ~signature:(Bytes.to_string s))

let test_rsa_wrong_key () =
  let rng = Rng.create 47L in
  let kp1 = Rsa.generate rng ~bits:512 in
  let kp2 = Rsa.generate rng ~bits:512 in
  let s = Rsa.sign kp1.Rsa.private_ "m" in
  Alcotest.(check bool) "wrong key" false (Rsa.verify kp2.Rsa.public ~msg:"m" ~signature:s)

let test_rsa_malformed_signature () =
  let rng = Rng.create 53L in
  let kp = Rsa.generate rng ~bits:512 in
  Alcotest.(check bool) "short" false (Rsa.verify kp.Rsa.public ~msg:"m" ~signature:"xx");
  Alcotest.(check bool) "oversize value" false
    (Rsa.verify kp.Rsa.public ~msg:"m" ~signature:(String.make 64 '\xff'))

let test_rsa_crt_consistency () =
  (* CRT signing must agree with plain m^d mod n. *)
  let rng = Rng.create 59L in
  let kp = Rsa.generate rng ~bits:512 in
  let priv = kp.Rsa.private_ in
  let msg = "crt check" in
  let s = Rsa.sign priv msg in
  let m = Bignum.mod_pow (Bignum.of_bytes_be s) kp.Rsa.public.Rsa.e kp.Rsa.public.Rsa.n in
  let em = Bignum.to_bytes_be ~len:64 m in
  Alcotest.(check bool) "padding prefix" true (String.sub em 0 2 = "\x00\x01");
  Alcotest.(check string) "digest tail" (Sha256.digest msg)
    (String.sub em (64 - 32) 32);
  (* And the two windowed half-exponentiations must equal the plain
     m^d mod n of the classic ladder, message after message. *)
  for i = 1 to 8 do
    let msg = Printf.sprintf "crt check %d" i in
    let s = Bignum.of_bytes_be (Rsa.sign priv msg) in
    let m = Bignum.mod_pow s kp.Rsa.public.Rsa.e priv.Rsa.n in
    Alcotest.(check string) (Printf.sprintf "m^d, message %d" i)
      (Bignum.to_hex (Bignum.mod_pow_classic m priv.Rsa.d priv.Rsa.n))
      (Bignum.to_hex s)
  done

let test_rsa_public_key_roundtrip () =
  let rng = Rng.create 61L in
  let kp = Rsa.generate rng ~bits:256 in
  let pk = Rsa.public_of_string (Rsa.public_to_string kp.Rsa.public) in
  Alcotest.(check bool) "n" true (Bignum.equal pk.Rsa.n kp.Rsa.public.Rsa.n);
  Alcotest.(check bool) "e" true (Bignum.equal pk.Rsa.e kp.Rsa.public.Rsa.e)

let test_rsa_known_answer () =
  (* Pinned signature: keygen is deterministic in the seed, and PKCS#1
     v1.5 signing is deterministic in the key, so any drift in keygen,
     padding, CRT or the Montgomery exponentiation shows up here. *)
  let rng = Rng.create 4242L in
  let kp = Rsa.generate rng ~bits:512 in
  Alcotest.(check string) "modulus"
    "906fca9e25b26c71a37db91b24abc6bb7604245e84df51dc161d5500ef0ab285288698782163411551447e4cd170ba3e197ec47e210d07ddf36f487ad1ef8b27"
    (Bignum.to_hex kp.Rsa.public.Rsa.n);
  let msg = "accountable virtual machines" in
  let s = Rsa.sign kp.Rsa.private_ msg in
  Alcotest.(check string) "signature"
    "60ef4f8e1162fa2ae57f1978627d4fed6eae73a3a650c40886a3f790ee6d1d76bd4472ee1350e1305d0772549c026c388a0d34709177b249886744ee6cb4b707"
    (Avm_util.Hex.encode s);
  Alcotest.(check bool) "verifies" true (Rsa.verify kp.Rsa.public ~msg ~signature:s)

let test_rsa_deterministic_keygen () =
  let kp1 = Rsa.generate (Rng.create 7L) ~bits:256 in
  let kp2 = Rsa.generate (Rng.create 7L) ~bits:256 in
  Alcotest.(check bool) "same seed same key" true
    (Bignum.equal kp1.Rsa.public.Rsa.n kp2.Rsa.public.Rsa.n)

(* --- Signature cache --------------------------------------------------------------- *)

let test_sigcache_basic () =
  Sigcache.set_enabled true;
  Sigcache.clear ();
  let fp = String.make 32 'f' and s = String.make 64 's' and d = String.make 32 'd' in
  Alcotest.(check bool) "cold miss" false (Sigcache.check ~fingerprint:fp ~signature:s ~digest:d);
  Sigcache.remember ~fingerprint:fp ~signature:s ~digest:d;
  Alcotest.(check bool) "hit" true (Sigcache.check ~fingerprint:fp ~signature:s ~digest:d);
  Alcotest.(check bool) "digest guard" false
    (Sigcache.check ~fingerprint:fp ~signature:s ~digest:(String.make 32 'x'));
  Alcotest.(check bool) "other signature" false
    (Sigcache.check ~fingerprint:fp ~signature:(String.make 64 'z') ~digest:d);
  Sigcache.set_enabled false;
  Alcotest.(check bool) "disabled bypasses" false
    (Sigcache.check ~fingerprint:fp ~signature:s ~digest:d);
  Sigcache.set_enabled true;
  Alcotest.(check bool) "re-enabled keeps entries" true
    (Sigcache.check ~fingerprint:fp ~signature:s ~digest:d)

let test_sigcache_eviction () =
  Sigcache.set_enabled true;
  Sigcache.clear ();
  let old_cap = Sigcache.capacity () in
  Sigcache.set_capacity 4;
  let fp i = Printf.sprintf "fp-%d" i in
  for i = 1 to 7 do
    Sigcache.remember ~fingerprint:(fp i) ~signature:"sig" ~digest:"digest"
  done;
  Alcotest.(check int) "bounded" 4 (Sigcache.size ());
  Alcotest.(check bool) "oldest evicted" false
    (Sigcache.check ~fingerprint:(fp 1) ~signature:"sig" ~digest:"digest");
  Alcotest.(check bool) "newest kept" true
    (Sigcache.check ~fingerprint:(fp 7) ~signature:"sig" ~digest:"digest");
  Sigcache.set_capacity old_cap;
  Sigcache.clear ()

let test_sigcache_rsa_verdicts () =
  (* Caching must never change a verdict: repeated verifies stay true,
     and a cached signature does not leak validity onto other
     messages or keys. *)
  Sigcache.set_enabled true;
  Sigcache.clear ();
  let rng = Rng.create 83L in
  let kp = Rsa.generate rng ~bits:512 in
  let other = Rsa.generate rng ~bits:512 in
  let s = Rsa.sign kp.Rsa.private_ "m" in
  Alcotest.(check bool) "first (cold)" true (Rsa.verify kp.Rsa.public ~msg:"m" ~signature:s);
  Alcotest.(check bool) "second (cached)" true (Rsa.verify kp.Rsa.public ~msg:"m" ~signature:s);
  Alcotest.(check bool) "cached sig, other msg" false
    (Rsa.verify kp.Rsa.public ~msg:"m2" ~signature:s);
  Alcotest.(check bool) "cached sig, other key" false
    (Rsa.verify other.Rsa.public ~msg:"m" ~signature:s);
  Sigcache.set_enabled false;
  Alcotest.(check bool) "cache off, still true" true
    (Rsa.verify kp.Rsa.public ~msg:"m" ~signature:s);
  Sigcache.set_enabled true

(* --- Batch verification ------------------------------------------------------------ *)

(* Two fixed keypairs so batches can mix moduli; generated once, not
   per QCheck case (512-bit keygen dominates otherwise). *)
let batch_keys =
  lazy
    (let rng = Rng.create 89L in
     [| Rsa.generate rng ~bits:512; Rsa.generate rng ~bits:512 |])

let flip_byte s i mask =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
  Bytes.to_string b

let without_sigcache f =
  Sigcache.set_enabled false;
  Fun.protect ~finally:(fun () -> Sigcache.set_enabled true) f

let prop_verify_batch_matches_verify =
  (* The whole contract of the batched path: for any mix of keys and
     per-item corruption, [verify_batch] must agree index by index
     with the scalar [verify] — including which byte was flipped,
     since PKCS#1 padding bytes and digest bytes fail differently. *)
  qtest ~count:40 "rsa: verify_batch = pointwise verify"
    QCheck2.Gen.(list_size (int_range 0 10) (pair (int_range 0 1) (option (int_range 0 63))))
    (fun spec ->
      let keys = Lazy.force batch_keys in
      without_sigcache @@ fun () ->
      let items =
        Array.of_list
          (List.mapi
             (fun i (k, tampered) ->
               let kp = keys.(k) in
               let msg = Printf.sprintf "batch item %d" i in
               let s = Rsa.sign kp.Rsa.private_ msg in
               let s = match tampered with None -> s | Some byte -> flip_byte s byte 1 in
               (kp.Rsa.public, msg, s))
             spec)
      in
      let batch = Rsa.verify_batch items in
      let pointwise =
        Array.map (fun (pk, msg, signature) -> Rsa.verify pk ~msg ~signature) items
      in
      batch = pointwise)

let test_batch_tampered_each_position () =
  (* A failure anywhere in the batch must be pinpointed to exactly its
     own index — no neighbor may be dragged down or rescued. *)
  let keys = Lazy.force batch_keys in
  without_sigcache @@ fun () ->
  let n = 6 in
  let items =
    Array.init n (fun i ->
        let kp = keys.(i mod 2) in
        let msg = Printf.sprintf "pos %d" i in
        (kp.Rsa.public, msg, Rsa.sign kp.Rsa.private_ msg))
  in
  Alcotest.(check (array bool)) "all valid" (Array.make n true) (Rsa.verify_batch items);
  for bad = 0 to n - 1 do
    let tampered =
      Array.mapi
        (fun i (pk, msg, s) -> if i = bad then (pk, msg, flip_byte s 20 0x40) else (pk, msg, s))
        items
    in
    Alcotest.(check (array bool))
      (Printf.sprintf "tampered at %d" bad)
      (Array.init n (fun i -> i <> bad))
      (Rsa.verify_batch tampered)
  done

let test_batch_empty_and_malformed () =
  let keys = Lazy.force batch_keys in
  without_sigcache @@ fun () ->
  Alcotest.(check (array bool)) "empty batch" [||] (Rsa.verify_batch [||]);
  let kp = keys.(0) in
  let good = Rsa.sign kp.Rsa.private_ "ok" in
  let verdicts =
    Rsa.verify_batch
      [|
        (kp.Rsa.public, "ok", good);
        (kp.Rsa.public, "ok", "xx");
        (kp.Rsa.public, "ok", String.make 64 '\xff');
      |]
  in
  Alcotest.(check (array bool)) "malformed rejected in batch" [| true; false; false |] verdicts

let test_batch_sigcache_interaction () =
  Sigcache.set_enabled true;
  Sigcache.clear ();
  let rng = Rng.create 97L in
  let kp = Rsa.generate rng ~bits:512 in
  let msg i = Printf.sprintf "cached %d" i in
  let items = Array.init 5 (fun i -> (kp.Rsa.public, msg i, Rsa.sign kp.Rsa.private_ (msg i))) in
  let tampered =
    Array.mapi (fun i (pk, m, s) -> if i = 4 then (pk, m, flip_byte s 11 1) else (pk, m, s)) items
  in
  let expected = [| true; true; true; true; false |] in
  (* Pre-warm two entries through the scalar path; the batch must mix
     cache hits and real verifications without changing any verdict. *)
  List.iter
    (fun i ->
      let pk, m, s = items.(i) in
      Alcotest.(check bool) "warmup" true (Rsa.verify pk ~msg:m ~signature:s))
    [ 0; 2 ];
  Alcotest.(check (array bool)) "warm-cache batch" expected (Rsa.verify_batch tampered);
  (* Cold cache: same verdicts, and the batch itself must populate the
     cache for the signatures it proved valid. *)
  Sigcache.clear ();
  Alcotest.(check (array bool)) "cold-cache batch" expected (Rsa.verify_batch tampered);
  Alcotest.(check bool) "batch populated cache" true (Sigcache.size () >= 4);
  (* And with the cache disabled entirely, nothing changes. *)
  Alcotest.(check (array bool)) "no-cache batch" expected
    (without_sigcache (fun () -> Rsa.verify_batch tampered));
  Sigcache.clear ()

(* --- Backend seam ------------------------------------------------------------------ *)

let test_backend_selection () =
  let is_default () = Crypto_backend.current () == Crypto_backend.default in
  Alcotest.(check bool) "default selected" true (is_default ());
  Alcotest.(check string) "default name" "default" (Crypto_backend.name ());
  Crypto_backend.with_backend Crypto_backend.reference (fun () ->
      Alcotest.(check bool) "reference not default" false (is_default ());
      Alcotest.(check string) "reference name" "reference" (Crypto_backend.name ()));
  Alcotest.(check bool) "restored" true (is_default ());
  (* with_backend must restore even when the thunk raises. *)
  (try
     Crypto_backend.with_backend Crypto_backend.reference (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (is_default ())

let prop_backend_digest_agree =
  qtest ~count:80 "backend: reference digest = default digest"
    QCheck2.Gen.(string_size (int_range 0 300))
    (fun s ->
      let module D = (val Crypto_backend.default) in
      let module R = (val Crypto_backend.reference) in
      String.equal (D.digest s) (R.digest s) && String.equal (D.digest s) (Sha256.digest s))

let prop_backend_pow_agree =
  qtest ~count:40 "backend: reference rsa_pow = default rsa_pow"
    QCheck2.Gen.(triple (int_range 60 512) (int_range 1 64) (int_range 0 1_000_000))
    (fun (mbits, ebits, seed) ->
      let rng = Rng.create (Int64.of_int ((mbits * 1_000_033) + (ebits * 13) + seed)) in
      let m =
        let c = Bignum.random_bits rng mbits in
        if Bignum.is_even c then Bignum.add_int c 1 else c
      in
      let base = Bignum.random_below rng m in
      let exp = Bignum.random_bits rng ebits in
      let module D = (val Crypto_backend.default) in
      let module R = (val Crypto_backend.reference) in
      Bignum.equal (D.rsa_pow ~m ~base ~exp) (R.rsa_pow ~m ~base ~exp))

let prop_backend_verify_verdicts_agree =
  (* End-to-end seam check: the scalar verify verdict — valid, wrong
     message, or bit-flipped signature — must be identical under the
     optimized and the from-spec backend. The audit-level version of
     this property (whole tampered logs) lives in
     bin/avm_backend_check.ml. *)
  qtest ~count:25 "backend: verify verdicts agree on tampered input"
    QCheck2.Gen.(pair (option (int_range 0 63)) bool)
    (fun (tampered, wrong_msg) ->
      let keys = Lazy.force batch_keys in
      let kp = keys.(0) in
      let s = Rsa.sign kp.Rsa.private_ "msg" in
      let s = match tampered with None -> s | Some byte -> flip_byte s byte 1 in
      let msg = if wrong_msg then "other" else "msg" in
      let under b =
        Crypto_backend.with_backend b (fun () ->
            Sigcache.clear ();
            Rsa.verify kp.Rsa.public ~msg ~signature:s)
      in
      under Crypto_backend.default = under Crypto_backend.reference)

(* --- Identity --------------------------------------------------------------------- *)

let test_identity_chain () =
  let rng = Rng.create 71L in
  let ca = Identity.create_ca rng ~bits:512 "admin" in
  let alice = Identity.issue ca rng ~bits:512 "alice" in
  let cert = Identity.certificate alice in
  Alcotest.(check string) "name" "alice" (Identity.cert_name cert);
  Alcotest.(check bool) "cert checks" true (Identity.check_certificate (Identity.ca_public ca) cert);
  let s = Identity.sign alice "msg" in
  Alcotest.(check bool) "sig checks" true (Identity.verify cert ~msg:"msg" ~signature:s);
  Alcotest.(check bool) "wrong msg" false (Identity.verify cert ~msg:"other" ~signature:s)

let test_identity_forged_cert () =
  let rng = Rng.create 73L in
  let ca = Identity.create_ca rng ~bits:512 "admin" in
  let rogue_ca = Identity.create_ca rng ~bits:512 "rogue" in
  let mallory = Identity.issue rogue_ca rng ~bits:512 "mallory" in
  Alcotest.(check bool) "foreign CA rejected" false
    (Identity.check_certificate (Identity.ca_public ca) (Identity.certificate mallory))

(* --- Merkle ------------------------------------------------------------------------- *)

let test_merkle_proofs_all_sizes () =
  for n = 1 to 17 do
    let pages = List.init n (fun i -> Printf.sprintf "page-%d-%s" i (String.make i 'x')) in
    let t = Merkle.of_leaves pages in
    Alcotest.(check int) "count" n (Merkle.leaf_count t);
    List.iteri
      (fun i page ->
        let proof = Merkle.prove t i in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d i=%d" n i)
          true
          (Merkle.verify_proof ~root:(Merkle.root t) ~leaf_count:n ~leaf:page proof))
      pages
  done

let test_merkle_bad_proofs () =
  let pages = List.init 9 (fun i -> string_of_int i) in
  let t = Merkle.of_leaves pages in
  let proof = Merkle.prove t 3 in
  Alcotest.(check bool) "wrong leaf" false
    (Merkle.verify_proof ~root:(Merkle.root t) ~leaf_count:9 ~leaf:"nope" proof);
  Alcotest.(check bool) "wrong index" false
    (Merkle.verify_proof ~root:(Merkle.root t) ~leaf_count:9 ~leaf:"3"
       { proof with Merkle.index = 4 });
  Alcotest.(check bool) "out of range" false
    (Merkle.verify_proof ~root:(Merkle.root t) ~leaf_count:9 ~leaf:"3"
       { proof with Merkle.index = 40 })

let test_merkle_roots_differ () =
  let t1 = Merkle.of_leaves [ "a"; "b" ] in
  let t2 = Merkle.of_leaves [ "a"; "c" ] in
  let t3 = Merkle.of_leaves [ "a"; "b"; "" ] in
  Alcotest.(check bool) "content" false (String.equal (Merkle.root t1) (Merkle.root t2));
  Alcotest.(check bool) "shape" false (String.equal (Merkle.root t1) (Merkle.root t3))

let test_merkle_empty () =
  let t = Merkle.of_leaves [] in
  Alcotest.(check int) "count" 0 (Merkle.leaf_count t);
  Alcotest.(check int) "root is a digest" 32 (String.length (Merkle.root t))

let prop_merkle_root_deterministic =
  qtest ~count:50 "merkle: root deterministic in leaves"
    QCheck2.Gen.(list_size (int_range 1 20) (string_size (int_range 0 30)))
    (fun leaves ->
      String.equal
        (Merkle.root (Merkle.of_leaves leaves))
        (Merkle.root (Merkle.of_leaves leaves)))

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha_vectors;
          Alcotest.test_case "streaming chunks" `Quick test_sha_streaming_chunks;
          Alcotest.test_case "FIPS million-a" `Quick test_sha_million_a;
          Alcotest.test_case "feed_sub/feed_bytes windows" `Quick test_sha_feed_sub;
          Alcotest.test_case "digest_buffer" `Quick test_sha_feed_buffer;
          Alcotest.test_case "reset reuse" `Quick test_sha_reset_reuse;
          Alcotest.test_case "output length" `Quick test_sha_length;
          Alcotest.test_case "portable kernel = reference" `Quick (test_sha_kernel Sha256.Portable);
          Alcotest.test_case "sha-ni kernel = reference" `Quick (test_sha_kernel Sha256.Sha_ni);
          prop_sha_digest_list;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "div by zero" `Quick test_bignum_div_by_zero;
          Alcotest.test_case "bit_length" `Quick test_bignum_bit_length;
          Alcotest.test_case "Fermat little theorem" `Quick test_bignum_fermat;
          Alcotest.test_case "gcd" `Quick test_bignum_gcd;
          Alcotest.test_case "to_bytes padding" `Quick test_bignum_to_bytes_padding;
          Alcotest.test_case "Miller-Rabin known values" `Quick test_miller_rabin_known;
          Alcotest.test_case "random_prime width" `Quick test_random_prime_bits;
          Alcotest.test_case "random_below bound" `Quick test_random_below;
          Alcotest.test_case "int helpers" `Quick test_bignum_int_helpers;
          Alcotest.test_case "to_int overflow" `Quick test_bignum_to_int_overflow;
          Alcotest.test_case "mod_pow modulus one" `Quick test_bignum_mod_pow_modulus_one;
          Alcotest.test_case "hex roundtrip" `Quick test_bignum_hex_roundtrip;
          prop_bignum_add;
          prop_bignum_sub;
          prop_bignum_mul;
          prop_bignum_divmod_small;
          prop_bignum_divmod_big;
          prop_bignum_shift;
          prop_bignum_modpow_small;
          prop_bignum_mod_inv;
          prop_bignum_bytes_roundtrip;
        ] );
      ( "montgomery",
        [
          Alcotest.test_case "make guards" `Quick test_mont_make_guards;
          prop_mont_matches_classic;
          Alcotest.test_case "C kernel = classic at edges" `Quick test_mont_kernel_edges;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
          Alcotest.test_case "tampered signature" `Quick test_rsa_tampered_signature;
          Alcotest.test_case "wrong key" `Quick test_rsa_wrong_key;
          Alcotest.test_case "malformed signature" `Quick test_rsa_malformed_signature;
          Alcotest.test_case "CRT consistency" `Quick test_rsa_crt_consistency;
          Alcotest.test_case "public key roundtrip" `Quick test_rsa_public_key_roundtrip;
          Alcotest.test_case "known answer" `Quick test_rsa_known_answer;
          Alcotest.test_case "deterministic keygen" `Quick test_rsa_deterministic_keygen;
        ] );
      ( "sigcache",
        [
          Alcotest.test_case "hit/miss/guards" `Quick test_sigcache_basic;
          Alcotest.test_case "FIFO eviction" `Quick test_sigcache_eviction;
          Alcotest.test_case "verdicts unchanged" `Quick test_sigcache_rsa_verdicts;
        ] );
      ( "batch",
        [
          prop_verify_batch_matches_verify;
          Alcotest.test_case "tampered at each position" `Quick test_batch_tampered_each_position;
          Alcotest.test_case "empty and malformed" `Quick test_batch_empty_and_malformed;
          Alcotest.test_case "sigcache interaction" `Quick test_batch_sigcache_interaction;
        ] );
      ( "backend",
        [
          Alcotest.test_case "selection and restore" `Quick test_backend_selection;
          prop_backend_digest_agree;
          prop_backend_pow_agree;
          prop_backend_verify_verdicts_agree;
        ] );
      ( "identity",
        [
          Alcotest.test_case "certificate chain" `Quick test_identity_chain;
          Alcotest.test_case "forged certificate" `Quick test_identity_forged_cert;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "proofs for all sizes" `Quick test_merkle_proofs_all_sizes;
          Alcotest.test_case "bad proofs rejected" `Quick test_merkle_bad_proofs;
          Alcotest.test_case "roots differ" `Quick test_merkle_roots_differ;
          Alcotest.test_case "empty tree" `Quick test_merkle_empty;
          prop_merkle_root_deterministic;
        ] );
    ]
