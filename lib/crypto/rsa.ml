module Metrics = Avm_obs.Metrics

type public_key = { n : Bignum.t; e : Bignum.t }

type private_key = {
  n : Bignum.t;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
}

type keypair = { public : public_key; private_ : private_key; bits : int }

let e_value = Bignum.of_int 65537

let generate rng ~bits =
  if bits < 32 then invalid_arg "Rsa.generate: modulus too small";
  let half = bits / 2 in
  let rec go () =
    let p = Bignum.random_prime rng ~bits:half in
    let q = Bignum.random_prime rng ~bits:(bits - half) in
    if Bignum.equal p q then go ()
    else begin
      let n = Bignum.mul p q in
      let p1 = Bignum.sub p Bignum.one and q1 = Bignum.sub q Bignum.one in
      let phi = Bignum.mul p1 q1 in
      match (Bignum.mod_inv e_value phi, Bignum.mod_inv q p) with
      | Some d, Some qinv when Bignum.bit_length n = bits ->
        let dp = Bignum.rem d p1 and dq = Bignum.rem d q1 in
        { public = { n; e = e_value }; private_ = { n; d; p; q; dp; dq; qinv }; bits }
      | _ -> go ()
    end
  in
  go ()

let signature_length (key : public_key) = (Bignum.bit_length key.n + 7) / 8

(* EMSA-PKCS1-v1_5-style: 0x00 0x01 0xFF... 0x00 || digest. *)
let pad_digest ~len digest =
  if len < String.length digest + 11 then invalid_arg "Rsa: modulus too small for digest";
  let ff_len = len - String.length digest - 3 in
  String.concat "" [ "\x00\x01"; String.make ff_len '\xff'; "\x00"; digest ]

(* The Montgomery context cache lives in {!Crypto_backend} (it is
   shared by the default backend and CRT signing). *)
let pow_mod = Crypto_backend.pow_mod

let public_to_string (key : public_key) =
  let w = Avm_util.Wire.writer () in
  Avm_util.Wire.bytes w (Bignum.to_bytes_be key.n);
  Avm_util.Wire.bytes w (Bignum.to_bytes_be key.e);
  Avm_util.Wire.contents w

let public_of_string s =
  let r = Avm_util.Wire.reader s in
  let n = Bignum.of_bytes_be (Avm_util.Wire.read_bytes r) in
  let e = Bignum.of_bytes_be (Avm_util.Wire.read_bytes r) in
  Avm_util.Wire.expect_end r;
  { n; e }

(* Key fingerprints for the verified-signature cache, memoized per
   domain by physical identity like the Montgomery contexts. *)
let fp_cache : (public_key * string) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let fingerprint (key : public_key) =
  let cache = Domain.DLS.get fp_cache in
  let rec find = function
    | [] -> None
    | (k, fp) :: _ when k == key -> Some fp
    | _ :: rest -> find rest
  in
  match find !cache with
  | Some fp -> fp
  | None ->
    let fp = Sha256.digest (public_to_string key) in
    cache := (key, fp) :: (if List.length !cache >= 32 then [] else !cache);
    fp

(* m^d mod n via the Chinese Remainder Theorem: two half-size
   exponentiations instead of one full-size one (~4x faster). *)
let private_power key m =
  let mp = pow_mod ~m:key.p (Bignum.rem m key.p) key.dp in
  let mq = pow_mod ~m:key.q (Bignum.rem m key.q) key.dq in
  (* h = qinv * (mp - mq) mod p; result = mq + h * q *)
  let diff =
    if Bignum.compare mp mq >= 0 then Bignum.sub mp mq
    else Bignum.sub key.p (Bignum.rem (Bignum.sub mq mp) key.p)
  in
  let h = Bignum.rem (Bignum.mul key.qinv diff) key.p in
  Bignum.add mq (Bignum.mul h key.q)

let sign (key : private_key) msg =
  Metrics.incr "crypto.rsa_signs";
  let len = (Bignum.bit_length key.n + 7) / 8 in
  let em = pad_digest ~len (Sha256.digest msg) in
  let m = Bignum.of_bytes_be em in
  Bignum.to_bytes_be ~len (private_power key m)

(* Check that [m] encodes 0x00 0x01 0xFF.. 0x00 || digest without
   materializing either side: [m] is written into the caller's [buf]
   (sized to [len]) and compared field by field. *)
let em_matches buf ~len ~digest m =
  match Bignum.blit_bytes_be m buf len with
  | exception Invalid_argument _ -> false
  | () ->
    let dl = String.length digest in
    len >= dl + 11
    && Bytes.unsafe_get buf 0 = '\x00'
    && Bytes.unsafe_get buf 1 = '\x01'
    && Bytes.unsafe_get buf (len - dl - 1) = '\x00'
    && begin
         let ok = ref true in
         for i = 2 to len - dl - 2 do
           if Bytes.unsafe_get buf i <> '\xff' then ok := false
         done;
         let base = len - dl in
         for i = 0 to dl - 1 do
           if Bytes.unsafe_get buf (base + i) <> String.unsafe_get digest i then ok := false
         done;
         !ok
       end

(* Scratch output buffer for [em_matches], grown on demand; one per
   domain like the other verification scratch state. *)
let em_buf : Bytes.t ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (Bytes.create 128))

let em_buf_for len =
  let b = Domain.DLS.get em_buf in
  if Bytes.length !b < len then b := Bytes.create len;
  !b

let verify (key : public_key) ~msg ~signature =
  let len = signature_length key in
  if String.length signature <> len then false
  else begin
    let module B = (val Crypto_backend.current ()) in
    let digest = B.digest msg in
    let fp = fingerprint key in
    if Sigcache.check ~fingerprint:fp ~signature ~digest then true
    else begin
      let s = Bignum.of_bytes_be signature in
      if Bignum.compare s key.n >= 0 then false
      else begin
        Metrics.incr "crypto.rsa_verifies";
        let m = B.rsa_pow ~m:key.n ~base:s ~exp:key.e in
        let ok = em_matches (em_buf_for len) ~len ~digest m in
        if ok then Sigcache.remember ~fingerprint:fp ~signature ~digest;
        ok
      end
    end
  end
