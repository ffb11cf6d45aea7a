(* Pluggable crypto primitives (DESIGN.md §17).

   The audit verdict depends on exactly two primitives: a hash and a
   modular exponentiation. This module pins that seam down as a module
   type, provides the optimized production instance ([Default]: the C
   kernels of DESIGN.md §30 behind {!Sha256} and {!Bignum.Mont}, with a
   per-domain context cache) and a deliberately naive from-spec
   instance ([Reference]: textbook FIPS 180-4 rounds over a padded
   copy, classic square-and-multiply with a division per step). The
   two must be observationally identical; the [backend-crosscheck]
   tool and the QCheck properties in [test_crypto] audit random
   tampered logs under both and require byte-identical reports, so a
   future optimized primitive slots in behind the same seam with an
   oracle already standing. *)

(* --- per-domain Montgomery context cache --------------------------------- *)

(* Keyed by the physical identity of the modulus: a key's Bignum
   fields are stable for the key's lifetime, and audits verify
   thousands of signatures under a handful of keys, so a short
   association list probed by [==] makes the precomputed context (the
   modulus and R^2 in the kernel's limb format) effectively "cached on
   the key" without widening the key types. Each domain keeps its own
   list (no locks); a structural miss just recomputes. Shared by the
   [Default] backend and by CRT signing. *)
let mont_cache : (Bignum.t * Bignum.Mont.ctx option) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let mont_of (n : Bignum.t) =
  let cache = Domain.DLS.get mont_cache in
  let rec find = function
    | [] -> None
    | (m, c) :: _ when m == n -> Some c
    | _ :: rest -> find rest
  in
  match find !cache with
  | Some c -> c
  | None ->
    let c = Bignum.Mont.make n in
    cache := (n, c) :: (if List.length !cache >= 32 then [] else !cache);
    c

(* base^exp mod m through the cached Montgomery context. *)
let pow_mod ~m b e =
  match mont_of m with
  | Some c -> Bignum.Mont.pow c b e
  | None -> Bignum.mod_pow b e m

(* --- the seam ------------------------------------------------------------ *)

module type S = sig
  val name : string

  val digest : string -> string
  (** 32-byte SHA-256. *)

  val rsa_pow : m:Bignum.t -> base:Bignum.t -> exp:Bignum.t -> Bignum.t
  (** [base^exp mod m] — the raw RSA verification power. *)
end

module Default : S = struct
  let name = "default"
  let digest = Sha256.digest
  let rsa_pow ~m ~base ~exp = pow_mod ~m base exp
end

(* Straight off the FIPS 180-4 page: materialize the padded message,
   schedule one block at a time, shuffle all eight working variables
   every round. Slow on purpose — its only job is to be obviously
   correct. *)
module Reference : S = struct
  let name = "reference"
  let mask32 = 0xffffffff
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
      0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
      0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
      0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
      0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
      0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
      0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
      0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
      0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
      0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
    |]

  let digest msg =
    let len = String.length msg in
    let padded_len = (((len + 8) / 64) + 1) * 64 in
    let m = Bytes.make padded_len '\000' in
    Bytes.blit_string msg 0 m 0 len;
    Bytes.set m len '\x80';
    let bitlen = len * 8 in
    for i = 0 to 7 do
      Bytes.set m (padded_len - 1 - i) (Char.chr ((bitlen lsr (8 * i)) land 0xff))
    done;
    let h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |]
    in
    let w = Array.make 64 0 in
    for blk = 0 to (padded_len / 64) - 1 do
      for t = 0 to 15 do
        let p = (blk * 64) + (4 * t) in
        w.(t) <-
          (Char.code (Bytes.get m p) lsl 24)
          lor (Char.code (Bytes.get m (p + 1)) lsl 16)
          lor (Char.code (Bytes.get m (p + 2)) lsl 8)
          lor Char.code (Bytes.get m (p + 3))
      done;
      for t = 16 to 63 do
        let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
        let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
        w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
      done;
      let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
      let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
      for t = 0 to 63 do
        let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
        let ch = !e land !f lxor (lnot !e land !g) in
        let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask32 in
        let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
        let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
        let t2 = (s0 + maj) land mask32 in
        hh := !g;
        g := !f;
        f := !e;
        e := (!d + t1) land mask32;
        d := !c;
        c := !b;
        b := !a;
        a := (t1 + t2) land mask32
      done;
      h.(0) <- (h.(0) + !a) land mask32;
      h.(1) <- (h.(1) + !b) land mask32;
      h.(2) <- (h.(2) + !c) land mask32;
      h.(3) <- (h.(3) + !d) land mask32;
      h.(4) <- (h.(4) + !e) land mask32;
      h.(5) <- (h.(5) + !f) land mask32;
      h.(6) <- (h.(6) + !g) land mask32;
      h.(7) <- (h.(7) + !hh) land mask32
    done;
    String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))

  let rsa_pow ~m ~base ~exp = Bignum.mod_pow_classic base exp m
end

(* --- selection ----------------------------------------------------------- *)

let default : (module S) = (module Default)
let reference : (module S) = (module Reference)

(* One process-global choice (an [Atomic] so audit workers on other
   domains observe a switch). *)
let selected : (module S) Atomic.t = Atomic.make default

let current () = Atomic.get selected
let set b = Atomic.set selected b

let name () =
  let module B = (val current ()) in
  B.name

let with_backend b f =
  let prev = Atomic.get selected in
  Atomic.set selected b;
  Fun.protect ~finally:(fun () -> Atomic.set selected prev) f
