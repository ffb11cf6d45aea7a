(* SHA-256 (DESIGN.md §12, §30). The block compression runs in C
   (crypto_stubs.c): a [@@noalloc] external that compresses whole
   64-byte blocks straight out of the caller's string or bytes. Which
   C kernel it runs, SHA-NI or portable, is decided once when this
   module initializes. OCaml keeps the streaming context: the partial
   block, the byte count and the padding.

   The common path is allocation-free: contexts are resettable (the
   one-shot [digest]/[digest_list]/[digest_buffer] entry points reuse a
   per-domain scratch context), whole input blocks are compressed from
   the caller's buffer without an intermediate copy, and finalization
   pads with a single fill and one call. The state is eight big-endian
   words, so the digest is a copy of it. *)

module Metrics = Avm_obs.Metrics

type kernel = Portable | Sha_ni

external has_sha_ni : unit -> bool = "avm_sha256_has_sha_ni"

(* [compress k state src off n] compresses the [n] blocks at [src.[off]]
   into [state] with kernel number [k]; the bounds are the caller's. *)
external compress :
  (int[@untagged]) -> Bytes.t -> string -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "avm_sha256_compress_byte" "avm_sha256_compress"
[@@noalloc]

let kernel = if has_sha_ni () then Sha_ni else Portable
let kernel_name = function Portable -> "portable" | Sha_ni -> "sha-ni"
let available = function Portable -> true | Sha_ni -> kernel = Sha_ni

(* The kernel numbers crypto_stubs.c dispatches on. *)
let kernel_id = function Portable -> 0 | Sha_ni -> 1

type ctx = {
  h : Bytes.t; (* 8 state words, big-endian *)
  block : Bytes.t; (* the partial block; 128 bytes, so padding fits *)
  mutable fill : int; (* bytes currently in [block] *)
  mutable total : int; (* total bytes absorbed *)
  kernel : int;
}

let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

let init_kernel k =
  if not (available k) then invalid_arg "Sha256.init_kernel: kernel unavailable";
  { h = Bytes.of_string iv; block = Bytes.create 128; fill = 0; total = 0; kernel = kernel_id k }

let init () = init_kernel kernel

let reset ctx =
  Bytes.blit_string iv 0 ctx.h 0 32;
  ctx.fill <- 0;
  ctx.total <- 0

let compress_block ctx = compress ctx.kernel ctx.h (Bytes.unsafe_to_string ctx.block) 0 1

(* [s.[pos .. pos+len-1]], already bounds-checked. *)
let absorb ctx s pos len =
  ctx.total <- ctx.total + len;
  let p = ref pos and stop = pos + len in
  (* Top up a partial block first. *)
  if ctx.fill > 0 then begin
    let take = min (64 - ctx.fill) len in
    Bytes.blit_string s pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    p := pos + take;
    if ctx.fill = 64 then begin
      compress_block ctx;
      ctx.fill <- 0
    end
  end;
  let blocks = (stop - !p) / 64 in
  if blocks > 0 then begin
    compress ctx.kernel ctx.h s !p blocks;
    p := !p + (64 * blocks)
  end;
  if stop > !p then begin
    Bytes.blit_string s !p ctx.block 0 (stop - !p);
    ctx.fill <- stop - !p
  end

let feed_sub ctx s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Sha256.feed_sub";
  absorb ctx s pos len

let feed ctx s = absorb ctx s 0 (String.length s)

(* The kernel reads the bytes before the call returns, so viewing them
   as a string for its duration is safe. *)
let feed_bytes ctx b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Sha256.feed_bytes";
  absorb ctx (Bytes.unsafe_to_string b) pos len

(* Absorb a [Buffer.t] (e.g. a wire writer's accumulator) without
   materializing its contents: blocks are blitted straight from the
   buffer into the context. *)
let feed_buffer ctx b =
  let n = Buffer.length b in
  ctx.total <- ctx.total + n;
  let p = ref 0 in
  while !p < n do
    let take = min (64 - ctx.fill) (n - !p) in
    Buffer.blit b !p ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    p := !p + take;
    if ctx.fill = 64 then begin
      compress_block ctx;
      ctx.fill <- 0
    end
  done

(* The digest counters are bumped once per finalize; going through
   [Metrics.incr]'s name lookup twice per 68-byte chain hash is
   measurable, so each domain caches direct refs to its shard cells. *)
let meters =
  Domain.DLS.new_key (fun () ->
      (Metrics.counter_ref "crypto.digest_bytes", Metrics.counter_ref "crypto.digests"))

let finalize ctx =
  let fill = ctx.fill and block = ctx.block in
  (* Padding: 0x80, zeros, 64-bit big-endian bit length, in one or two
     blocks compressed by one call. *)
  let blocks = if fill < 56 then 1 else 2 in
  let len_at = (64 * blocks) - 8 in
  Bytes.unsafe_set block fill '\x80';
  Bytes.fill block (fill + 1) (len_at - fill - 1) '\000';
  let bit_len = ctx.total * 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set block (len_at + i) (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx.kernel ctx.h (Bytes.unsafe_to_string block) 0 blocks;
  ctx.fill <- 0;
  let byte_meter, digest_meter = Domain.DLS.get meters in
  byte_meter := !byte_meter + ctx.total;
  incr digest_meter;
  Bytes.sub_string ctx.h 0 32

(* One scratch context per domain: the one-shot helpers below never
   run user code between [reset] and [finalize], so reuse is safe even
   though the helpers are called from every audit worker. *)
let scratch = Domain.DLS.new_key init

let digest s =
  let ctx = Domain.DLS.get scratch in
  reset ctx;
  feed ctx s;
  finalize ctx

let digest_list parts =
  let ctx = Domain.DLS.get scratch in
  reset ctx;
  List.iter (feed ctx) parts;
  finalize ctx

let digest_buffer b =
  let ctx = Domain.DLS.get scratch in
  reset ctx;
  feed_buffer ctx b;
  finalize ctx

let hex s = Avm_util.Hex.encode (digest s)
let digest_length = 32
