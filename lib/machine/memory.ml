(* Each page carries a write stamp: the value of the memory's clock at
   its last write. A leaf hash cached at clock [c] is valid while the
   page's stamp is older than [c]; writes stamp the page with the
   current clock, so hashing first advances the clock past every
   earlier write. [write] therefore costs one bookkeeping store, and a
   stale page is rehashed only when some digest asks for it. *)

module Merkle = Avm_crypto.Merkle

let page_size = 256
let page_bytes = page_size * 4
let mask32 = 0xffffffff

type t = {
  words : int array;
  stamp : int array; (* per page: clock at the last write *)
  leaf : string array; (* per page: cached Merkle leaf hash *)
  hashed_at : int array; (* per page: clock at which [leaf] was computed *)
  mutable clock : int;
  mutable watch : (int -> old:int -> value:int -> unit) option;
}

exception Fault of int

let create ~words =
  let pages = (words + page_size - 1) / page_size in
  let pages = max pages 1 in
  {
    words = Array.make (pages * page_size) 0;
    stamp = Array.make pages 0;
    leaf = Array.make pages "";
    hashed_at = Array.make pages 0;
    clock = 0;
    watch = None;
  }

let size m = Array.length m.words
let page_count m = Array.length m.stamp

let read m addr =
  if addr < 0 || addr >= Array.length m.words then raise (Fault addr);
  m.words.(addr)

let write m addr v =
  if addr < 0 || addr >= Array.length m.words then raise (Fault addr);
  (match m.watch with
  | None -> ()
  | Some hook -> hook addr ~old:m.words.(addr) ~value:(v land mask32));
  m.words.(addr) <- v land mask32;
  m.stamp.(addr / page_size) <- m.clock

(* Bulk path: images are loaded before any watchpoint is attached, so
   skip the per-word hook/bounds machinery of [write]. *)
let load_image m image =
  let n = Array.length image in
  if n > Array.length m.words then raise (Fault n);
  Array.blit image 0 m.words 0 n;
  for i = 0 to n - 1 do
    let w = Array.unsafe_get m.words i in
    if w land mask32 <> w then Array.unsafe_set m.words i (w land mask32)
  done;
  if n > 0 then Array.fill m.stamp 0 (((n - 1) / page_size) + 1) m.clock

(* Little-endian words of page [p] into the first KiB of [b]. *)
let serialize_into m p b =
  let base = p * page_size in
  for i = 0 to page_size - 1 do
    Bytes.set_int32_le b (4 * i) (Int32.of_int (Array.unsafe_get m.words (base + i)))
  done

let page_data m p =
  let b = Bytes.create page_bytes in
  serialize_into m p b;
  Bytes.unsafe_to_string b

let set_page_data m p data =
  if String.length data <> page_bytes then invalid_arg "Memory.set_page_data: bad length";
  let base = p * page_size in
  for i = 0 to page_size - 1 do
    m.words.(base + i) <- Int32.to_int (String.get_int32_le data (4 * i)) land mask32
  done;
  m.stamp.(p) <- m.clock

let install_page m p data ~leaf =
  set_page_data m p data;
  m.clock <- m.clock + 1;
  m.leaf.(p) <- leaf;
  m.hashed_at.(p) <- m.clock

(* --- the leaf-hash cache ----------------------------------------------- *)

(* One scratch page per domain: hashing a page allocates only its
   32-byte digest. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create page_bytes)

let stale m p = m.hashed_at.(p) <= m.stamp.(p)

(* Rehash pages [lo..hi] that are stale, all at one new clock value. *)
let refresh m lo hi =
  let c = m.clock + 1 in
  m.clock <- c;
  let b = Domain.DLS.get scratch in
  let hashed = ref 0 in
  for p = lo to hi do
    if stale m p then begin
      serialize_into m p b;
      m.leaf.(p) <- Merkle.leaf_hash_bytes b;
      m.hashed_at.(p) <- c;
      incr hashed
    end
  done;
  if !hashed > 0 then Avm_obs.Metrics.incr ~by:!hashed "memory.pages_hashed"

let leaf_hash m p =
  if stale m p then refresh m p p;
  m.leaf.(p)

let merkle m =
  refresh m 0 (page_count m - 1);
  Merkle.of_leaf_hashes (Array.to_list m.leaf)

let root m = Merkle.root (merkle m)

(* --- write clock for incremental snapshots ----------------------------- *)

let mark m =
  m.clock <- m.clock + 1;
  m.clock

let written_since m mark =
  let acc = ref [] in
  for p = page_count m - 1 downto 0 do
    if m.stamp.(p) >= mark then acc := p :: !acc
  done;
  !acc

let copy m =
  {
    words = Array.copy m.words;
    stamp = Array.copy m.stamp;
    leaf = Array.copy m.leaf;
    hashed_at = Array.copy m.hashed_at;
    clock = m.clock;
    watch = None;
  }

let set_watch m hook = m.watch <- hook
