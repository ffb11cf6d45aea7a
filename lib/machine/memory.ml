(* Each page carries a write stamp: the value of the memory's clock at
   its last write. A leaf hash cached at clock [c] is valid while the
   page's stamp is older than [c]; writes stamp the page with the
   current clock, so hashing first advances the clock past every
   earlier write. [write] therefore costs one bookkeeping store, and a
   stale page is rehashed only when some digest asks for it.

   Interior Merkle nodes are cached the same way. Each records the
   newest clock among its children when it was hashed; a node is
   rehashed only when a child has been hashed since, so a root after a
   replay pays for the written pages and their ancestors, not for the
   whole tree. *)

module Merkle = Avm_crypto.Merkle

let page_size = 256
let page_bytes = page_size * 4
let mask32 = 0xffffffff

type t = {
  words : int array;
  stamp : int array; (* per page: clock at the last write *)
  leaf : string array; (* per page: cached Merkle leaf hash *)
  hashed_at : int array; (* per page: clock at which [leaf] was computed *)
  node : string array; (* interior Merkle nodes, level by level above the leaves *)
  node_at : int array; (* per node: newest child clock when it was hashed *)
  mutable clock : int;
  mutable watch : (int -> old:int -> value:int -> unit) option;
}

exception Fault of int

(* Interior nodes over [n] leaves: every level of the tree but the
   leaves ([Merkle.of_leaf_hashes] promotes an odd last node). *)
let rec interior n = if n <= 1 then 0 else ((n + 1) / 2) + interior ((n + 1) / 2)

let create ~words =
  let pages = (words + page_size - 1) / page_size in
  let pages = max pages 1 in
  {
    words = Array.make (pages * page_size) 0;
    stamp = Array.make pages 0;
    leaf = Array.make pages "";
    hashed_at = Array.make pages 0;
    node = Array.make (interior pages) "";
    node_at = Array.make (interior pages) (-1);
    clock = 0;
    watch = None;
  }

let size m = Array.length m.words
let page_count m = Array.length m.stamp

let read m addr =
  if addr < 0 || addr >= Array.length m.words then raise (Fault addr);
  m.words.(addr)

let words m = m.words

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

(* The root from the cached nodes: one pass per level, hashing a node
   only when a child's clock is newer than the one it was hashed at.
   [src] < 0 names the leaves, otherwise the offset of a node level. *)
let root m =
  let n = page_count m in
  refresh m 0 (n - 1);
  if n = 1 then m.leaf.(0)
  else begin
    let hash src i = if src < 0 then m.leaf.(i) else m.node.(src + i) in
    let at src i = if src < 0 then m.hashed_at.(i) else m.node_at.(src + i) in
    let hashed = ref 0 in
    let src = ref (-1) and dst = ref 0 and width = ref n in
    while !width > 1 do
      let w = !width and s = !src and d = !dst in
      let half = (w + 1) / 2 in
      for i = 0 to half - 1 do
        let l = 2 * i in
        if l + 1 < w then begin
          let newest = max (at s l) (at s (l + 1)) in
          if newest <> m.node_at.(d + i) then begin
            m.node.(d + i) <- Merkle.node_hash (hash s l) (hash s (l + 1));
            m.node_at.(d + i) <- newest;
            incr hashed
          end
        end
        else if at s l <> m.node_at.(d + i) then begin
          m.node.(d + i) <- hash s l;
          m.node_at.(d + i) <- at s l
        end
      done;
      src := d;
      dst := d + half;
      width := half
    done;
    if !hashed > 0 then Avm_obs.Metrics.incr ~by:!hashed "memory.nodes_hashed";
    m.node.(!src)
  end

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
    node = Array.copy m.node;
    node_at = Array.copy m.node_at;
    clock = m.clock;
    watch = None;
  }

(* A typed loop: [Array.blit] into an array on the major heap goes
   through [caml_modify] per element, ints included. *)
let blit_ints (src : int array) (dst : int array) =
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let assign ~dst src =
  if Array.length dst.words <> Array.length src.words then
    invalid_arg "Memory.assign: different page counts";
  blit_ints src.words dst.words;
  blit_ints src.stamp dst.stamp;
  blit_ints src.hashed_at dst.hashed_at;
  blit_ints src.node_at dst.node_at;
  Array.blit src.leaf 0 dst.leaf 0 (Array.length src.leaf);
  Array.blit src.node 0 dst.node 0 (Array.length src.node);
  dst.clock <- src.clock;
  dst.watch <- None

let set_watch m hook = m.watch <- hook
