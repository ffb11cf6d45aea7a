(* Interior nodes are H("N" || left || right); leaves H("L" || page).
   Odd nodes are promoted unchanged (no duplication), so [leaf_count]
   is part of what [verify_proof] must know. *)

type t = { levels : string array array; count : int }

let leaf_hash page = Sha256.digest_list [ "L"; page ]

(* A per-domain context so hashing a page straight from a scratch
   buffer allocates only the digest. *)
let leaf_ctx = Domain.DLS.new_key Sha256.init

let leaf_hash_bytes page =
  let ctx = Domain.DLS.get leaf_ctx in
  Sha256.reset ctx;
  Sha256.feed ctx "L";
  Sha256.feed_bytes ctx page ~pos:0 ~len:(Bytes.length page);
  Sha256.finalize ctx

let node_hash left right = Sha256.digest_list [ "N"; left; right ]
let empty_root = Sha256.digest "E"

let of_leaf_hashes hashes =
  let level0 = Array.of_list hashes in
  let rec build acc level =
    if Array.length level <= 1 then List.rev (level :: acc)
    else begin
      let n = Array.length level in
      let next =
        Array.init
          ((n + 1) / 2)
          (fun i ->
            if (2 * i) + 1 < n then node_hash level.(2 * i) level.((2 * i) + 1)
            else level.(2 * i))
      in
      build (level :: acc) next
    end
  in
  let levels =
    if Array.length level0 = 0 then [| [||] |] else Array.of_list (build [] level0)
  in
  { levels; count = Array.length level0 }

let of_leaves pages = of_leaf_hashes (List.map leaf_hash pages)

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  if Array.length top = 0 then empty_root else top.(0)

let leaf_count t = t.count

type proof = { index : int; path : string list }

let prove t i =
  if i < 0 || i >= t.count then invalid_arg "Merkle.prove: index out of range";
  let path = ref [] in
  let idx = ref i in
  for level = 0 to Array.length t.levels - 2 do
    let nodes = t.levels.(level) in
    let sibling = if !idx mod 2 = 0 then !idx + 1 else !idx - 1 in
    if sibling < Array.length nodes then path := nodes.(sibling) :: !path;
    (* When the sibling is missing the node is promoted unchanged, so
       nothing is appended for this level. *)
    idx := !idx / 2
  done;
  { index = i; path = List.rev !path }

let verify_proof ~root:expected ~leaf_count ~leaf proof =
  if proof.index < 0 || proof.index >= leaf_count then false
  else begin
    (* Recompute the root, tracking the width of each level so we know
       when a node is promoted without a sibling. *)
    let rec go digest idx width path =
      if width <= 1 then (digest, path)
      else begin
        let has_sibling = if idx mod 2 = 0 then idx + 1 < width else true in
        match (has_sibling, path) with
        | false, _ -> go digest (idx / 2) ((width + 1) / 2) path
        | true, [] -> (digest, [ "short" ]) (* path too short: fail below *)
        | true, sib :: rest ->
          let digest =
            if idx mod 2 = 0 then node_hash digest sib else node_hash sib digest
          in
          go digest (idx / 2) ((width + 1) / 2) rest
      end
    in
    let computed, leftover = go (leaf_hash leaf) proof.index leaf_count proof.path in
    leftover = [] && String.equal computed expected
  end
