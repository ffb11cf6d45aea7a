open Avm_tamperlog

type challenge = { id : int; accused : string; description : string; mutable answered : bool }

type t = {
  self : string;
  auths : (string, (int * string, Auth.t) Hashtbl.t) Hashtbl.t;
      (* node -> (seq, hash) -> auth, deduplicated *)
  mutable challenges : challenge list;
  mutable next_challenge : int;
  mutable evidence : Evidence.checked list;
}

let create ~self =
  { self; auths = Hashtbl.create 8; challenges = []; next_challenge = 1; evidence = [] }

let node_table t node =
  match Hashtbl.find_opt t.auths node with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 64 in
    Hashtbl.replace t.auths node tbl;
    tbl

let record_auth t (a : Auth.t) =
  let tbl = node_table t a.node in
  Hashtbl.replace tbl (a.seq, a.hash) a

let auths_for t node =
  match Hashtbl.find_opt t.auths node with
  | None -> []
  | Some tbl ->
    Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
    |> List.sort (fun (a : Auth.t) (b : Auth.t) -> compare a.seq b.seq)

let merge_auths t ~from ~node = List.iter (record_auth t) (auths_for from node)

let open_challenge t ~accused ~description =
  let c = { id = t.next_challenge; accused; description; answered = false } in
  t.next_challenge <- t.next_challenge + 1;
  t.challenges <- c :: t.challenges;
  c

let answer_challenge t id =
  List.iter (fun c -> if c.id = id then c.answered <- true) t.challenges

let has_open_challenge t node =
  List.exists (fun c -> (not c.answered) && String.equal c.accused node) t.challenges

let add_evidence t e = t.evidence <- e :: t.evidence

let accused (e : Evidence.checked) = (e :> Evidence.t).accused
let evidence_against t node = List.filter (fun e -> String.equal (accused e) node) t.evidence
let shunned t = List.sort_uniq compare (List.map accused t.evidence)
