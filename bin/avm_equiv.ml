(* Equivocation-detection smoke: plant forking nodes, run the
   cross-witness authenticator exchange, and hold the four invariants
   the mechanism lives by — every forker caught within one epoch of
   its fork, zero false flags, every proof verifies standalone, and
   the verdict-plus-proof signature is invariant under the auditor
   pool's job count. Exits nonzero on any violation, so `make
   equiv-smoke` can gate `make verify` on it. *)

module Equiv = Avm_scenario.Equivocation_run
module Audit = Avm_core.Audit

let usage =
  "avm_equiv [--nodes N] [--epochs E] [--witnesses K] [--fork-frac F] [--seed S] [--quiet]"

let () =
  let nodes = ref 60 in
  let epochs = ref 3 in
  let witnesses = ref 3 in
  let fork_frac = ref 0.05 in
  let seed = ref 11 in
  let quiet = ref false in
  let rec parse = function
    | [] -> ()
    | "--nodes" :: v :: rest ->
      nodes := int_of_string v;
      parse rest
    | "--epochs" :: v :: rest ->
      epochs := int_of_string v;
      parse rest
    | "--witnesses" :: v :: rest ->
      witnesses := int_of_string v;
      parse rest
    | "--fork-frac" :: v :: rest ->
      fork_frac := float_of_string v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--quiet" :: rest ->
      quiet := true;
      parse rest
    | a :: _ ->
      prerr_endline ("avm_equiv: unknown argument " ^ a);
      prerr_endline usage;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let spec =
    {
      Equiv.default_spec with
      Equiv.nodes = !nodes;
      epochs = !epochs;
      witnesses = !witnesses;
      fork_frac = !fork_frac;
      seed = Int64.of_int !seed;
    }
  in
  let say fmt = Printf.ksprintf (fun s -> if not !quiet then print_endline s) fmt in
  let o1 = Equiv.run ~par:Audit.sequential spec in
  let o4 = Equiv.run ~par:(Audit.parallel 4) spec in
  let s1 = Equiv.signature o1 and s4 = Equiv.signature o4 in
  say "equiv: %d nodes, %d epochs, k=%d, fork-frac %.2f, seed %d" !nodes !epochs !witnesses
    !fork_frac !seed;
  say "  forkers %d, exchange caught %d, baseline caught %d, false flags %d"
    (List.length o1.Equiv.forkers)
    (List.length o1.Equiv.exchange_detected)
    (List.length o1.Equiv.baseline_detected)
    (List.length o1.Equiv.false_flags);
  List.iter
    (fun (f : Equiv.forker) ->
      let caught = List.assoc_opt f.Equiv.node o1.Equiv.exchange_detected in
      say "  forker n%d (fork epoch %d): exchange %s, baseline %s" f.Equiv.node f.Equiv.epoch
        (match caught with Some e -> Printf.sprintf "epoch %d" e | None -> "MISSED")
        (match List.assoc_opt f.Equiv.node o1.Equiv.baseline_detected with
        | Some e -> Printf.sprintf "epoch %d" e
        | None -> "never"))
    o1.Equiv.forkers;
  say "  proofs %d (%d verify standalone), exchange %d msgs / %d auths / %d bytes"
    (List.length o1.Equiv.proofs) o1.Equiv.proofs_verified o1.Equiv.ex_messages o1.Equiv.ex_auths
    o1.Equiv.ex_bytes;
  say "  signature: %s (jobs 1) / %s (jobs 4)" s1 s4;
  let fail = ref false in
  let check cond fmt =
    Printf.ksprintf
      (fun msg ->
        if not cond then begin
          prerr_endline ("avm_equiv: FAIL: " ^ msg);
          fail := true
        end)
      fmt
  in
  check (s1 = s4) "verdict/proof signature differs between auditor jobs 1 and jobs 4";
  List.iter
    (fun (f : Equiv.forker) ->
      match List.assoc_opt f.Equiv.node o1.Equiv.exchange_detected with
      | None -> check false "forker n%d never caught by the exchange" f.Equiv.node
      | Some e ->
        check (e = f.Equiv.epoch) "forker n%d (fork epoch %d) caught only at epoch %d"
          f.Equiv.node f.Equiv.epoch e)
    o1.Equiv.forkers;
  check (o1.Equiv.false_flags = []) "%d honest nodes were accused"
    (List.length o1.Equiv.false_flags);
  check
    (o1.Equiv.proofs_verified = List.length o1.Equiv.proofs)
    "%d of %d proofs failed standalone verification"
    (List.length o1.Equiv.proofs - o1.Equiv.proofs_verified)
    (List.length o1.Equiv.proofs);
  check
    (List.length o1.Equiv.proofs = List.length o1.Equiv.forkers)
    "%d proofs for %d forkers" (List.length o1.Equiv.proofs) (List.length o1.Equiv.forkers);
  if !fail then exit 1;
  say "equiv smoke OK"
