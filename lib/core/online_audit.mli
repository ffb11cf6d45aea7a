(** Online auditing (paper §6.11) under the names the service daemon,
    the experiments and the benchmark use: the verdict and status types
    and the session are those of the one audit engine, {!Audit}. *)

type verdict = Audit.verdict =
  | Tampered of { reason : string; entry_seq : int option }
  | Diverged of Replay.divergence
  | Equivocated of { a : Avm_tamperlog.Auth.t; b : Avm_tamperlog.Auth.t }

val pp_verdict : Format.formatter -> verdict -> unit

type status = Audit.status = {
  ingested_entries : int;
  retired_entries : int;
  chunks_retired : int;
  lag_entries : int;
  lag_us_estimate : float;
  replayed_instructions : int;
  cache_hits : int;
  throttled : bool;
  verdict : verdict option;
}

module Session = Audit.Session
