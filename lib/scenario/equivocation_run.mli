(** The forking adversary and the exchange that catches it (paper §4.3
    via PeerReview; DESIGN.md §16).

    A two-faced node keeps one real log but {e signs two histories}:
    at its fork epoch's boundary commitment it hands half its witness
    set a genuine authenticator and the other half a conflicting one —
    same seq, same prev, different content, both signed with its real
    key. Every per-witness audit of the fork epoch passes (each
    witness's view is internally consistent; the commitment lands
    after the boundary snapshot, outside the audited range), so the
    baseline can flag the forker at the {e next} epoch at the earliest
    — and never, if the fork is in the last epoch. The cross-witness
    exchange ({!Avm_core.Witness.exchange}) pairs the two heads the
    moment they are gossiped and yields a transferable
    {!Avm_core.Evidence.Equivocation} proof in the {e same} epoch. *)

type spec = {
  nodes : int;
  witnesses : int;  (** k; at least 2 — equivocation needs two views *)
  epochs : int;
  epoch_us : float;
  activity : float;  (** per-node chance of input each epoch *)
  fork_frac : float;  (** fraction of nodes that fork once *)
  seed : int64;
  rsa_bits : int;
  key_pool : int;
  shards : int;
}

val default_spec : spec

type forker = { node : int; epoch : int  (** the epoch it forks at *) }

type outcome = {
  spec : spec;
  net : Avm_netsim.Net.t;
  assignment : Avm_core.Witness.assignment;
  verdicts : Avm_core.Witness.verdict list;  (** ordinary audit jobs *)
  forkers : forker list;
  exchange_detected : (int * int) list;
      (** (node, epoch first caught by the exchange), sorted *)
  baseline_detected : (int * int) list;
      (** (node, epoch first flagged by an ordinary audit job) *)
  false_flags : int list;  (** accused non-forkers, either route — must be [] *)
  proofs : Avm_core.Evidence.t list;  (** one per caught forker *)
  proofs_verified : int;
      (** proofs accepted by {!Avm_core.Audit.check_evidence} given
          {e only} the accused's certificate — no log, image or peers *)
  commit_auths : int;  (** commitment authenticators distributed *)
  ex_messages : int;  (** gossip messages across all epochs *)
  ex_auths : int;
  ex_bytes : int;
  sim_events : int;
  run_seconds : float;
  audit_seconds : float;
  exchange_seconds : float;
}

val run : ?par:Avm_core.Audit.parallelism -> spec -> outcome
(** Drive the fleet for [epochs] epochs; after each epoch's seal,
    every node appends a commitment Note and sends an authenticator
    over it to its k witnesses (a forker inside its fault-layer fork
    window — {!Avm_netsim.Net.two_faced} — splits its witness set
    between two conflicting heads), then the ordinary sharded audit
    and one round of cross-witness exchange run. Stores persist
    across epochs. @raise Invalid_argument if [witnesses < 2] or
    [epochs < 1]. *)

val signature : outcome -> string
(** Digest of the full verdict vector, the proof set and the
    detection schedule — byte-identical across auditor job counts. *)
