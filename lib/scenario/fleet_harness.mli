(** One harness for fleet-shaped scenarios (DESIGN.md §28): many
    accountable kv-store guests ({!Guests.fleet_source}) on one
    simulated network, a seeded cheating minority, and one auditor
    checking every log every epoch — the paper's §4.3 witness auditing
    of a many-node deployment.

    A {!spec} says what differs between scenarios: its size and seed,
    its adversary mix, its audit step and the twin run whose verdict
    signature must equal the first run's. The harness owns the rest:

    - the net, over the seeded witness assignment
      ({!Avm_core.Witness.assign}, so the communication graph and the
      audit graph coincide) or, for daemon sessions, over the pairing
      [i <-> i xor 1] (one peer certificate per session covers its
      RECV/ACK surface);
    - a driver RNG salted from the scenario's name, distinct from the
      assignment's and the network's, so adding a cheater or changing
      activity never reshuffles who audits whom;
    - the epoch loop: at every epoch start a seeded [activity] fraction
      of nodes receives kv write ops (everyone else stays parked on
      SLEEP and costs no events); pokes and rewrites land mid-epoch;
      at the epoch's end every node seals its segment with a snapshot
      and the audit step runs;
    - the flag tally by node index, the verdict signature and
      {!check}, which names every invariant breach.

    Verdicts are bit-deterministic in the seed and independent of the
    auditor's lane count and of the replay cache. This rests on every
    node serving snapshots that match its log, as all the adversaries
    here do: a replay-cache hit or a remembered verified state fetches
    no snapshot, so which semantic job would catch a forged one depends
    on job order ({!Avm_core.Witness.audit_job}). *)

type adversary =
  | Poke
      (** mutate guest memory mid-epoch — the §2.2 attack a hacked
          hypervisor would hide — in a kv slot the workload never
          writes, so only replay against the sealed snapshot surfaces
          it *)
  | Rewrite
      (** rewrite the newest log entry in place mid-epoch; the
          syntactic check must flag it at the next ingest *)
  | Fork
      (** sign two histories: at its fork epoch's boundary commitment
          the node hands half its witnesses a genuine authenticator and
          half a conflicting one ({!Avm_netsim.Net.two_faced}); only
          the cross-witness exchange sees both (DESIGN.md §16) *)

type audit =
  | Witness_jobs
      (** every (target, witness) job of the epoch
          ({!Avm_core.Witness.epoch_jobs}) on the sharded auditor pool,
          each witness armed with the authenticators its own ledger
          collected *)
  | Daemon_sessions
      (** one online session per node in one {!Avm_service.Daemon}:
          each epoch streams the grown logs in and pumps; after the
          last epoch the daemon drains to zero lag and shuts down *)
  | Witness_exchange
      (** every node first commits to its log head before its
          witnesses, then the witness jobs run, then one round of the
          cross-witness authenticator exchange
          ({!Avm_core.Witness.exchange}); a flag is an exchange proof *)

type twin =
  | Jobs_4  (** the same run on a 4-lane auditor pool *)
  | Cache_off  (** the same run without the replay cache *)

type size = {
  nodes : int;  (** even under [Daemon_sessions] *)
  epochs : int;
  key_pool : int;  (** real keypairs generated; certificates fan out over them *)
  faults : Avm_netsim.Faults.t option;  (** the wire's faults; forks are added from the cheats *)
}

type spec = {
  name : string;  (** salts the driver RNG *)
  seed : int64;
  epoch_us : float;  (** virtual length of one epoch *)
  activity : float;  (** fraction of nodes given ops per epoch *)
  cheat_frac : float;  (** fraction of nodes that cheat, once each *)
  mix : (adversary * float) list;  (** share of the cheaters each adversary takes *)
  audit : audit;
  twin : twin;
  smoke : size;
  full : size;
}

val fleet : spec
(** Witness jobs over a lossy, reordering wire; 2% pokers. Smoke: 200
    nodes; full: 10,000 nodes with two fail-stop crash windows in
    epoch 1. Twin: jobs 4. *)

val dedup : spec
(** The fleet scenario at 5% activity (300 / 2,000 nodes), whose twin
    audits without the replay cache (DESIGN.md §14). *)

val service : spec
(** Daemon sessions (50 / 200), 5% cheaters of which 40% rewrite their
    log and the rest poke (DESIGN.md §15). Twin: jobs 4. *)

val equiv : spec
(** Witness jobs plus the exchange, 5% forkers (60 nodes × 3 epochs /
    200 × 4), 0.4 s epochs (DESIGN.md §16). Twin: jobs 4. *)

val scenarios : (string * spec) list
(** The four specs by their [avm_bench] name. *)

type cheat = {
  node : int;
  epoch : int;  (** the epoch it cheats in *)
  adversary : adversary;
  slot : int;  (** a poke's kv slot; 0 otherwise *)
  value : int;  (** a poke's value; 0 otherwise *)
}

type outcome = {
  spec : spec;
  size : size;
  cheats : cheat list;  (** ground truth, by node *)
  flags : (int * int) list;
      (** (node, first epoch) flagged by the audit step: a failing
          witness verdict, a daemon verdict or an exchange proof; sorted *)
  failed : (int * int) list;
      (** (node, first epoch) with a failing witness verdict; sorted.
          Under [Witness_exchange] this is the per-witness baseline,
          which flags a fork one epoch late at the earliest *)
  coverage : float list;  (** per epoch, fraction of nodes with a verdict (witness jobs) *)
  failures : int list;  (** per epoch, failing witness verdicts *)
  verdicts : Avm_core.Witness.verdict list;  (** all epochs, in job order *)
  events : Avm_service.Daemon.event list;  (** daemon verdicts, in delivery order *)
  proofs : Avm_core.Evidence.t list;  (** equivocation proofs, one per accused *)
  proofs_verified : int;
      (** proofs {!Avm_core.Audit.check_evidence} accepts given only the
          accused's certificate — no log, image or peers *)
  undrained : int list;  (** sessions left with neither a verdict nor lag 0 *)
  lags : int list;  (** every session's lag after every pump *)
  latencies_us : float list;
      (** per daemon verdict on an injected cheat: virtual µs from the
          injection to its delivery *)
  counts : (string * int) list;  (** named totals, keyed as in the BENCH files *)
  cache : Avm_core.Replay_cache.stats option;  (** [None] without the cache *)
  twin_signature : string option;  (** set by {!run_twin} *)
}

val run : ?jobs:int -> ?dedup:bool -> spec -> size -> outcome
(** One run: [jobs] auditor lanes (default 1), one replay cache shared
    by every audit when [dedup] (default [true]).
    @raise Invalid_argument if [epochs < 1], or [nodes] is odd under
    [Daemon_sessions]. *)

val run_twin : outcome -> outcome
(** Run the outcome's twin at the same spec and size, and record its
    signature. *)

val signature : outcome -> string
(** Hex MD5 of the verdict vector: witness verdicts (epoch, target,
    witness, mode, ok, detail) in job order, daemon verdict lines
    sorted, then the proofs and the epoch the exchange caught each
    forker. *)

val check : outcome -> string list
(** Every invariant breach, named: a cheat never flagged or flagged
    only after its epoch, an honest node flagged, an epoch with
    coverage below 1, a twin signature that differs, a session left
    undrained, p99 lag above the daemon's bound, a proof that fails
    standalone, a proof count that differs from the forker count, a
    cache-off twin whose cached run never hit. [[]] when clean. *)

val detected : outcome -> int list
val missed : outcome -> int list
val false_flagged : outcome -> int list

val count : outcome -> string -> int
(** A named total; 0 when the audit step does not keep it. *)

val witnesses : int
(** k, the witnesses per node of a witness assignment (3). *)

val max_lag : int
(** The daemon's lag bound, in entries. *)

val lag : outcome -> float -> int
(** Nearest-rank percentile of [lags] ({!Avm_util.Stats.percentile}); 0 if none. *)

val latency_us : outcome -> float -> float
(** Nearest-rank percentile of [latencies_us]; 0 if none. *)
