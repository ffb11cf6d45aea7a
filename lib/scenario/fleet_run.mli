(** Fleet-scale witness auditing: the 1k–10k node experiment the
    ROADMAP's north star asks for.

    The run wires [nodes] accountable kv-store guests
    ({!Guests.fleet_source}) over a {!Avm_netsim.Topology} built from
    the seeded witness assignment ({!Avm_core.Witness.assign}) — each
    node's guest-visible peers are exactly its witnesses, so the
    communication graph and the audit graph coincide. Virtual time is
    cut into [epochs] epochs of [epoch_us] each:

    - at every epoch start a seeded [activity] fraction of nodes
      receives kv write ops; each active node applies them and reports
      a digest to its primary witness, then parks on SLEEP — so the
      event-driven harness pays nothing for the idle majority;
    - a seeded [cheat_frac] minority gets its guest memory poked
      mid-epoch (one poke each, in a random epoch) — the §2.2 attack a
      hacked hypervisor would hide, aimed at a kv slot the workload
      never writes so only the audit can notice;
    - at every epoch end each node seals its segment with a snapshot,
      and the per-epoch jobs from {!Avm_core.Witness.epoch_jobs} run
      on the sharded auditor pool.

    Verdicts are bit-deterministic in [seed] and independent of the
    auditor worker count ({!signature} compares runs). This rests on
    every node serving snapshots that match its log, as the run's
    cheats do: a replay-cache hit or a remembered verified state
    fetches no snapshot, so which semantic job would catch a forged
    one depends on job order ({!Avm_core.Witness.audit_job}). *)

module Faults = Avm_netsim.Faults

type spec = {
  nodes : int;
  witnesses : int;  (** k — auditors per node *)
  epochs : int;
  epoch_us : float;
  activity : float;  (** fraction of nodes given ops per epoch *)
  cheat_frac : float;  (** fraction of nodes that tamper, once each *)
  seed : int64;
  rsa_bits : int;
  key_pool : int;  (** real keypairs generated; certs fan out over them *)
  faults : Faults.t option;
  shards : int;  (** auditor pool shards (verdict order is shard-stable) *)
  dedup : bool;  (** share one {!Avm_core.Replay_cache} across all jobs *)
  spot_rate : int;  (** 1-in-N fingerprints fully replay even on hit *)
}

val default_spec : spec
(** 200 nodes, k = 3, 3 × 1 s epochs, 10% activity, 2% cheaters,
    512-bit keys over a 32-key pool, 2% drop + reorder jitter; dedup
    on at spot rate 8. *)

type cheat = { node : int; epoch : int; slot : int; value : int }

type epoch_report = {
  epoch : int;
  coverage : float;  (** fraction of nodes with ≥ 1 verdict this epoch *)
  jobs : int;
  failures : int;
}

type outcome = {
  spec : spec;
  net : Avm_netsim.Net.t;
  assignment : Avm_core.Witness.assignment;
  verdicts : Avm_core.Witness.verdict list;  (** all epochs, in job order *)
  reports : epoch_report list;
  cheats : cheat list;  (** ground truth *)
  detected : int list;  (** cheating nodes with a failing verdict *)
  missed : int list;  (** cheating nodes no verdict flagged *)
  false_flagged : int list;  (** honest nodes flagged (should be empty) *)
  sim_events : int;  (** heap events processed ({!Avm_netsim.Sim.processed}) *)
  run_seconds : float;  (** wall time of the simulation phase *)
  audit_jobs : int;
  audit_seconds : float;  (** wall time inside the auditor pool *)
  semantic_entries : int;  (** log entries audited semantically (all epochs) *)
  semantic_us : int;  (** wall µs spent in semantic jobs, incl. cache hits *)
  cache : Avm_core.Replay_cache.stats option;  (** [None] when [dedup = false] *)
}

val run : ?par:Avm_core.Audit.parallelism -> spec -> outcome

val signature : outcome -> string
(** Hex digest of the full verdict vector (epoch, target, witness,
    mode, ok, detail — in order). Two runs agree iff this does;
    it must be identical at auditor jobs 1 and jobs 4. *)
