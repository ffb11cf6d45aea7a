(** The auditor-as-a-service scenario: hundreds of concurrent live
    sessions streaming into one {!Avm_service.Daemon}.

    [sessions] producers run the fleet kv guest, paired i <-> i xor 1
    (each node's epoch report and acks go to its partner, so one peer
    certificate per session covers the RECV/ACK surface). Every epoch
    the driver queues seeded activity, runs the network, injects the
    epoch's cheats at mid-epoch — a {e poke} (silent state mutation
    only replay can surface) or a {e rewrite} (in-place log tamper the
    syntactic stream must flag at the next ingest) — seals a snapshot
    on every node, then streams the grown logs into the daemon and
    pumps. After the last epoch the daemon drains to zero lag and
    every session is detached.

    The outcome carries what the acceptance gates need: detection
    (all planted cheats, zero false flags), the sampled lag
    distribution against [max_lag], detection latency in virtual time,
    backpressure counts and the shared-cache stats. {!signature}
    digests the verdict vector (delivery-order-independent), so jobs
    and cache on/off can be asserted equivalent. *)

type spec = {
  sessions : int;  (** concurrent producers; even *)
  epochs : int;
  epoch_us : float;
  activity : float;  (** fraction of nodes woken with ops per epoch *)
  cheat_frac : float;  (** fraction of nodes that cheat once *)
  tamper_frac : float;  (** fraction of cheats that rewrite the log in place *)
  seed : int64;
  rsa_bits : int;
  key_pool : int;
  max_lag : int;  (** daemon lag bound = ingest high watermark *)
  budget : int;  (** instructions per session per pump *)
  replay_rate : float;
  dedup : bool;  (** share the fleet-wide replay cache *)
  spot_rate : int;
}

val default_spec : spec
(** 200 sessions, 3 epochs of 1 virtual second, 10% activity, 5%
    cheaters (40% of them log rewrites), lag bound 4096. *)

type cheat_kind = Poke of { slot : int; value : int } | Rewrite

type cheat = { node : int; epoch : int; kind : cheat_kind }

type outcome = {
  spec : spec;
  events : Avm_service.Daemon.event list;  (** in delivery order *)
  cheats : cheat list;
  detected : int list;
  missed : int list;
  false_flagged : int list;
  entries_ingested : int;
  lag_samples : int list;
  lag_p50 : int;
  lag_p99 : int;
  lag_max : int;
  detection_latency_us : (string * float) list;
      (** per detected cheater: virtual microseconds from mid-epoch
          injection to verdict delivery *)
  backpressure_engaged : int;
  backpressure_refusals : int;
  cache : Avm_core.Replay_cache.stats;
  cache_hits : int;
  sim_events : int;
  run_seconds : float;  (** wall clock simulating the fleet *)
  service_seconds : float;  (** wall clock in ingest + pump *)
  drain_rounds : int;
}

val run : ?par:Avm_core.Audit.parallelism -> spec -> outcome

val signature : outcome -> string
(** MD5 over the sorted per-session verdict lines — identical across
    [par] settings and cache on/off. *)
