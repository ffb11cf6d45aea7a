(** Deterministic replay against a reference image — the semantic
    check of an audit (paper §4.5).

    The replayer instantiates a fresh machine from the reference image
    (or from an authenticated snapshot), then walks the log segment:

    - synchronous inputs are served back in order; the guest asking
      for a different port, or in a different order, is a divergence;
    - interrupts are injected exactly at their recorded landmarks; a
      landmark whose (pc, branch count) no longer matches the replayed
      machine is a divergence;
    - every output (packet send) is compared against the logged SEND;
    - every logged snapshot digest is recomputed from the replayed
      state and compared;
    - every word the recorded guest read from an incoming packet is
      cross-referenced against the corresponding RECV entry's payload
      (paper §4.4, "detecting inconsistencies").

    If there is any discrepancy whatsoever, replay terminates and
    reports the fault. *)

type divergence_kind =
  | Input_mismatch  (** guest requested a different input than logged *)
  | Irq_landmark_mismatch  (** landmark's (pc, branches) did not match *)
  | Output_mismatch  (** guest sent something not in the log *)
  | Missing_output  (** log claims a send the guest never produced *)
  | Snapshot_mismatch  (** replayed state digest differs from logged *)
  | Crossref_mismatch  (** injected packet words disagree with RECV *)
  | Guest_halted_early  (** machine halted with log events remaining *)
  | Guest_stalled  (** fuel exhausted with log events remaining *)
  | Guest_fault  (** reference guest crashed (bad opcode / wild access) *)

val kind_name : divergence_kind -> string

type divergence = {
  kind : divergence_kind;
  at : Avm_machine.Landmark.t;  (** replayed-machine position *)
  entry_seq : int option;  (** offending log entry, if any *)
  detail : string;
}

type outcome =
  | Verified of { instructions : int; entries_consumed : int }
  | Diverged of divergence

val pp_outcome : Format.formatter -> outcome -> unit

val default_fuel : int
(** 200M instructions — the default replay budget. *)

val verified : outcome -> Replay_cache.cached option
(** The counts a [Verified] outcome settles a {!Replay_cache.lookup}
    with; [None] for a divergence. *)

val replay :
  image:int array ->
  ?mem_words:int ->
  ?start:Avm_machine.Machine.t ->
  ?fuel:int ->
  ?strict_landmarks:bool ->
  peers:(int * string) list ->
  entries:Avm_tamperlog.Entry.t list ->
  unit ->
  outcome
(** [replay ~image ~peers ~entries ()] runs the semantic check.
    [start] is a pre-materialized machine for segment audits (default:
    boot the image). [fuel] bounds replay instructions (default 200M)
    so a divergent guest that spins cannot hang the auditor.
    [strict_landmarks] (default [true]) cross-checks the (pc, branch
    count) of every injected interrupt against its recorded landmark —
    the full ReVirt-style coordinate of paper §4.4. Setting it [false]
    injects on instruction count alone, the ablation DESIGN.md §5
    discusses: divergences are then only caught at the next observable
    mismatch, later and with a vaguer report. *)

val replay_chunks :
  image:int array ->
  ?mem_words:int ->
  ?start:Avm_machine.Machine.t ->
  ?fuel:int ->
  ?strict_landmarks:bool ->
  peers:(int * string) list ->
  chunks:Avm_tamperlog.Entry.t list Seq.t ->
  unit ->
  outcome
(** Like {!replay}, but consumes the log as a lazy stream of chunks
    (one per sealed segment — see [Log.chunk_seq]): each chunk is fed
    and the engine cranked until it blocks before the next chunk is
    forced, so compressed segments inflate only as the replay reaches
    them. [replay] is [replay_chunks] over a singleton stream. Neither
    consults a {!Replay_cache}: the cached replays are the audit
    session's chunks and {!Spot_check.check_chunk}. *)

(** {1 Incremental engine}

    Online auditing (paper §6.11) replays a log {e while it is still
    being produced}: entries are {!feed} in as they arrive and
    {!crank} advances the replay as far as the available log allows.
    {!replay} is a thin wrapper over this engine. *)

type engine

val engine :
  image:int array ->
  ?mem_words:int ->
  ?start:Avm_machine.Machine.t ->
  ?strict_landmarks:bool ->
  peers:(int * string) list ->
  unit ->
  engine

val feed : engine -> Avm_tamperlog.Entry.t list -> unit
(** Append newly received log entries (in log order). *)

val feed_entry : engine -> Avm_tamperlog.Entry.t -> unit
(** Single-entry [feed] — the hook streaming readers push into. *)

val crank : engine -> fuel:int -> [ `Blocked | `Fuel_exhausted | `Fault of divergence ]
(** Advance replay by at most [fuel] instructions. [`Blocked] means
    every fed entry has been consumed and verified so far — feed more
    (or, if the log is complete, the segment is verified). A returned
    [`Fault] is terminal. The guest runs on
    {!Avm_machine.Machine.run_until} from one log event (IRQ landmark,
    snapshot, backend call) to the next; outcomes are those of
    stepping every instruction. *)

val stall : engine -> fuel:int -> divergence
(** The [Guest_stalled] divergence of an engine whose total [fuel] ran
    out with fed entries left: at the machine's landmark, naming the
    next unconsumed entry. *)

val engine_machine : engine -> Avm_machine.Machine.t
(** The machine being replayed — replay-time analyses
    ({!Avm_analysis}) attach their tracer/watch hooks to it before
    cranking (paper §7.5). *)

val replayed_instructions : engine -> int
val consumed_entries : engine -> int
(** Entries verified so far (active entries only — passive RECV/ACK
    entries are accounted when fed). *)

val pending_entries : engine -> int
(** Active entries fed but not yet reproduced — the auditor's lag. *)

val digest_seconds : unit -> float
(** Wall seconds the calling domain has spent, since it started,
    recomputing state digests at [Snapshot_ref] entries. The
    difference across a replay is that replay's digest share
    ({!Spot_check.check_chunk}'s post-digest stage). *)
