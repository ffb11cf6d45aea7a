(** The accountable virtual machine monitor (paper §4).

    Wraps an {!Avm_machine.Machine.t} in record mode:

    - every nondeterministic input (clock, RNG, local input, packet
      words) and every asynchronous interrupt (with its landmark) is
      appended to the tamper-evident log as it is served to the guest;
    - outgoing guest packets become signed {!Wireformat.envelope}s,
      each committed to by a SEND log entry and its authenticator;
    - incoming envelopes are verified, logged as RECV (signature
      included), stripped, and injected into the guest NIC — and every
      word the guest later reads from them is cross-referenced to the
      RECV entry;
    - acknowledgments are produced for every accepted message and
      demanded for every send;
    - periodic incremental snapshots are taken and their digests
      logged.

    The five {!Config.level}s degrade this gracefully: plain-VMM
    levels keep only the replay log or nothing, matching the paper's
    measurement ladder.

    Time: the monitor derives virtual microseconds from the executed
    instruction count via {!Config.us_per_instr}, plus any stalls
    injected by the clock-read optimization or the host scheduler. *)

type t

type slice_stats = {
  instructions : int;
  events_logged : int;
  sends : int;
  daemon_us : float;
      (** host CPU spent on logging + crypto, charged to the logging
          hyperthread by the host model *)
  end_us : float;  (** virtual time after the slice *)
}

val create :
  identity:Avm_crypto.Identity.t ->
  config:Config.t ->
  image:int array ->
  ?mem_words:int ->
  ?log_backend:Avm_tamperlog.Segment_store.backend ->
  peers:(int * string) list ->
  on_send:(Wireformat.envelope -> unit) ->
  unit ->
  t
(** [peers] maps the guest-visible destination ids (first word of each
    outgoing packet) to node names. [log_backend] (default
    [Compressed]) selects how the tamper-evident log stores its sealed
    segments; segments seal at every snapshot boundary, so a running
    AVMM keeps only the active tail uncompressed. *)

(** {1 Execution} *)

val run_slice : t -> until_us:float -> slice_stats
(** Run the guest until its virtual clock reaches [until_us] (or it
    halts, or parks itself on the SLEEP port). A guest parked with a
    deadline inside the slice wakes itself at the deadline; one parked
    past [until_us] leaves the slice empty. The guest runs on
    {!Avm_machine.Machine.run_until} between the icounts at which the
    slice ends, a snapshot falls due or an interrupt could fire. *)

val first_icount_at : us_per_instr:float -> extra_us:float -> from:int -> float -> int
(** [first_icount_at ~us_per_instr ~extra_us ~from x] is the least
    [n >= from] with [float n *. us_per_instr +. extra_us >= x] — the
    first instruction boundary at which {!now_us} reads at least [x],
    computed with [now_us]'s own float expression. [from] if [x] has
    already passed; [max_int] if no icount reaches [x] (e.g. [x =
    infinity]). *)

val now_us : t -> float
val halted : t -> bool

val sleeping_until : t -> float option
(** [Some deadline] while the guest is parked on the SLEEP port
    ([infinity] = until an external wake), [None] while runnable. An
    event-driven harness schedules nothing for a parked node — that is
    what makes an idle fleet node cost zero. *)

val wake : t -> now_us:float -> unit
(** Unpark a sleeping guest and fast-forward its virtual clock to
    [now_us] (no instructions execute for the skipped interval). Used
    by the harness on packet arrival, local input, sleep deadline, or
    crash-heal; a no-op on a running guest. *)

val add_stall_us : t -> float -> unit
(** Advance virtual time without executing instructions — used by the
    host model when the logging daemon shares the guest's hyperthread
    (§6.9) or for the §6.11 artificial slowdown. *)

(** {1 Network} *)

val deliver :
  t ->
  Wireformat.envelope ->
  sender_cert:Avm_crypto.Identity.certificate ->
  [ `Ack of Wireformat.ack | `Duplicate of Wireformat.ack | `Rejected of string ]
(** Hand an incoming message to the monitor. On first receipt: verify,
    log RECV, enqueue into the guest NIC, raise the NIC interrupt, and
    return the acknowledgment. Retransmissions return the cached ack.
    At non-accountable levels verification and logging are skipped. *)

val accept_ack :
  t -> Wireformat.ack -> acker_cert:Avm_crypto.Identity.certificate -> (unit, string) result
(** Validate an acknowledgment for one of our sends and log it. *)

val unacked : t -> older_than_us:float -> Wireformat.envelope list
(** Sends not yet acknowledged whose most recent transmission is older
    than [older_than_us], sorted by nonce. Pure query: does not touch
    the retransmission schedule (see {!retransmit_due}). *)

val retransmit_due : t -> now_us:float -> Wireformat.envelope list
(** Unacked sends whose exponential-backoff timer has expired
    ({!Config.retrans_delay_us} past their last transmission), sorted
    by nonce. Each returned envelope is marked retransmitted: its
    last-sent time becomes [now_us] and its attempt count increments,
    so the next sweep backs off instead of returning the same stale
    set — the fix for the retransmission storm. Envelopes that exhaust
    [Config.retrans_max_attempts] are dropped from the schedule (once,
    counted in [net.backoff_gaveup]). Bumps [net.retransmissions]. *)

val retransmissions_sent : t -> int
(** Total envelopes handed back by {!retransmit_due} so far. *)

val next_retrans_at : t -> float
(** The earliest backoff deadline over all pending sends ([infinity]
    if none): when the next {!retransmit_due} call could return work
    or retire an envelope that exhausted its attempts. The harness
    turns this into one per-node heap event instead of a global
    sweep. *)

val retransmissions_gaveup : t -> int
(** Envelopes abandoned after [Config.retrans_max_attempts]. *)

(** {1 Guest-facing inputs} *)

val queue_input : t -> int -> unit
(** Enqueue a local input event (keyboard/mouse). Forged inputs from
    outside the AVM go through the same call — the monitor cannot tell
    the difference (paper §5.4, §7.2). *)

val note : t -> string -> unit
(** Append an operator annotation to the log. *)

val commitment : t -> Avm_tamperlog.Auth.t option
(** Sign an authenticator over the log's current last entry — the
    node's freshest commitment to its whole history, what it sends
    its witnesses at each epoch boundary for the cross-witness
    exchange (DESIGN.md §16). [None] at non-accountable levels or on
    an empty log. An equivocating node signs {e different}
    commitments for the same position to different witnesses; any two
    such authenticators are a transferable proof
    ({!Evidence.Equivocation}). *)

(** {1 Snapshots} *)

val take_snapshot : t -> Avm_machine.Snapshot.t option
(** Take an incremental snapshot now and log its digest. [None] at
    non-accountable levels. (Also invoked automatically per
    [config.snapshot_every_us].) *)

val snapshots : t -> Avm_machine.Snapshot.t list
(** All snapshots taken, oldest first. *)

(** {1 Inspection} *)

val machine : t -> Avm_machine.Machine.t
val log : t -> Avm_tamperlog.Log.t
val config : t -> Config.t
val name : t -> string
val identity : t -> Avm_crypto.Identity.t
val frames : t -> int
val total_daemon_us : t -> float
val clock_reads : t -> int
val bytes_sent_on_wire : t -> int
(** Total envelope + ack bytes this node has emitted (§6.7 traffic). *)

val seen_size : t -> int
(** Current population of the receive-side dedup table — bounded by
    {!Config.t.rx_dedup_window} (FIFO eviction, counted in
    [net.seen_evicted]). *)

(** {1 Adversary interface}

    What a cheating host can do to its own machine. None of these are
    logged — that is the point. *)

val poke : t -> addr:int -> value:int -> unit
(** Directly modify guest memory (unlimited-ammo style cheats). *)

val peek : t -> addr:int -> int
(** Read guest memory (wallhack-style information exposure; reading is
    inherently undetectable, paper §7.2). *)
