(** The experiment harness: N accountable machines on one switched
    LAN, standing in for the paper's three-workstation testbed (§6.2)
    — and, with a {!Topology.witness_graph}, for a fleet of thousands.

    Each node couples an {!Avm_core.Avmm} (guest + monitor) with a
    {!Host} CPU model and a {!Avm_core.Multiparty} ledger. The harness
    is fully event-driven: every node posts its own next [run_slice]
    and its own retransmit deadline into the {!Sim} heap, so a parked
    (SLEEP), halted or crashed node schedules nothing — an idle fleet
    node costs zero events, an active one O(log n) per event — while
    message delivery, acks, faults and wakes interleave on the same
    queue. Events at equal timestamps fire in insertion order, so
    same-seed runs stay bit-deterministic. Authenticators are
    collected exactly the way players do in the paper: the receiver
    keeps the authenticator attached to each message, the sender keeps
    the one inside each acknowledgment. *)

type node

val node_name : node -> string
val node_index : node -> int
val node_avmm : node -> Avm_core.Avmm.t
val node_host : node -> Host.t
val node_ledger : node -> Avm_core.Multiparty.t

val set_same_ht : node -> bool -> unit
(** Pin the node's daemon onto the game's hyperthread (§6.10's −11 fps
    ablation): daemon time then also stalls the guest. *)

type t

val create :
  ?seed:int64 ->
  ?latency_us:float ->
  ?loss:float ->
  ?faults:Faults.t ->
  ?rsa_bits:int ->
  ?key_pool:int ->
  ?mem_words:int ->
  ?log_backend:Avm_tamperlog.Segment_store.backend ->
  ?topology:Topology.t ->
  config:Avm_core.Config.t ->
  images:int array list ->
  names:string list ->
  unit ->
  t
(** One image per node (pass the same image N times for a symmetric
    game). Guest packets address peers by dest id: under the default
    full mesh the first word of an outgoing packet is the destination
    node's index in [names]; under a graph topology it is a position
    in that node's adjacency row ({!Topology.peer_list}). Defaults:
    30 us switch latency, no loss, no faults, 768-bit keys.

    [key_pool] caps how many real RSA keypairs are generated; node
    certificates fan out over the pool ({!Avm_crypto.Identity.issue_like}),
    which turns fleet creation from one keygen per node into one CA
    signature per node. [log_backend] is forwarded to every node's
    AVMM ([Memory] keeps a 10k-node fleet's logs cheap).

    [faults] is consulted on every transmission (message and ack legs)
    and its partition/crash windows are scheduled at creation.
    Retransmissions follow the per-envelope exponential backoff in
    [config] ({!Avm_core.Config.retrans_delay_us}), driven by per-node
    heap events at each node's own earliest backoff deadline — there
    is no global sweep period anymore. *)

val nodes : t -> node array
val node : t -> int -> node
val sim : t -> Sim.t
val certificates : t -> (string * Avm_crypto.Identity.certificate) list
val identities : t -> (string * Avm_crypto.Identity.t) list
val ca : t -> Avm_crypto.Identity.ca

val peers : t -> (int * string) list
(** The global (index, name) map. Under the default full mesh this is
    exactly every node's guest-visible peer map; under a graph
    topology use {!peers_of} for the map a given node's AVMM (and any
    replay of its log) actually resolves dest ids against. *)

val peers_of : t -> int -> (int * string) list
(** Node [i]'s own (dest id, name) map — what auditors must pass to
    {!Avm_core.Replay} / {!Avm_core.Audit} when checking node [i]. *)

val topology : t -> Topology.t
val config : t -> Avm_core.Config.t
val faults : t -> Faults.t

val run : t -> until_us:float -> ?slice_us:float -> unit -> unit
(** Advance the whole world to the given virtual time (default slice
    10 ms). Can be called repeatedly. Runnable nodes self-schedule
    slices at [slice_us] cadence; parked nodes wake early on packet
    arrival, local input, or their SLEEP deadline. On return every
    runnable guest has been landed exactly on the horizon. *)

val queue_input : t -> int -> int -> unit
(** [queue_input t node_idx event] feeds a local input event to a
    node's guest, waking it if parked. *)

val isolate : t -> int -> unit
(** Partition a node from the network: all its future traffic (in and
    out) is dropped until {!heal}. Models the §4.6 scenario where a
    machine appears unresponsive to some participants. *)

val heal : t -> int -> unit

val two_faced : t -> int -> bool
(** Is the node currently inside one of the fault policy's [forks]
    windows? A two-faced node equivocates at epoch boundaries: the
    harness hands half its witness set one signed commitment and the
    other half a conflicting one ({!Avm_scenario.Fleet_harness}).
    The wire itself stays honest — equivocation is a host fault, not a
    network fault. *)

(** {1 Measurement helpers} *)

val retransmissions : t -> int
(** Total backoff-scheduled retransmissions across all nodes. *)

val ping_rtts_us : t -> samples:int -> Avm_util.Stats.t
(** Host-level ICMP echo round-trip times between two nodes under the
    current configuration (Figure 5). Modeled from the configuration's
    cost ladder: per-endpoint packet processing, signature generate /
    verify on the critical path (four of each under avmm-rsa768, as in
    §6.8), switch latency, plus scheduling jitter. Guest instruction
    costs are excluded, as in the paper's ICMP measurement. (The model
    is endpoint-symmetric, which is why — unlike a real echo — it
    takes no src/dst pair; earlier versions accepted and silently
    ignored one.) *)

val wire_kbps : t -> int -> elapsed_us:float -> float
(** Average outbound wire traffic of a node (§6.7). *)
