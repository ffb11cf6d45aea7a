(** The client/server workload of the spot-checking experiment
    (paper §6.12): a key-value server in one AVM and a benchmark
    client in another, standing in for MySQL + sql-bench.

    Time is scaled: the paper runs 75 minutes with 5-minute
    snapshots; we default to 300 virtual seconds with 20-second
    snapshots — the same 15 inter-snapshot segments, so Figure 9's
    k-chunk sweep carries over unchanged. *)

type outcome = {
  net : Avm_netsim.Net.t;
  duration_us : float;
  server_snapshots : Avm_machine.Snapshot.t list;
  client_ops : int;  (** completed benchmark operations *)
}

val run :
  ?duration_us:float ->
  ?snapshot_every_us:int ->
  ?rsa_bits:int ->
  ?seed:int64 ->
  unit ->
  outcome

val server_image : unit -> int array
val audit_server_chunk : outcome -> start_snapshot:int -> k:int -> Avm_core.Spot_check.chunk_report
(** Spot-check one k-chunk of the server's log.
    @raise Invalid_argument if the run took no snapshot at either end
    of the chunk. *)

val chunk_transfer_bytes : outcome -> Avm_core.Spot_check.chunk_report -> int
(** What the auditor downloaded for a checked chunk: the authenticated
    state plus the chunk's log range, compressed. 0 when nothing was
    replayed. The compression runs here, for the figure, not inside the
    check. *)

val full_audit_cost : outcome -> int * int
(** [(instructions, compressed_log_bytes)] of a full audit of the
    server — the 100% reference point in Figure 9. *)
