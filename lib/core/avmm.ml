open Avm_machine
open Avm_tamperlog
module Identity = Avm_crypto.Identity

type pending_send = {
  envelope : Wireformat.envelope;
  sent_at_us : float; (* first transmission; never changes *)
  send_seq : int;
  mutable acked : bool;
  mutable last_sent_us : float; (* most recent (re)transmission *)
  mutable attempts : int; (* transmissions so far, initial send included *)
  mutable gave_up : bool;
}

type slice_stats = {
  instructions : int;
  events_logged : int;
  sends : int;
  daemon_us : float;
  end_us : float;
}

type t = {
  identity : Identity.t;
  config : Config.t;
  machine : Machine.t;
  log : Log.t;
  peers : (int * string) list;
  on_send : Wireformat.envelope -> unit;
  host_rng : Avm_util.Rng.t;
  input_queue : int Queue.t;
  rx_queue : (int array * int) Queue.t; (* packet words, RECV entry seq (-1 if unlogged) *)
  mutable rx_offset : int; (* read position within the head packet *)
  mutable nic_irq_pending : bool;
  mutable timer_interval_us : float; (* 0 = off *)
  mutable timer_next_us : float;
  mutable sleeping : bool;
  mutable sleep_until : float; (* infinity = until woken *)
  mutable extra_us : float; (* injected stalls: clock-opt, daemon sharing *)
  clock_opt : Clock_opt.t;
  mutable next_nonce : int;
  sends : (int, pending_send) Hashtbl.t; (* nonce -> pending *)
  seen : (string * int, Wireformat.ack) Hashtbl.t; (* dedup for accepted rx *)
  seen_order : (string * int) Queue.t; (* FIFO of [seen] keys, oldest first *)
  mutable retrans_count : int;
  mutable gaveup_count : int;
  snapshot_tracker : Snapshot.tracker;
  mutable snapshots_taken : Snapshot.t list; (* newest first *)
  mutable next_snapshot_us : float;
  mutable daemon_us_total : float;
  mutable slice_daemon_us : float;
  mutable slice_events : int;
  mutable slice_sends : int;
  mutable wire_bytes : int;
}

let us_per_instr t = Config.us_per_instr t.config
let now_us t = (float_of_int (Machine.icount t.machine) *. us_per_instr t) +. t.extra_us

let create ~identity ~config ~image ?mem_words
    ?(log_backend = Avm_tamperlog.Segment_store.Compressed) ~peers ~on_send () =
  let machine =
    match mem_words with
    | Some w -> Machine.create ~mem_words:w image
    | None -> Machine.create image
  in
  let seed =
    (* Deterministic per-identity host randomness keeps experiments
       reproducible without coupling machines to each other. *)
    let h = Avm_crypto.Sha256.digest (Identity.name identity) in
    let b i = Int64.of_int (Char.code h.[i]) in
    let acc = ref 0L in
    for i = 0 to 7 do
      acc := Int64.logor !acc (Int64.shift_left (b i) (8 * i))
    done;
    !acc
  in
  {
    identity;
    config;
    machine;
    log = Log.create ~backend:log_backend ();
    peers;
    on_send;
    host_rng = Avm_util.Rng.create seed;
    input_queue = Queue.create ();
    rx_queue = Queue.create ();
    rx_offset = 0;
    nic_irq_pending = false;
    timer_interval_us = 0.0;
    timer_next_us = infinity;
    sleeping = false;
    sleep_until = infinity;
    extra_us = 0.0;
    clock_opt =
      (* The paper's 5 us window assumes a GHz-rate guest; scale the
         windows to this configuration's instruction rate so that
         "consecutive" means the same number of instructions. *)
      Clock_opt.create
        ~threshold_us:(int_of_float (65.0 /. config.Config.mips))
        ~base_delay_us:(int_of_float (39.0 /. config.Config.mips))
        ~max_delay_us:1000 ();
    next_nonce = 1;
    sends = Hashtbl.create 64;
    seen = Hashtbl.create 64;
    seen_order = Queue.create ();
    retrans_count = 0;
    gaveup_count = 0;
    snapshot_tracker = Snapshot.tracker ();
    snapshots_taken = [];
    next_snapshot_us =
      (match config.Config.snapshot_every_us with
      | Some p -> float_of_int p
      | None -> infinity);
    daemon_us_total = 0.0;
    slice_daemon_us = 0.0;
    slice_events = 0;
    slice_sends = 0;
    wire_bytes = 0;
  }

let machine t = t.machine
let log t = t.log
let config t = t.config
let name t = Identity.name t.identity
let identity t = t.identity
let halted t = Machine.halted t.machine
let frames t = Machine.frames t.machine
let total_daemon_us t = t.daemon_us_total
let clock_reads t = Clock_opt.reads_observed t.clock_opt
let bytes_sent_on_wire t = t.wire_bytes
let add_stall_us t us = t.extra_us <- t.extra_us +. us

(* --- Sleep / wake ------------------------------------------------------ *)

let sleeping_until t = if t.sleeping then Some t.sleep_until else None

let wake t ~now_us:wake_us =
  if t.sleeping then begin
    (* The guest did not execute while parked: fast-forward its
       virtual clock to the wake time. Replay never calls this — the
       skipped interval is visible only through logged CLOCK reads,
       which replay serves from the log. *)
    let here = now_us t in
    if wake_us > here then t.extra_us <- t.extra_us +. (wake_us -. here);
    t.sleeping <- false;
    t.sleep_until <- infinity
  end

let charge_daemon t us =
  t.daemon_us_total <- t.daemon_us_total +. us;
  t.slice_daemon_us <- t.slice_daemon_us +. us

let log_event t ev =
  if Config.recording t.config then begin
    ignore (Log.append t.log (Entry.Exec ev));
    t.slice_events <- t.slice_events + 1;
    charge_daemon t (Config.per_event_log_us t.config)
  end

let peer_name t id = List.assoc_opt id t.peers

(* --- Recording backend ------------------------------------------------ *)

let serve_clock t =
  let base = now_us t in
  let delay = if t.config.Config.clock_opt then Clock_opt.on_read t.clock_opt ~now_us:base else 0.0 in
  if delay > 0.0 then t.extra_us <- t.extra_us +. delay;
  let value = int_of_float (base +. delay) land 0xffffffff in
  log_event t (Event.Io_in { port = Avm_isa.Isa.port_clock; value; msg = -1 });
  (* Track reads even when the optimization is off, for §6.5 stats. *)
  if not t.config.Config.clock_opt then ignore (Clock_opt.on_read t.clock_opt ~now_us:base);
  value

let rx_head t = if Queue.is_empty t.rx_queue then None else Some (Queue.peek t.rx_queue)

let serve_io_in t port =
  let open Avm_isa.Isa in
  let log_plain value = log_event t (Event.Io_in { port; value; msg = -1 }) in
  if port = port_clock then serve_clock t
  else if port = port_rng then begin
    let value = Avm_util.Rng.bits32 t.host_rng in
    log_plain value;
    value
  end
  else if port = port_input then begin
    let value = if Queue.is_empty t.input_queue then 0 else Queue.pop t.input_queue in
    log_plain value;
    value
  end
  else if port = port_input_avail then begin
    let value = Queue.length t.input_queue in
    log_plain value;
    value
  end
  else if port = port_net_rx_avail then begin
    let value = Queue.length t.rx_queue in
    log_plain value;
    value
  end
  else if port = port_net_rx_len then begin
    let value = match rx_head t with Some (words, _) -> Array.length words | None -> 0 in
    log_plain value;
    value
  end
  else if port = port_net_rx then begin
    match rx_head t with
    | None ->
      log_plain 0;
      0
    | Some (words, msg) ->
      let value = if t.rx_offset < Array.length words then words.(t.rx_offset) else 0 in
      t.rx_offset <- t.rx_offset + 1;
      log_event t (Event.Io_in { port; value; msg });
      value
  end
  else begin
    (* Unknown nondeterministic port: serve 0 but keep it honest by
       logging it, so replay stays faithful. *)
    log_plain 0;
    0
  end

let serve_io_out t port value =
  let open Avm_isa.Isa in
  if port = port_net_rx_next then begin
    if not (Queue.is_empty t.rx_queue) then ignore (Queue.pop t.rx_queue);
    t.rx_offset <- 0
  end
  else if port = port_timer_ctl then begin
    if value = 0 then begin
      t.timer_interval_us <- 0.0;
      t.timer_next_us <- infinity
    end
    else begin
      t.timer_interval_us <- float_of_int value;
      t.timer_next_us <- now_us t +. float_of_int value
    end
  end
  else if port = port_sleep then begin
    (* Park the guest: 0 = until an external wake (input, packet),
       n > 0 = for at most n virtual microseconds. Deterministic
       output, so nothing is logged; replay's io_out ignores it. *)
    t.sleeping <- true;
    t.sleep_until <- (if value <= 0 then infinity else now_us t +. float_of_int value)
  end

let handle_packet_sent t words =
  if Array.length words = 0 then ()
  else begin
    let dest_id = words.(0) in
    match peer_name t dest_id with
    | None -> () (* packet to an unknown peer id: dropped on the floor *)
    | Some dest ->
      let payload = Wireformat.payload_of_words (Array.sub words 1 (Array.length words - 1)) in
      let nonce = t.next_nonce in
      t.next_nonce <- nonce + 1;
      let src = name t in
      if Config.accountable t.config then begin
        let entry = Log.append t.log (Entry.Send { dest; nonce; payload }) in
        let prev = Log.prev_hash t.log entry.Entry.seq in
        let auth = Auth.make t.identity ~entry ~prev_hash:prev in
        let signature =
          if Config.signing t.config then
            Identity.sign t.identity (Wireformat.message_body ~src ~dest ~nonce ~payload)
          else ""
        in
        charge_daemon t (2.0 *. Config.sign_cost_us t.config);
        (* one signature for the message, one inside the authenticator *)
        let envelope = { Wireformat.src; dest; nonce; payload; signature; auth } in
        let now = now_us t in
        Hashtbl.replace t.sends nonce
          {
            envelope;
            sent_at_us = now;
            send_seq = entry.Entry.seq;
            acked = false;
            last_sent_us = now;
            attempts = 1;
            gave_up = false;
          };
        t.wire_bytes <- t.wire_bytes + Wireformat.envelope_wire_size envelope;
        t.slice_sends <- t.slice_sends + 1;
        t.on_send envelope
      end
      else begin
        (* Non-accountable levels still ship the packet, bare. *)
        let envelope = Wireformat.bare_envelope ~src ~dest ~nonce ~payload in
        let now = now_us t in
        Hashtbl.replace t.sends nonce
          {
            envelope;
            sent_at_us = now;
            send_seq = 0;
            acked = true;
            last_sent_us = now;
            attempts = 1;
            gave_up = false;
          };
        t.wire_bytes <- t.wire_bytes + Wireformat.envelope_wire_size envelope;
        t.slice_sends <- t.slice_sends + 1;
        t.on_send envelope
      end
  end

let poll_irq t () =
  if t.nic_irq_pending then begin
    t.nic_irq_pending <- false;
    log_event t (Event.Irq { landmark = Machine.landmark t.machine; line = 1 });
    Some 1
  end
  else if now_us t >= t.timer_next_us then begin
    t.timer_next_us <- t.timer_next_us +. t.timer_interval_us;
    log_event t (Event.Irq { landmark = Machine.landmark t.machine; line = 0 });
    Some 0
  end
  else None

let backend t =
  {
    Machine.io_in = (fun port -> serve_io_in t port);
    io_out = (fun port value -> serve_io_out t port value);
    observe =
      (function
      | Machine.Packet_sent words -> handle_packet_sent t words
      | Machine.Console _ | Machine.Frame -> ());
    poll_irq = poll_irq t;
  }

(* --- Snapshots --------------------------------------------------------- *)

let take_snapshot t =
  if not (Config.accountable t.config) then None
  else begin
    let snap = Snapshot.take t.snapshot_tracker t.machine in
    t.snapshots_taken <- snap :: t.snapshots_taken;
    ignore
      (Log.append t.log
         (Entry.Snapshot_ref
            {
              digest = Snapshot.state_digest snap;
              snapshot_seq = snap.Snapshot.seq;
              at_icount = snap.Snapshot.at_icount;
            }));
    charge_daemon t (50.0 +. (float_of_int (List.length snap.Snapshot.pages) *. 2.0));
    Some snap
  end

let snapshots t = List.rev t.snapshots_taken

(* --- Slice execution --------------------------------------------------- *)

(* The least n >= [from] at which [now_us] would read at least [x],
   evaluated with [now_us]'s own float expression so that a bound
   stops exactly where the per-instruction comparison would flip;
   [max_int] if no icount reaches [x]. Monotone in n, so a binary
   search corrects the guess the division gives. *)
let first_icount_at ~us_per_instr ~extra_us ~from x =
  let reached n = (float_of_int n *. us_per_instr) +. extra_us >= x in
  if reached from then from
  else if not (reached max_int) then max_int
  else begin
    (* Invariant: not (reached lo) && reached hi. *)
    let rec search lo hi =
      if hi - lo <= 1 then hi
      else
        let mid = lo + ((hi - lo) / 2) in
        if reached mid then search lo mid else search mid hi
    in
    let est = Float.ceil ((x -. extra_us) /. us_per_instr) in
    let guess = if est < float_of_int max_int then max (from + 1) (int_of_float est) else max_int in
    if reached guess then
      search (if guess - 1 > from && not (reached (guess - 1)) then guess - 1 else from) guess
    else search guess (if reached (guess + 1) then guess + 1 else max_int)
  end

(* The icount of the next instruction boundary at which [run_slice]
   has something to do besides executing: the slice ends, a snapshot
   falls due, or the poll would fire. Interrupts matter only while
   deliverable, and deliverability changes only at a stop. *)
let next_stop t ~until_us =
  let m = t.machine in
  let from = Machine.icount m in
  if t.sleeping then from
  else begin
    let at = first_icount_at ~us_per_instr:(us_per_instr t) ~extra_us:t.extra_us ~from in
    let bound = min (at until_us) (at t.next_snapshot_us) in
    if not (Machine.irq_deliverable m) then bound
    else if t.nic_irq_pending then from
    else min bound (at t.timer_next_us)
  end

let run_slice t ~until_us =
  t.slice_daemon_us <- 0.0;
  t.slice_events <- 0;
  t.slice_sends <- 0;
  (* A parked guest whose deadline falls inside this slice wakes
     itself; one parked past the horizon stays parked and the slice is
     empty. Standalone callers thus need no wake bookkeeping — the
     event-driven harness wakes nodes eagerly instead. *)
  if t.sleeping && t.sleep_until <= until_us then wake t ~now_us:t.sleep_until;
  let b = backend t in
  let start_instr = Machine.icount t.machine in
  let continue = ref ((not t.sleeping) && not (Machine.halted t.machine)) in
  (* Each iteration is one stop (DESIGN.md §22): the checks that used
     to precede every instruction, one polling [step], then the
     poll-free kernel up to the next icount where they could differ.
     Clock reads move [extra_us] and TIMER_CTL/SLEEP are backend
     calls, so the bound is recomputed after every return. *)
  while !continue && (not t.sleeping) && now_us t < until_us do
    if now_us t >= t.next_snapshot_us then begin
      ignore (take_snapshot t);
      match t.config.Config.snapshot_every_us with
      | Some p -> t.next_snapshot_us <- t.next_snapshot_us +. float_of_int p
      | None -> t.next_snapshot_us <- infinity
    end;
    ignore (Machine.step t.machine b);
    Machine.run_until t.machine b ~limit:(next_stop t ~until_us);
    continue := not (Machine.halted t.machine)
  done;
  Avm_obs.Metrics.incr ~by:(Machine.icount t.machine - start_instr) "avmm.instructions";
  Avm_obs.Metrics.incr ~by:t.slice_events "avmm.events_logged";
  Avm_obs.Metrics.incr ~by:t.slice_sends "avmm.sends";
  Avm_obs.Metrics.observe "avmm.slice_daemon_us" t.slice_daemon_us;
  {
    instructions = Machine.icount t.machine - start_instr;
    events_logged = t.slice_events;
    sends = t.slice_sends;
    daemon_us = t.slice_daemon_us;
    end_us = now_us t;
  }

(* --- Network ingress --------------------------------------------------- *)

let make_ack t env recv_entry =
  let prev = Log.prev_hash t.log recv_entry.Entry.seq in
  let recv_auth = Auth.make t.identity ~entry:recv_entry ~prev_hash:prev in
  {
    Wireformat.acker = name t;
    sender = env.Wireformat.src;
    nonce = env.Wireformat.nonce;
    recv_auth;
  }

let deliver t env ~sender_cert =
  let key = (env.Wireformat.src, env.Wireformat.nonce) in
  match Hashtbl.find_opt t.seen key with
  | Some ack -> `Duplicate ack
  | None ->
    if Config.accountable t.config && Config.signing t.config
       && not (Wireformat.verify_envelope sender_cert env)
    then
      (* Not cached: a corrupted copy must not blacklist the nonce, or
         a later clean retransmission of the same message could never
         be accepted and an honest sender would look unresponsive. *)
      `Rejected "bad envelope signature or authenticator"
    else begin
      let words = Wireformat.words_of_payload env.Wireformat.payload in
      let ack =
        if Config.accountable t.config then begin
          let entry =
            Log.append t.log
              (Entry.Recv
                 {
                   src = env.Wireformat.src;
                   nonce = env.Wireformat.nonce;
                   payload = env.Wireformat.payload;
                   signature = env.Wireformat.signature;
                 })
          in
          charge_daemon t (Config.verify_cost_us t.config +. Config.sign_cost_us t.config);
          let ack = make_ack t env entry in
          t.wire_bytes <- t.wire_bytes + Wireformat.ack_wire_size ack;
          Queue.add (words, entry.Entry.seq) t.rx_queue;
          ack
        end
        else begin
          Queue.add (words, -1) t.rx_queue;
          {
            Wireformat.acker = name t;
            sender = env.Wireformat.src;
            nonce = env.Wireformat.nonce;
            recv_auth = Wireformat.null_auth ~node:(name t);
          }
        end
      in
      t.nic_irq_pending <- true;
      (* Bounded FIFO dedup window (à la Sigcache): one entry per
         accepted message would otherwise grow without limit under
         sustained traffic. A retransmission of an evicted message is
         simply re-accepted — correctness never depended on the cached
         ack, only bandwidth did. *)
      while Queue.length t.seen_order >= t.config.Config.rx_dedup_window do
        let oldest = Queue.pop t.seen_order in
        Hashtbl.remove t.seen oldest;
        Avm_obs.Metrics.incr "net.seen_evicted"
      done;
      Queue.add key t.seen_order;
      Hashtbl.replace t.seen key ack;
      `Ack ack
    end

let accept_ack t ack ~acker_cert =
  match Hashtbl.find_opt t.sends ack.Wireformat.nonce with
  | None -> Error "ack for unknown nonce"
  | Some pending ->
    if pending.acked then Ok ()
    else if not (Config.accountable t.config) then begin
      pending.acked <- true;
      Ok ()
    end
    else if
      Config.signing t.config
      && not (Wireformat.verify_ack acker_cert ack ~sent:pending.envelope)
    then Error "invalid ack"
    else begin
      charge_daemon t (Config.verify_cost_us t.config);
      ignore
        (Log.append t.log
           (Entry.Ack
              {
                src = ack.Wireformat.acker;
                acked_seq = pending.send_seq;
                signature = Auth.encode ack.Wireformat.recv_auth;
              }));
      pending.acked <- true;
      Ok ()
    end

let unacked t ~older_than_us =
  Hashtbl.fold
    (fun _ p acc ->
      if (not p.acked) && p.last_sent_us < older_than_us then p.envelope :: acc else acc)
    t.sends []
  |> List.sort (fun (a : Wireformat.envelope) b -> compare a.Wireformat.nonce b.Wireformat.nonce)

let retransmit_due t ~now_us =
  let max_attempts = t.config.Config.retrans_max_attempts in
  let due =
    Hashtbl.fold
      (fun _ p acc ->
        if p.acked || p.gave_up then acc
        else if max_attempts > 0 && p.attempts >= max_attempts then begin
          p.gave_up <- true;
          t.gaveup_count <- t.gaveup_count + 1;
          Avm_obs.Metrics.incr "net.backoff_gaveup";
          acc
        end
        else if now_us >= p.last_sent_us +. Config.retrans_delay_us t.config ~attempts:p.attempts
        then p :: acc
        else acc)
      t.sends []
    (* Hashtbl order is unspecified: sort for bit-determinism. *)
    |> List.sort (fun a b -> compare a.envelope.Wireformat.nonce b.envelope.Wireformat.nonce)
  in
  List.map
    (fun p ->
      p.last_sent_us <- now_us;
      p.attempts <- p.attempts + 1;
      t.retrans_count <- t.retrans_count + 1;
      Avm_obs.Metrics.incr "net.retransmissions";
      p.envelope)
    due

let retransmissions_sent t = t.retrans_count
let retransmissions_gaveup t = t.gaveup_count

let next_retrans_at t =
  (* Earliest moment any pending send needs attention. Envelopes past
     [retrans_max_attempts] still contribute their due time: the next
     {!retransmit_due} call is what marks them given-up. *)
  Hashtbl.fold
    (fun _ p acc ->
      if p.acked || p.gave_up then acc
      else
        Float.min acc (p.last_sent_us +. Config.retrans_delay_us t.config ~attempts:p.attempts))
    t.sends infinity

(* --- Local inputs, notes, adversary ------------------------------------ *)

let queue_input t v = Queue.add (v land 0xffffffff) t.input_queue

let note t s =
  if Config.recording t.config then ignore (Log.append t.log (Entry.Note s))

let seen_size t = Hashtbl.length t.seen

(* --- Commitments -------------------------------------------------------- *)

let commitment t =
  if not (Config.accountable t.config) then None
  else begin
    let n = Log.length t.log in
    if n = 0 then None
    else begin
      let entry = Log.entry t.log n in
      let prev = Log.prev_hash t.log n in
      charge_daemon t (Config.sign_cost_us t.config);
      Some (Auth.make t.identity ~entry ~prev_hash:prev)
    end
  end

let poke t ~addr ~value = Memory.write (Machine.mem t.machine) addr value
let peek t ~addr = Memory.read (Machine.mem t.machine) addr
