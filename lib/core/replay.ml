open Avm_machine
open Avm_tamperlog

type divergence_kind =
  | Input_mismatch
  | Irq_landmark_mismatch
  | Output_mismatch
  | Missing_output
  | Snapshot_mismatch
  | Crossref_mismatch
  | Guest_halted_early
  | Guest_stalled
  | Guest_fault

let kind_name = function
  | Input_mismatch -> "input-mismatch"
  | Irq_landmark_mismatch -> "irq-landmark-mismatch"
  | Output_mismatch -> "output-mismatch"
  | Missing_output -> "missing-output"
  | Snapshot_mismatch -> "snapshot-mismatch"
  | Crossref_mismatch -> "crossref-mismatch"
  | Guest_halted_early -> "guest-halted-early"
  | Guest_stalled -> "guest-stalled"
  | Guest_fault -> "guest-fault"

type divergence = {
  kind : divergence_kind;
  at : Landmark.t;
  entry_seq : int option;
  detail : string;
}

type outcome =
  | Verified of { instructions : int; entries_consumed : int }
  | Diverged of divergence

let pp_outcome fmt = function
  | Verified { instructions; entries_consumed } ->
    Format.fprintf fmt "@[<h>verified: %d instructions, %d log entries@]" instructions
      entries_consumed
  | Diverged d ->
    Format.fprintf fmt "@[<h>DIVERGED (%s) at %a%s: %s@]" (kind_name d.kind) Landmark.pp d.at
      (match d.entry_seq with Some s -> Printf.sprintf " entry #%d" s | None -> "")
      d.detail

exception Fault_exn of divergence

(* Entries the replayed execution must actively reproduce, in order. *)
let is_active (e : Entry.t) =
  match e.content with
  | Entry.Exec _ | Entry.Send _ | Entry.Snapshot_ref _ -> true
  | Entry.Recv _ | Entry.Ack _ | Entry.Note _ -> false

let no_entry = Entry.seal ~prev:"" ~seq:0 (Entry.Note "")

type engine = {
  machine : Machine.t;
  peers : (int * string) list;
  strict_landmarks : bool;
  mutable active : Entry.t array; (* queue of active entries: [pos, len) pending *)
  mutable len : int;
  mutable pos : int;
  mutable consumed : int; (* active entries reproduced so far *)
  recvs : (int, int array option) Hashtbl.t;
      (* RECV entry seq -> payload words; [None] if not word-aligned *)
  rx_read : (int, int) Hashtbl.t; (* RECV entry seq -> words consumed *)
  mutable fed : int; (* total entries fed, incl. passive *)
  mutable first_seq : int; (* seq of the first fed entry; -1 before any *)
  mutable fault : divergence option;
  start_icount : int;
  backend : Machine.backend;
}

let peek e = if e.pos < e.len then Some e.active.(e.pos) else None

let advance e =
  e.pos <- e.pos + 1;
  e.consumed <- e.consumed + 1

let exhausted e = e.pos >= e.len

(* A full queue first drops its consumed prefix: the pending suffix
   slides to the front when it fills at most half the array, and moves
   to a fresh array twice its size otherwise. Either way the copy costs
   no more than the free slots it leaves, and the capacity stays within
   twice the largest pending backlog (an online session keeps one
   engine for its whole life). *)
let push_active e entry =
  let cap = Array.length e.active in
  if e.len = cap then begin
    let pending = e.len - e.pos in
    if 2 * pending <= cap then begin
      Array.blit e.active e.pos e.active 0 pending;
      Array.fill e.active pending (cap - pending) no_entry
    end
    else begin
      let bigger = Array.make (max 64 (2 * pending)) no_entry in
      Array.blit e.active e.pos bigger 0 pending;
      e.active <- bigger
    end;
    e.pos <- 0;
    e.len <- pending
  end;
  e.active.(e.len) <- entry;
  e.len <- e.len + 1

let feed_entry e (entry : Entry.t) =
  Avm_obs.Metrics.incr "replay.entries_fed";
  e.fed <- e.fed + 1;
  if e.first_seq < 0 then e.first_seq <- entry.Entry.seq;
  (match entry.content with
  | Entry.Recv { payload; _ } ->
    (* A payload no AVMM could have injected is only a fault once the
       guest reads it, like any other RECV it disagrees with. *)
    let words =
      try Some (Wireformat.words_of_payload payload) with Avm_util.Wire.Malformed _ -> None
    in
    Hashtbl.replace e.recvs entry.seq words
  | _ -> ());
  if is_active entry then push_active e entry

let feed e entries = List.iter (feed_entry e) entries

let crossref_check e ~entry_seq ~msg ~value at =
  match Hashtbl.find_opt e.recvs msg with
  | None ->
    (* References to entries before the replayed segment cannot be
       checked here (the syntactic check validates their ordering); a
       reference inside the segment that is not a RECV is a fault. *)
    if msg >= e.first_seq then
      raise
        (Fault_exn
           {
             kind = Crossref_mismatch;
             at;
             entry_seq = Some entry_seq;
             detail = Printf.sprintf "rx read references entry %d which is not a RECV" msg;
           })
  | Some None ->
    raise
      (Fault_exn
         {
           kind = Crossref_mismatch;
           at;
           entry_seq = Some entry_seq;
           detail =
             Printf.sprintf "rx read of message %d whose RECV payload is not word-aligned" msg;
         })
  | Some (Some words) ->
    let idx = Option.value ~default:0 (Hashtbl.find_opt e.rx_read msg) in
    Hashtbl.replace e.rx_read msg (idx + 1);
    let expected = if idx < Array.length words then words.(idx) else 0 in
    if expected <> value then
      raise
        (Fault_exn
           {
             kind = Crossref_mismatch;
             at;
             entry_seq = Some entry_seq;
             detail =
               Printf.sprintf "word %d of message %d was injected as %d but RECV logged %d"
                 idx msg value expected;
           })

let engine ~image ?mem_words ?start ?(strict_landmarks = true) ~peers () =
  let machine =
    match start with
    | Some m -> m
    | None -> (
      match mem_words with
      | Some w -> Machine.create ~mem_words:w image
      | None -> Machine.create image)
  in
  let rec e =
    {
      machine;
      peers;
      strict_landmarks;
      active = Array.make 64 no_entry;
      len = 0;
      pos = 0;
      consumed = 0;
      recvs = Hashtbl.create 64;
      rx_read = Hashtbl.create 64;
      fed = 0;
      first_seq = -1;
      fault = None;
      start_icount = Machine.icount machine;
      backend =
        {
          Machine.io_in = (fun port -> io_in port);
          io_out = (fun _ _ -> ());
          observe = (fun o -> observe o);
          poll_irq = (fun () -> poll_irq ());
        };
    }
  and here () = Machine.landmark e.machine
  and io_in port =
    match peek e with
    | Some { Entry.content = Entry.Exec (Event.Io_in ev); seq; _ } when ev.port = port ->
      advance e;
      if ev.msg >= 0 then crossref_check e ~entry_seq:seq ~msg:ev.msg ~value:ev.value (here ());
      ev.value
    | Some entry ->
      raise
        (Fault_exn
           {
             kind = Input_mismatch;
             at = here ();
             entry_seq = Some entry.Entry.seq;
             detail =
               Printf.sprintf "guest read port %s but log has %s"
                 (Avm_isa.Isa.port_name port)
                 (Format.asprintf "%a" Entry.pp entry);
           })
    | None ->
      raise
        (Fault_exn
           {
             kind = Input_mismatch;
             at = here ();
             entry_seq = None;
             detail =
               Printf.sprintf "guest read port %s beyond the available log"
                 (Avm_isa.Isa.port_name port);
           })
  and poll_irq () =
    match peek e with
    | Some { Entry.content = Entry.Exec (Event.Irq { landmark; line }); seq; _ }
      when landmark.Landmark.icount = Machine.icount e.machine ->
      advance e;
      let now = here () in
      if e.strict_landmarks && not (Landmark.equal landmark now) then
        raise
          (Fault_exn
             {
               kind = Irq_landmark_mismatch;
               at = now;
               entry_seq = Some seq;
               detail =
                 Printf.sprintf "recorded landmark %s vs replayed %s"
                   (Landmark.to_string landmark) (Landmark.to_string now);
             });
      Some line
    | _ -> None
  and observe = function
    | Machine.Console _ | Machine.Frame -> ()
    | Machine.Packet_sent words ->
      if Array.length words = 0 then ()
      else begin
        (* Counted before the peer-map lookup: [Replay_cache] uses the
           delta across a replay to decide whether its outcome depended
           on the peer map at all (an unmapped emission is invisible in
           the log but still peers-sensitive). *)
        Replay_cache.note_packet_emitted ();
        Avm_obs.Metrics.incr "replay.packets_emitted";
        let dest_id = words.(0) in
        match List.assoc_opt dest_id e.peers with
        | None -> ()
        | Some dest -> (
          let payload =
            Wireformat.payload_of_words (Array.sub words 1 (Array.length words - 1))
          in
          match peek e with
          | Some { Entry.content = Entry.Send s; _ }
            when String.equal s.dest dest && String.equal s.payload payload ->
            advance e
          | Some entry ->
            raise
              (Fault_exn
                 {
                   kind = Output_mismatch;
                   at = here ();
                   entry_seq = Some entry.Entry.seq;
                   detail =
                     Printf.sprintf "guest sent %dB to %s but log has %s"
                       (String.length payload) dest
                       (Format.asprintf "%a" Entry.pp entry);
                 })
          | None ->
            raise
              (Fault_exn
                 {
                   kind = Output_mismatch;
                   at = here ();
                   entry_seq = None;
                   detail = "guest sent a packet beyond the available log";
                 }))
      end
  in
  e

(* Wall seconds this domain has spent recomputing state digests in
   [check_snapshots], so a caller can split its replay time without a
   span per check. *)
let digest_clock = Domain.DLS.new_key (fun () -> ref 0.0)
let digest_seconds () = !(Domain.DLS.get digest_clock)

(* Verify any due snapshot digests at the current instruction count. *)
let check_snapshots e =
  let continue = ref true in
  while !continue do
    match peek e with
    | Some { Entry.content = Entry.Snapshot_ref { digest; at_icount; snapshot_seq }; seq; _ }
      when at_icount <= Machine.icount e.machine ->
      if at_icount < Machine.icount e.machine then
        raise
          (Fault_exn
             {
               kind = Snapshot_mismatch;
               at = Machine.landmark e.machine;
               entry_seq = Some seq;
               detail = Printf.sprintf "snapshot %d was due at icount %d" snapshot_seq at_icount;
             });
      let t0 = Avm_obs.Clock.now_s () in
      let recomputed = Snapshot.machine_digest ~at_icount e.machine in
      let spent = Domain.DLS.get digest_clock in
      spent := !spent +. (Avm_obs.Clock.now_s () -. t0);
      if not (String.equal recomputed digest) then
        raise
          (Fault_exn
             {
               kind = Snapshot_mismatch;
               at = Machine.landmark e.machine;
               entry_seq = Some seq;
               detail = Printf.sprintf "replayed state digest differs for snapshot %d" snapshot_seq;
             });
      advance e
    | _ -> continue := false
  done

let engine_machine e = e.machine
let replayed_instructions e = Machine.icount e.machine - e.start_icount
let consumed_entries e = e.consumed
let pending_entries e = e.len - e.pos

let sat_add a b = if a > max_int - b then max_int else a + b

(* The icount at which replay must next consult the log: the head
   IRQ's landmark (the only icount at which the poll can return
   [Some]) or the head snapshot's due icount; the current icount once
   the queue is empty. An IRQ landmark already behind the machine can
   never fire and bounds nothing. *)
let next_event e =
  let now = Machine.icount e.machine in
  match peek e with
  | None -> now
  | Some { Entry.content = Entry.Exec (Event.Irq { landmark; _ }); _ } ->
    if landmark.Landmark.icount >= now then landmark.Landmark.icount else max_int
  | Some { Entry.content = Entry.Snapshot_ref { at_icount; _ }; _ } -> at_icount
  | Some _ -> max_int

(* At each stop, the checks the log needs between instructions; then
   one [step], which polls at the current icount, and [run_until] the
   next event (DESIGN.md §22). Between stops the head entry cannot
   change: only backend calls, the poll and [check_snapshots] move it,
   and [run_until] returns after every backend call. *)
let crank e ~fuel =
  match e.fault with
  | Some d -> `Fault d
  | None -> (
    let icount0 = Machine.icount e.machine in
    let stops = ref 0 in
    let result = ref None in
    (try
       while !result = None do
         incr stops;
         check_snapshots e;
         (* Counted by difference: a restored icount may sit anywhere. *)
         let left = fuel - (Machine.icount e.machine - icount0) in
         if exhausted e then result := Some `Blocked
         else if Machine.halted e.machine then
           raise
             (Fault_exn
                {
                  kind = Guest_halted_early;
                  at = Machine.landmark e.machine;
                  entry_seq = Option.map (fun (x : Entry.t) -> x.seq) (peek e);
                  detail = "reference machine halted with log entries remaining";
                })
         else if left <= 0 then result := Some `Fuel_exhausted
         else begin
           ignore (Machine.step e.machine e.backend);
           Machine.run_until e.machine e.backend
             ~limit:(min (next_event e) (sat_add (Machine.icount e.machine) (left - 1)))
         end
       done
     with
    | Fault_exn d ->
      Avm_obs.Metrics.incr "replay.divergences";
      e.fault <- Some d;
      result := Some (`Fault d)
    | Machine.Runtime_fault { pc; reason } ->
      let d =
        {
          kind = Guest_fault;
          at = Machine.landmark e.machine;
          entry_seq = None;
          detail = Printf.sprintf "reference guest faulted at pc=0x%x: %s" pc reason;
        }
      in
      Avm_obs.Metrics.incr "replay.divergences";
      e.fault <- Some d;
      result := Some (`Fault d));
    Avm_obs.Metrics.incr ~by:(Machine.icount e.machine - icount0) "replay.instructions";
    Avm_obs.Metrics.incr ~by:!stops "replay.kernel_stops";
    Avm_obs.Metrics.set "replay.queue_capacity" (float_of_int (Array.length e.active));
    match !result with Some r -> r | None -> assert false)

let default_fuel = 200_000_000

let stall e ~fuel =
  {
    kind = Guest_stalled;
    at = Machine.landmark e.machine;
    entry_seq = Option.map (fun (x : Entry.t) -> x.seq) (peek e);
    detail = Printf.sprintf "fuel (%d instructions) exhausted" fuel;
  }

let verified = function
  | Verified { instructions; entries_consumed } ->
    Some { Replay_cache.instructions; entries_consumed }
  | Diverged _ -> None

(* Drive an engine over a lazy stream of log chunks. Compressed
   segments inflate only when the replay actually reaches them: each
   chunk is fed, cranked until the engine blocks, and only then is the
   next chunk forced. *)
let replay_chunks ~image ?mem_words ?start ?(fuel = default_fuel) ?strict_landmarks
    ~peers ~chunks () =
  let e = engine ~image ?mem_words ?start ?strict_landmarks ~peers () in
  (* Crank until blocked on the current feed, or a terminal result. *)
  let rec drain remaining =
    match crank e ~fuel:(min remaining 10_000_000) with
    | `Blocked -> `More remaining
    | `Fault d -> `Done (Diverged d)
    | `Fuel_exhausted ->
      let left = fuel - replayed_instructions e in
      if left <= 0 then `Done (Diverged (stall e ~fuel)) else drain left
  in
  (* Each drain after a feed replays exactly that chunk ([`Blocked]
     means every fed entry was consumed), so spanning the drain gives
     one wall-clock [replay.chunk] span per chunk. *)
  let chunk_no = ref (-1) in
  let spanned_drain remaining =
    if !chunk_no < 0 then drain remaining
    else
      Avm_obs.Trace.with_span ~name:"replay.chunk"
        ~attrs:[ ("chunk", string_of_int !chunk_no) ]
        (fun () -> drain remaining)
  in
  let rec go chunks remaining =
    match spanned_drain remaining with
    | `Done outcome -> outcome
    | `More remaining -> (
      match chunks () with
      | Seq.Nil ->
        (* [`Blocked] means every fed entry was consumed and verified. *)
        Verified { instructions = replayed_instructions e; entries_consumed = e.fed }
      | Seq.Cons (chunk, rest) ->
        incr chunk_no;
        Avm_obs.Metrics.incr "replay.chunks_replayed";
        feed e chunk;
        go rest remaining)
  in
  go chunks fuel

let replay ~image ?mem_words ?start ?fuel ?strict_landmarks ~peers ~entries () =
  replay_chunks ~image ?mem_words ?start ?fuel ?strict_landmarks ~peers
    ~chunks:(Seq.return entries) ()
