module OA = Avm_core.Online_audit
module Metrics = Avm_obs.Metrics
module Trace = Avm_obs.Trace

type event = {
  ev_session : string;
  ev_verdict : OA.verdict;
  ev_entry_seq : int option;
  ev_chunk : int;
  ev_lag_entries : int;
  ev_outcome : Avm_core.Audit.outcome;
}

type session = {
  s_id : string;
  s_session : OA.Session.t;
  mutable s_fired : bool;  (* verdict already delivered via on_verdict *)
}

type t = {
  high : int;
  low : int;
  max_lag : int;
  d_cache : Avm_core.Replay_cache.t option;
  d_equiv : Avm_core.Witness.equiv_store;
  on_verdict : event -> unit;
  sessions : (string, session) Hashtbl.t;
  mutable n_verdicts : int;
  mutable n_ingested : int;
}

let create ?high_watermark ?low_watermark ?(max_lag_entries = 4096) ?cache
    ?(on_verdict = fun _ -> ()) () =
  let high = match high_watermark with Some h -> h | None -> max_lag_entries in
  let low = match low_watermark with Some l -> l | None -> high / 2 in
  {
    high;
    low;
    max_lag = max_lag_entries;
    d_cache = cache;
    d_equiv = Avm_core.Witness.equiv_store ();
    on_verdict;
    sessions = Hashtbl.create 64;
    n_verdicts = 0;
    n_ingested = 0;
  }

let attach t ~id ~ctx ~image ?mem_words ?replay_rate ?snapshot_of ~peers () =
  if Hashtbl.mem t.sessions id then
    invalid_arg (Printf.sprintf "Daemon.attach: duplicate session id %S" id);
  let s_session =
    OA.Session.open_session ~ctx ~image ?mem_words ?replay_rate ~high_watermark:t.high
      ~low_watermark:t.low ?cache:t.d_cache ?snapshot_of ~peers ()
  in
  Hashtbl.replace t.sessions id { s_id = id; s_session; s_fired = false };
  Metrics.incr "service.sessions_attached"

let find t id =
  match Hashtbl.find_opt t.sessions id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Daemon: unknown session id %S" id)

let event_of s v =
  let st = OA.Session.status s.s_session in
  {
    ev_session = s.s_id;
    ev_verdict = v;
    ev_entry_seq = Avm_core.Audit.verdict_entry v;
    ev_chunk = st.OA.chunks_retired;
    ev_lag_entries = st.OA.lag_entries;
    ev_outcome = OA.Session.outcome s.s_session;
  }

(* Deliver a session's verdict exactly once. *)
let fire t s v =
  if not s.s_fired then begin
    s.s_fired <- true;
    t.n_verdicts <- t.n_verdicts + 1;
    Metrics.incr "service.verdicts";
    let ev = event_of s v in
    t.on_verdict ev;
    Some ev
  end
  else None

let fire_pending t s =
  match (OA.Session.status s.s_session).OA.verdict with
  | Some v -> fire t s v
  | None -> None

let ingest t ~id log =
  let s = find t id in
  let before = (OA.Session.status s.s_session).OA.ingested_entries in
  let r = OA.Session.ingest s.s_session log in
  let st = OA.Session.status s.s_session in
  let pulled = st.OA.ingested_entries - before in
  t.n_ingested <- t.n_ingested + pulled;
  Metrics.incr ~by:pulled "service.entries_ingested";
  ignore (fire_pending t s : event option);
  r

let offer_auth t ~id auth =
  let s = find t id in
  let r = Avm_core.Witness.offer t.d_equiv ~cert:(OA.Session.node_cert s.s_session) auth in
  (match r with
  | Avm_core.Witness.Conflict ev ->
    Metrics.incr "service.equivocations";
    (match ev.Avm_core.Evidence.accusation with
    | Avm_core.Evidence.Equivocation { a; b } ->
      OA.Session.equivocate s.s_session ~a ~b;
      ignore (fire_pending t s : event option)
    | _ -> ())
  | Avm_core.Witness.Fresh | Avm_core.Witness.Known ->
    OA.Session.add_auth s.s_session auth;
    ignore (fire_pending t s : event option)
  | Avm_core.Witness.Rejected _ -> ());
  r

let outcome t ~id = OA.Session.outcome (find t id).s_session

let equiv_proofs t = Avm_core.Witness.equiv_proofs t.d_equiv

let session_status t ~id = OA.Session.status (find t id).s_session

let session_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.sessions [] |> List.sort compare

let live_sessions t =
  Hashtbl.fold (fun _ s acc -> if s.s_fired then acc else s :: acc) t.sessions []

let refresh_gauges t =
  let lags =
    Hashtbl.fold
      (fun _ s acc -> OA.Session.lag_entries s.s_session :: acc)
      t.sessions []
    |> List.sort compare
  in
  let n = List.length lags in
  let nth_pct p = if n = 0 then 0 else List.nth lags (min (n - 1) (n * p / 100)) in
  Metrics.set "service.sessions" (float_of_int (Hashtbl.length t.sessions));
  Metrics.set "service.lag_entries_max" (float_of_int (nth_pct 100));
  Metrics.set "service.lag_entries_p99" (float_of_int (nth_pct 99));
  List.iter (fun l -> Metrics.observe "service.lag_entries" (float_of_int l)) lags

let pump t ~budget_instructions ?(par = Avm_core.Audit.sequential) () =
  Trace.with_span ~name:"service.pump"
    ~attrs:[ ("sessions", string_of_int (Hashtbl.length t.sessions)) ]
  @@ fun () ->
  (* Laggiest first: the budget bounds the worst session, not the mean. *)
  let order =
    live_sessions t
    |> List.map (fun s -> (OA.Session.lag_entries s.s_session, s))
    |> List.sort (fun (l1, s1) (l2, s2) ->
           if l1 <> l2 then compare l2 l1 else compare s1.s_id s2.s_id)
    |> List.map snd
  in
  let step s = ignore (OA.Session.step s.s_session ~budget_instructions : OA.verdict option) in
  (match par.Avm_core.Audit.pool with
  | Some pool when Avm_util.Domain_pool.jobs pool > 1 ->
    ignore (Avm_util.Domain_pool.map_list pool step order : unit list)
  | _ ->
    if par.Avm_core.Audit.jobs > 1 then
      Avm_util.Domain_pool.with_pool ~jobs:par.Avm_core.Audit.jobs (fun pool ->
          ignore (Avm_util.Domain_pool.map_list pool step order : unit list))
    else List.iter step order);
  (* Verdicts are delivered sequentially on the calling domain, in
     session-id order, whatever the stepping order was. *)
  let fired =
    List.sort (fun s1 s2 -> compare s1.s_id s2.s_id) order
    |> List.filter_map (fire_pending t)
  in
  refresh_gauges t;
  List.length fired

let detach t ~id =
  let s = find t id in
  let final =
    match OA.Session.close s.s_session with Some v -> fire t s v | None -> None
  in
  Hashtbl.remove t.sessions id;
  Metrics.incr "service.sessions_detached";
  final

type stats = {
  sessions : int;
  verdicts : int;
  entries_ingested : int;
  lag_max : int;
  lag_p50 : int;
  lag_p99 : int;
  backpressured : int;
}

let stats (t : t) =
  let statuses =
    Hashtbl.fold (fun _ s acc -> OA.Session.status s.s_session :: acc) t.sessions []
  in
  let lags = List.map (fun st -> st.OA.lag_entries) statuses |> List.sort compare in
  let n = List.length lags in
  let nth_pct p = if n = 0 then 0 else List.nth lags (min (n - 1) (n * p / 100)) in
  {
    sessions = n;
    verdicts = t.n_verdicts;
    entries_ingested = t.n_ingested;
    lag_max = nth_pct 100;
    lag_p50 = nth_pct 50;
    lag_p99 = nth_pct 99;
    backpressured =
      List.length (List.filter (fun st -> st.OA.throttled) statuses);
  }

let shutdown t = List.filter_map (fun id -> detach t ~id) (session_ids t)
