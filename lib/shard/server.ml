module Ws = Sm_mergeable.Workspace
module Registry = Sm_dist.Registry
module Netpipe = Sm_sim.Netpipe
module Obs = Sm_obs
module E = Sm_obs.Event

let m_epochs = Obs.Metrics.counter "shard.epochs"
let m_epoch_edits = Obs.Metrics.counter "shard.epoch_edits"
let m_delta_bytes = Obs.Metrics.counter "shard.delta_bytes"
let m_snapshot_bytes = Obs.Metrics.counter "shard.snapshot_bytes"
let m_replays = Obs.Metrics.counter "shard.replayed_replies"
let m_rejected = Obs.Metrics.counter "shard.rejected_frames"
let m_nacks = Obs.Metrics.counter "shard.nacks"
let h_epoch_size = Obs.Metrics.histogram "shard.epoch_size"

(* The OT layer's global counters, read as deltas around each per-document
   merge so the conflict profiler can attribute transform calls and
   compaction to individual documents.  Deltas are only meaningful when
   {!Obs.Metrics} is enabled — otherwise they read 0 and the profile stays
   empty, at zero cost. *)
let m_ot_transforms = Obs.Metrics.counter "ot.transform_calls"
let m_ot_compact_in = Obs.Metrics.counter "ot.compact_in"
let m_ot_compact_out = Obs.Metrics.counter "ot.compact_out"

(* Trace lanes: shards park above the dist layer's 1M-range coordinator and
   task lanes, one lane per shard. *)
let obs_shard_tid k = 2_000_000 + k
let obs_shard_name k = Printf.sprintf "shard%d" k

type mode =
  [ `Delta
  | `Snapshot
  ]

(* Per-document conflict profile, the live counterpart of the trace-side
   [Doc_merge] accounting. *)
type doc_stat =
  { mutable d_merges : int
  ; mutable d_ops : int
  ; mutable d_transforms : int
  ; mutable d_compact_in : int
  ; mutable d_compact_out : int
  }

type session =
  { sid : int
  ; client : string
  ; mutable sconn : Netpipe.conn
  ; acked : (int, int) Hashtbl.t  (* wire_id -> last revision shipped to this client *)
  ; mutable last_req : int  (* highest request number answered *)
  ; mutable cached : string option  (* sealed reply frame for [last_req] *)
  ; mutable last_eid : int  (* highest edit batch merged (dedup across re-issues) *)
  }

type t =
  { reg : Registry.t
  ; ws : Ws.t
  ; shard_id : int
  ; mode : mode
  ; epoch_ticks : int
  ; listener : Netpipe.listener
  ; mutable conns : Netpipe.conn list  (* accept order — the deterministic poll order *)
  ; sessions : (int, session) Hashtbl.t
  ; mutable next_sid : int
  ; mutable epoch_buffer :
      (session
      * int
      * int
      * (int * int) list
      * (int * string) list
      * Obs.Trace_ctx.t option)
      list
      (* (session, req, eid, base, ops, serve ctx), arrival order (reversed) *)
  ; mutable tick_count : int
  ; h_merge : Obs.Metrics.histogram  (* per-shard merge latency *)
  ; mutable delta_payload_bytes : int  (* document bytes shipped as deltas *)
  ; mutable snap_payload_bytes : int  (* document bytes shipped as snapshots *)
  ; delta_memo : (int * int * int, string) Hashtbl.t
      (* shared encoded-suffix cache for one epoch's replies *)
  ; mutable epochs_run : int
  ; mutable edits_merged : int
  ; mutable replays : int  (* reply-cache hits: duplicate requests answered from cache *)
  ; mutable rejects : int  (* undecodable/incompatible frames dropped *)
  ; mutable nacks : int
  ; docs : (string, doc_stat) Hashtbl.t
  ; recorder : Obs.Flight_recorder.t
  ; obs_task : string
  ; obs_tid : int
  }

let create ~reg ~shard_id ~mode ~epoch_ticks ~init =
  if epoch_ticks <= 0 then invalid_arg "Server.create: epoch_ticks must be positive";
  let ws = Ws.create () in
  init ws;
  { reg
  ; ws
  ; shard_id
  ; mode
  ; epoch_ticks
  ; listener = Netpipe.listen ()
  ; conns = []
  ; sessions = Hashtbl.create 32
  ; next_sid = 0
  ; epoch_buffer = []
  ; tick_count = 0
  ; h_merge = Obs.Metrics.histogram (Printf.sprintf "shard%d.merge_ns" shard_id)
  ; delta_payload_bytes = 0
  ; snap_payload_bytes = 0
  ; delta_memo = Hashtbl.create 64
  ; epochs_run = 0
  ; edits_merged = 0
  ; replays = 0
  ; rejects = 0
  ; nacks = 0
  ; docs = Hashtbl.create 16
  ; recorder = Obs.Flight_recorder.create (obs_shard_name shard_id)
  ; obs_task = obs_shard_name shard_id
  ; obs_tid = obs_shard_tid shard_id
  }

(* The flight recorder rides every request regardless of sink verbosity:
   the event is built only when recording is on, and the ring store is the
   whole cost — the overhead bench gates it. *)
let fr t kind args =
  if Obs.Flight_recorder.enabled () then
    Obs.Flight_recorder.record t.recorder (E.make ~task:t.obs_task ~task_id:t.obs_tid ~args kind)

let listener t = t.listener
let workspace t = t.ws
let digest t = Ws.digest t.ws
let delta_bytes_sent t = t.delta_payload_bytes
let snapshot_bytes_sent t = t.snap_payload_bytes
let epochs_run t = t.epochs_run
let edits_merged t = t.edits_merged
let session_count t = Hashtbl.length t.sessions
let idle t = t.epoch_buffer = []
let replayed_replies t = t.replays
let rejected_frames t = t.rejects
let nacks_sent t = t.nacks
let recorder t = t.recorder
let shard_id t = t.shard_id

let doc_stats t =
  Hashtbl.fold (fun doc d acc -> (doc, d) :: acc) t.docs []
  |> List.sort (fun (da, a) (db, b) ->
         match compare b.d_transforms a.d_transforms with
         | 0 -> ( match compare b.d_ops a.d_ops with 0 -> compare da db | c -> c)
         | c -> c)

(* The worst catch-up debt any session carries: revisions at the head that
   the session has not been shipped yet, summed across documents.  What
   [sm-shard stats] reports as cursor lag. *)
let max_cursor_lag t =
  let head = Registry.revisions t.reg t.ws in
  Hashtbl.fold
    (fun _ (s : session) acc ->
      let lag =
        List.fold_left
          (fun a (id, rev) ->
            a + max 0 (rev - Option.value ~default:0 (Hashtbl.find_opt s.acked id)))
          0 head
      in
      max acc lag)
    t.sessions 0

(* --- replies ---------------------------------------------------------------- *)

let snapshot_payload t =
  let revs = Registry.revisions t.reg t.ws in
  let states = Registry.encode_snapshot t.reg t.ws in
  Proto.Snap
    (List.map
       (fun (id, bytes) ->
         (id, (try List.assoc id revs with Not_found -> 0), bytes))
       states)

(* Fresh payload bringing [s] from what we last shipped it to the current
   head; advances the shipped-revision watermark. *)
let fresh_payload t (s : session) =
  let payload =
    match t.mode with
    | `Snapshot -> snapshot_payload t
    | `Delta ->
      Proto.Delta
        (Registry.encode_delta ~memo:t.delta_memo t.reg t.ws ~since:(fun id ->
             Option.value ~default:0 (Hashtbl.find_opt s.acked id)))
  in
  List.iter (fun (id, rev) -> Hashtbl.replace s.acked id rev) (Registry.revisions t.reg t.ws);
  payload

let account_payload t payload =
  let bytes = Proto.payload_bytes payload in
  (match payload with
  | Proto.Delta _ ->
    t.delta_payload_bytes <- t.delta_payload_bytes + bytes;
    Obs.Metrics.add m_delta_bytes bytes
  | Proto.Snap _ ->
    t.snap_payload_bytes <- t.snap_payload_bytes + bytes;
    Obs.Metrics.add m_snapshot_bytes bytes);
  if Obs.on Obs.Info then begin
    (* The counterfactual: what this sync would have cost as a snapshot. *)
    let snapshot_bytes =
      match payload with
      | Proto.Snap _ -> bytes
      | Proto.Delta _ -> Proto.payload_bytes (snapshot_payload t)
    in
    Obs.emit
      (E.make ~task:t.obs_task ~task_id:t.obs_tid
         ~args:
           [ ( "mode"
             , E.S (match payload with Proto.Delta _ -> "delta" | Proto.Snap _ -> "snapshot") )
           ; ("bytes", E.I bytes)
           ; ("snapshot_bytes", E.I snapshot_bytes)
           ]
         E.Delta_sync)
  end

(* One Serve record per handled request: always into the flight ring, and —
   when the request carried a context — also onto the request tree, as a
   span child of the client's request span.  Returns the serve span for the
   epoch merge to parent on. *)
let serve t ~op ~req ~session tctx =
  let args = [ ("op", E.S op); ("req", E.I req); ("session", E.I session) ] in
  fr t E.Serve args;
  match tctx with
  | None -> None
  | Some c ->
    let sctx = Obs.Trace_ctx.child c (Printf.sprintf "%s/%s/s%d/r%d" t.obs_task op session req) in
    if Obs.on Obs.Info then
      Obs.emit
        (E.make ~task:t.obs_task ~task_id:t.obs_tid
           ~args:(args @ Obs.Trace_ctx.args sctx)
           E.Serve);
    Some sctx

let reply ?ctx (s : session) ~req msg =
  let frame = Proto.seal_s2c ?ctx msg in
  s.last_req <- req;
  s.cached <- Some frame;
  Netpipe.send s.sconn frame

let replay t (s : session) =
  t.replays <- t.replays + 1;
  Obs.Metrics.incr m_replays;
  fr t E.Note [ ("name", E.S "replay"); ("session", E.I s.sid); ("req", E.I s.last_req) ];
  match s.cached with Some frame -> Netpipe.send s.sconn frame | None -> ()

(* A Nack is a service hazard (protocol violation or lost session): besides
   refusing, snapshot every flight ring so the post-mortem ships with the
   failure. *)
let nack t conn ~session ~req ~reason =
  t.nacks <- t.nacks + 1;
  Obs.Metrics.incr m_nacks;
  fr t E.Validation_fail
    [ ("name", E.S "nack"); ("session", E.I session); ("req", E.I req); ("reason", E.S reason) ];
  Obs.Flight_recorder.trigger
    ~reason:(Printf.sprintf "%s: nack session %d req %d: %s" t.obs_task session req reason);
  Netpipe.send conn (Proto.seal_s2c (Proto.Nack { session; req; reason }))

(* --- receive path ----------------------------------------------------------- *)

let handle_hello t conn ~client ~tctx =
  let s =
    { sid = t.next_sid
    ; client
    ; sconn = conn
    ; acked = Hashtbl.create 8
    ; last_req = -1
    ; cached = None
    ; last_eid = -1
    }
  in
  t.next_sid <- t.next_sid + 1;
  Hashtbl.replace t.sessions s.sid s;
  let sctx = serve t ~op:"hello" ~req:0 ~session:s.sid tctx in
  let payload = fresh_payload t s in
  account_payload t payload;
  reply ?ctx:sctx s ~req:0 (Proto.Welcome { session = s.sid; payload })

let handle_resume t conn ~session ~req ~cursors ~tctx =
  match Hashtbl.find_opt t.sessions session with
  | None -> nack t conn ~session ~req ~reason:"unknown session"
  | Some s ->
    s.sconn <- conn;
    if req <= s.last_req then begin
      (* Duplicate (dup/reorder fault): replay the identical welcome. *)
      replay t s
    end
    else begin
      (* A resume means the client lost its connection — chaos at work.
         Snapshot the rings so the run's post-mortem covers the window the
         disconnect interrupted, then re-ship from the client's cursors. *)
      let sctx = serve t ~op:"resume" ~req ~session tctx in
      Obs.Flight_recorder.trigger
        ~reason:(Printf.sprintf "%s: resume session %d req %d" t.obs_task session req);
      (* The client's cursors are authoritative: acks it never saw must be
         re-shipped, so roll the watermark back to what it actually holds. *)
      Hashtbl.reset s.acked;
      List.iter (fun (id, rev) -> Hashtbl.replace s.acked id rev) cursors;
      let payload = fresh_payload t s in
      account_payload t payload;
      reply ?ctx:sctx s ~req (Proto.Welcome { session = s.sid; payload })
    end

let handle_edit t conn ~session ~req ~eid ~base ~ops ~tctx =
  match Hashtbl.find_opt t.sessions session with
  | None -> nack t conn ~session ~req ~reason:"unknown session"
  | Some s ->
    s.sconn <- conn;
    if req <= s.last_req then replay t s
    else if
      List.exists (fun (s', req', _, _, _, _) -> s'.sid = s.sid && req' = req) t.epoch_buffer
    then () (* retransmit of an edit already waiting for the epoch *)
    else begin
      let sctx = serve t ~op:"edit" ~req ~session tctx in
      t.epoch_buffer <- (s, req, eid, base, ops, sctx) :: t.epoch_buffer
    end

let handle_poll t conn ~session ~req ~tctx =
  match Hashtbl.find_opt t.sessions session with
  | None -> nack t conn ~session ~req ~reason:"unknown session"
  | Some s ->
    s.sconn <- conn;
    if req <= s.last_req then replay t s
    else begin
      (* Answered immediately (not at the epoch): a poll carries no ops, it
         just reads the head — it is how an idle client hears about epochs
         it sent nothing into. *)
      let sctx = serve t ~op:"poll" ~req ~session tctx in
      let payload = fresh_payload t s in
      account_payload t payload;
      reply ?ctx:sctx s ~req (Proto.Ack { session = s.sid; req; payload })
    end

let handle_bye t ~session =
  fr t E.Serve [ ("op", E.S "bye"); ("session", E.I session) ];
  Hashtbl.remove t.sessions session

let reject t reason =
  t.rejects <- t.rejects + 1;
  Obs.Metrics.incr m_rejected;
  fr t E.Note [ ("name", E.S "rejected_frame"); ("reason", E.S reason) ]

let handle_frame t conn frame =
  match Proto.open_c2s frame with
  | tctx, Proto.Hello { client } -> handle_hello t conn ~client ~tctx
  | tctx, Proto.Resume { session; req; cursors } ->
    handle_resume t conn ~session ~req ~cursors ~tctx
  | tctx, Proto.Edit { session; req; eid; base; ops } ->
    handle_edit t conn ~session ~req ~eid ~base ~ops ~tctx
  | tctx, Proto.Poll { session; req } -> handle_poll t conn ~session ~req ~tctx
  | _, Proto.Bye { session } -> handle_bye t ~session
  | exception (Sm_dist.Wire.Frame.Bad_frame msg | Sm_util.Codec.Decode_error msg) -> reject t msg
  | exception Sm_dist.Wire.Frame.Unsupported_version { got; speaks } ->
    reject t (Printf.sprintf "frame version %d (this build speaks %d)" got speaks)

(* --- epoch flush ------------------------------------------------------------ *)

let flush_epoch t =
  match t.epoch_buffer with
  | [] -> ()
  | buffered ->
    (* One batched transform pass: stable session-creation order, so the
       epoch's composition is insensitive to arrival interleavings within
       the window.  Entries whose request number a later Resume already
       superseded are dropped whole — the client discarded that request and
       will re-issue the batch (same eid) if it still matters. *)
    let edits =
      List.stable_sort (fun (a, _, _, _, _, _) (b, _, _, _, _, _) -> compare a.sid b.sid)
        (List.rev buffered)
      |> List.filter (fun ((s : session), req, _, _, _, _) -> req > s.last_req)
    in
    t.epoch_buffer <- [];
    (* The memo keys embed the revision window, so entries never go stale;
       clearing per epoch just bounds the table to one epoch's windows. *)
    Hashtbl.reset t.delta_memo;
    let n = List.length edits in
    fr t E.Epoch_begin [ ("edits", E.I n) ];
    if Obs.on Obs.Debug then
      Obs.emit (E.make ~task:t.obs_task ~task_id:t.obs_tid ~args:[ ("edits", E.I n) ] E.Epoch_begin);
    let total_ops = ref 0 in
    (* Merge pass first, replies second: every participant's ack reflects
       the WHOLE epoch, not the prefix merged before its own batch. *)
    List.iter
      (fun ((s : session), _req, eid, base, ops, sctx) ->
        if eid > s.last_eid then begin
          (* A batch this session has not merged yet (re-issues after a
             resume carry the old eid and are skipped: exactly-once).
             Merged entry-by-entry so the conflict profiler can read the OT
             counter deltas per document. *)
          let batch_ops = ref 0 in
          Obs.Metrics.time t.h_merge (fun () ->
              List.iter
                (fun ((id, _) as entry) ->
                  let tr0 = Obs.Metrics.value m_ot_transforms in
                  let ci0 = Obs.Metrics.value m_ot_compact_in in
                  let co0 = Obs.Metrics.value m_ot_compact_out in
                  let merged =
                    Registry.merge_edit t.reg ~into:t.ws
                      ~base_rev:(fun id -> Option.value ~default:0 (List.assoc_opt id base))
                      [ entry ]
                  in
                  batch_ops := !batch_ops + merged;
                  let transforms = Obs.Metrics.value m_ot_transforms - tr0 in
                  let compact_in = Obs.Metrics.value m_ot_compact_in - ci0 in
                  let compact_out = Obs.Metrics.value m_ot_compact_out - co0 in
                  let doc = Registry.wire_name t.reg id in
                  let d =
                    match Hashtbl.find_opt t.docs doc with
                    | Some d -> d
                    | None ->
                      let d =
                        { d_merges = 0; d_ops = 0; d_transforms = 0; d_compact_in = 0; d_compact_out = 0 }
                      in
                      Hashtbl.replace t.docs doc d;
                      d
                  in
                  d.d_merges <- d.d_merges + 1;
                  d.d_ops <- d.d_ops + merged;
                  d.d_transforms <- d.d_transforms + transforms;
                  d.d_compact_in <- d.d_compact_in + compact_in;
                  d.d_compact_out <- d.d_compact_out + compact_out;
                  if Obs.on Obs.Debug then
                    Obs.emit
                      (E.make ~task:t.obs_task ~task_id:t.obs_tid
                         ~args:
                           [ ("doc", E.S doc)
                           ; ("ops", E.I merged)
                           ; ("transforms", E.I transforms)
                           ; ("compact_in", E.I compact_in)
                           ; ("compact_out", E.I compact_out)
                           ]
                         E.Doc_merge))
                ops);
          (* The merge joins the request tree as a child of the batch's
             Serve span: client request -> shard serve -> epoch merge. *)
          (match sctx with
          | Some c when Obs.on Obs.Info ->
            (* Span labels must be unique within the trace (ids are
               label-derived): eids restart per session, so the label
               carries the session id too. *)
            let mctx =
              Obs.Trace_ctx.child c (Printf.sprintf "%s/merge/s%d/e%d" t.obs_task s.sid eid)
            in
            Obs.emit
              (E.make ~task:t.obs_task ~task_id:t.obs_tid
                 ~args:
                   ([ ("ops", E.I !batch_ops); ("eid", E.I eid) ] @ Obs.Trace_ctx.args mctx)
                 E.Epoch_merge)
          | _ -> ());
          s.last_eid <- eid;
          t.edits_merged <- t.edits_merged + 1;
          total_ops := !total_ops + List.length ops
        end)
      edits;
    List.iter
      (fun ((s : session), req, _, _, _, sctx) ->
        let payload = fresh_payload t s in
        account_payload t payload;
        reply ?ctx:sctx s ~req (Proto.Ack { session = s.sid; req; payload }))
      edits;
    t.epochs_run <- t.epochs_run + 1;
    Obs.Metrics.incr m_epochs;
    Obs.Metrics.add m_epoch_edits n;
    Obs.Metrics.observe h_epoch_size (float_of_int n);
    fr t E.Epoch_end [ ("edits", E.I n); ("ops", E.I !total_ops) ];
    if Obs.on Obs.Debug then
      Obs.emit
        (E.make ~task:t.obs_task ~task_id:t.obs_tid
           ~args:[ ("edits", E.I n); ("ops", E.I !total_ops) ]
           E.Epoch_end)

(* --- tick ------------------------------------------------------------------- *)

let tick t =
  let rec accept_all () =
    match Netpipe.try_accept t.listener with
    | Some conn ->
      t.conns <- t.conns @ [ conn ];
      accept_all ()
    | None -> ()
  in
  accept_all ();
  List.iter
    (fun conn ->
      let rec drain () =
        match Netpipe.try_recv conn with
        | Some frame ->
          handle_frame t conn frame;
          drain ()
        | None -> ()
      in
      drain ())
    t.conns;
  t.tick_count <- t.tick_count + 1;
  if t.tick_count mod t.epoch_ticks = 0 then flush_epoch t
