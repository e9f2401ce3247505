module C = Sm_util.Codec
module Ws = Sm_mergeable.Workspace
module Obs = Sm_obs
module E = Sm_obs.Event

let m_remote_spawns = Obs.Metrics.counter "dist.remote_spawns"
let m_remote_syncs = Obs.Metrics.counter "dist.remote_syncs"
let m_remote_refusals = Obs.Metrics.counter "dist.remote_refusals"
let m_buffered = Obs.Metrics.counter "dist.buffered_events"
let h_buffer_depth = Obs.Metrics.histogram "dist.buffer_depth"

let coord_task = "coordinator"
let coord_tid = Wire.obs_coordinator_tid

module Chaos = struct
  type t =
    { hold_prob : float
    ; max_hold : int
    ; rng : Sm_util.Det_rng.t
    ; mu : Mutex.t
    }

  let make ?(hold_prob = 0.25) ?(max_hold = 4) ~seed () =
    if hold_prob < 0. || hold_prob > 1. then
      invalid_arg "Coordinator.Chaos.make: hold_prob must be in [0, 1]";
    if max_hold < 1 then invalid_arg "Coordinator.Chaos.make: max_hold must be at least 1";
    { hold_prob; max_hold; rng = Sm_util.Det_rng.create ~seed; mu = Mutex.create () }

  let draw t =
    Mutex.lock t.mu;
    let r = Sm_util.Det_rng.float t.rng in
    let hold = 1 + Sm_util.Det_rng.int t.rng ~bound:t.max_hold in
    Mutex.unlock t.mu;
    (r, hold)
end

type cluster =
  { registry : Registry.t
  ; upstream : string Sm_util.Bqueue.t  (** what the coordinator reads *)
  ; node_inbox : string Sm_util.Bqueue.t  (** what nodes write; [== upstream] without chaos *)
  ; relay : Thread.t option
  ; nodes : Node.t array
  ; next_uid : int Atomic.t
  ; next_node : int Atomic.t
  }

exception Remote_failure of string

(* The chaos relay: pump [inner] into [out], randomly parking a task's
   messages for a few ticks.  Once a uid is held, its subsequent messages
   queue behind the held ones — per-task order is preserved, only cross-task
   interleaving changes, which is exactly the non-determinism the
   coordinator's per-task buffering must absorb. *)
let relay_loop (chaos : Chaos.t) ~inner ~out =
  let held : (int, string Queue.t * int ref) Hashtbl.t = Hashtbl.create 8 in
  let release uid =
    match Hashtbl.find_opt held uid with
    | None -> ()
    | Some (q, _) ->
      Queue.iter (Sm_util.Bqueue.push out) q;
      Hashtbl.remove held uid
  in
  let tick () =
    let ready =
      Hashtbl.fold
        (fun uid (_, left) acc ->
          decr left;
          if !left <= 0 then uid :: acc else acc)
        held []
    in
    List.iter release (List.sort compare ready)
  in
  let flush_all () =
    let uids = Hashtbl.fold (fun uid _ acc -> uid :: acc) held [] in
    List.iter release (List.sort compare uids)
  in
  let forward bytes =
    let uid =
      try Wire.uid_of_up (C.decode Wire.up_codec (snd (Wire.open_control bytes))) with _ -> -1
    in
    match Hashtbl.find_opt held uid with
    | Some (q, _) -> Queue.push bytes q
    | None ->
      let r, hold = Chaos.draw chaos in
      if uid >= 0 && r < chaos.hold_prob then begin
        let q = Queue.create () in
        Queue.push bytes q;
        Hashtbl.add held uid (q, ref hold)
      end
      else Sm_util.Bqueue.push out bytes
  in
  let rec loop () =
    match Sm_util.Bqueue.try_pop inner with
    | Some bytes ->
      forward bytes;
      tick ();
      loop ()
    | None ->
      if Hashtbl.length held > 0 then begin
        (* nothing inbound but messages are parked: tick them out on a
           timer so a quiet channel cannot deadlock the coordinator *)
        Thread.delay 0.0005;
        tick ();
        loop ()
      end
      else begin
        match Sm_util.Bqueue.pop inner with
        | Some bytes ->
          forward bytes;
          tick ();
          loop ()
        | None ->
          (* inner closed and drained: shutdown *)
          flush_all ();
          Sm_util.Bqueue.close out
      end
  in
  loop ()

let cluster ?(nodes = 2) ?chaos registry =
  if nodes < 1 then invalid_arg "Coordinator.cluster: need at least one node";
  let upstream = Sm_util.Bqueue.create () in
  let node_inbox, relay =
    match chaos with
    | None -> (upstream, None)
    | Some ch ->
      let inner = Sm_util.Bqueue.create () in
      (inner, Some (Thread.create (fun () -> relay_loop ch ~inner ~out:upstream) ()))
  in
  { registry
  ; upstream
  ; node_inbox
  ; relay
  ; nodes = Array.init nodes (fun rank -> Node.start ~rank ~registry ~upstream:node_inbox)
  ; next_uid = Atomic.make 0
  ; next_node = Atomic.make 0
  }

let node_count cluster = Array.length cluster.nodes

let send_down ?ctx cluster rank msg =
  Sm_util.Bqueue.push
    (Node.downstream cluster.nodes.(rank))
    (Wire.seal_control ?ctx (C.encode Wire.down_codec msg))

let shutdown cluster =
  Array.iter (fun node -> send_down cluster (Node.rank node) Wire.Stop) cluster.nodes;
  Array.iter Node.join cluster.nodes;
  match cluster.relay with
  | None -> Sm_util.Bqueue.close cluster.upstream
  | Some t ->
    (* the relay flushes held messages and closes [upstream] itself *)
    Sm_util.Bqueue.close cluster.node_inbox;
    Thread.join t

type child_state =
  | Live
  | Retired_ok
  | Retired_failed of string

type rtask =
  { uid : int
  ; node : int
  ; mutable base : Ws.Versions.t
  ; mutable cstate : child_state
  ; mutable aborted : bool
  }

type ctx =
  { cluster : cluster
  ; ws : Ws.t
  ; mutable children : rtask list (* creation order, retired included *)
  ; buffered : Wire.up Queue.t (* events read from upstream in arrival order *)
  }

let workspace ctx = ctx.ws
let live ctx = List.filter (fun c -> c.cstate = Live) ctx.children
let live_tasks ctx = List.length (live ctx)
let rank_of c = c.node
let failure c = match c.cstate with Retired_failed r -> Some r | Live | Retired_ok -> None

let spawn ctx ?node task ~argument =
  let cluster = ctx.cluster in
  let node =
    match node with
    | Some n ->
      if n < 0 || n >= Array.length cluster.nodes then
        invalid_arg (Printf.sprintf "Coordinator.spawn: no node %d" n);
      n
    | None -> Atomic.fetch_and_add cluster.next_node 1 mod Array.length cluster.nodes
  in
  let uid = Atomic.fetch_and_add cluster.next_uid 1 in
  let child = { uid; node; base = Ws.snapshot ctx.ws; cstate = Live; aborted = false } in
  ctx.children <- ctx.children @ [ child ];
  Obs.Metrics.incr m_remote_spawns;
  (* The spawn's trace context crosses the wire with the Spawn frame, so
     the node's Task_start lands on the same request tree as this Spawn
     event — [sm-trace requests] stitches them by these ids.  Minted only
     when tracing. *)
  let tctx =
    if Obs.on Obs.Info then Some (Obs.Trace_ctx.root (Wire.obs_task_name ~rank:node ~uid))
    else None
  in
  if Obs.on Obs.Info then
    Obs.emit
      (E.make ~task:coord_task ~task_id:coord_tid
         ~args:
           ([ ("child", E.S (Wire.obs_task_name ~rank:node ~uid))
            ; ("child_id", E.I (Wire.obs_task_tid uid))
            ; ("rank", E.I node)
            ; ("task", E.S task)
            ]
           @ match tctx with Some c -> Obs.Trace_ctx.args c | None -> [])
         E.Spawn);
  send_down ?ctx:tctx cluster node
    (Wire.Spawn { uid; task; argument; snapshot = Registry.encode_snapshot cluster.registry ctx.ws });
  child

let decode_up bytes =
  match C.decode Wire.up_codec (snd (Wire.open_control bytes)) with
  | up -> up
  | exception C.Decode_error msg -> raise (Remote_failure ("corrupt upstream message: " ^ msg))
  | exception Wire.Frame.Bad_frame msg -> raise (Remote_failure ("rejected frame: " ^ msg))
  | exception Wire.Frame.Unsupported_version { got; speaks } ->
    raise
      (Remote_failure
         (Printf.sprintf "rejected frame: peer speaks frame version %d, this build %d" got speaks))

(* Pull upstream until an event for [uid] is available; buffer strangers in
   arrival order. *)
let next_event_for ctx uid =
  let rec from_buffer pending =
    match Queue.take_opt ctx.buffered with
    | Some ev as item when Wire.uid_of_up ev = uid ->
      Queue.transfer ctx.buffered pending;
      Queue.transfer pending ctx.buffered;
      item
    | Some item ->
      Queue.add item pending;
      from_buffer pending
    | None ->
      Queue.transfer pending ctx.buffered;
      None
  in
  match from_buffer (Queue.create ()) with
  | Some ev -> ev
  | None ->
    let rec pull () =
      match Sm_util.Bqueue.pop ctx.cluster.upstream with
      | None -> raise (Remote_failure "cluster shut down while merging")
      | Some bytes ->
        let ev = decode_up bytes in
        if Wire.uid_of_up ev = uid then ev
        else begin
          (* Out-of-order upstream event: journal the buffering so merge
             skew between ranks is visible (depth spikes = one slow rank). *)
          Queue.add ev ctx.buffered;
          Obs.Metrics.incr m_buffered;
          Obs.Metrics.observe h_buffer_depth (float_of_int (Queue.length ctx.buffered));
          Obs.note ~task:coord_task ~task_id:coord_tid "coord.buffer"
            ~args:
              [ ("uid", E.I (Wire.uid_of_up ev)); ("depth", E.I (Queue.length ctx.buffered)) ];
          pull ()
        end
    in
    pull ()

let next_event_any ctx =
  match Queue.take_opt ctx.buffered with
  | Some ev -> ev
  | None -> (
    match Sm_util.Bqueue.pop ctx.cluster.upstream with
    | None -> raise (Remote_failure "cluster shut down while merging")
    | Some bytes -> decode_up bytes)

let find_child ctx uid =
  match List.find_opt (fun c -> c.uid = uid) ctx.children with
  | Some c -> c
  | None -> raise (Remote_failure (Printf.sprintf "event for unknown remote task %d" uid))

let merge_decode_error name msg =
  Remote_failure (Printf.sprintf "merging remote task %d: %s" name msg)

let default_validate _ = true

(* Validation for remote merges inspects the would-be post-merge state: the
   journal is merged into a full clone (history included, so other
   children's bases stay valid), the predicate judges the clone, and
   acceptance adopts it.  The coordinator never materializes the child's
   workspace, so this is the remote analogue of validating the child's
   data. *)
let try_merge ctx child journal ~validate =
  let cluster = ctx.cluster in
  match
    if validate == default_validate then begin
      Registry.merge_journal cluster.registry ~into:ctx.ws ~base:child.base journal;
      true
    end
    else begin
      let trial = Ws.clone_full ctx.ws in
      Registry.merge_journal cluster.registry ~into:trial ~base:child.base journal;
      if validate trial then begin
        Ws.adopt ctx.ws ~from:trial;
        true
      end
      else false
    end
  with
  | granted -> granted
  | exception C.Decode_error msg -> raise (merge_decode_error child.uid msg)

let obs_merge_child child ~journal ~outcome =
  if Obs.on Obs.Debug then
    Obs.emit
      (E.make ~task:coord_task ~task_id:coord_tid
         ~args:
           [ ("child", E.S (Wire.obs_task_name ~rank:child.node ~uid:child.uid))
           ; ("rank", E.I child.node)
           ; ("journal_keys", E.I (List.length journal))
           ; ("outcome", E.S outcome)
           ]
         E.Merge_child)

let process ?(validate = default_validate) ctx child ev =
  let cluster = ctx.cluster in
  match ev with
  | Wire.Sync_request { journal; _ } ->
    let granted = if child.aborted then false else try_merge ctx child journal ~validate in
    Obs.Metrics.incr m_remote_syncs;
    if not granted then Obs.Metrics.incr m_remote_refusals;
    obs_merge_child child ~journal ~outcome:(if granted then "merged" else "refused");
    child.base <- Ws.snapshot ctx.ws;
    send_down cluster child.node
      (Wire.Reply { uid = child.uid; granted; snapshot = Registry.encode_snapshot cluster.registry ctx.ws })
  | Wire.Task_completed { journal; _ } ->
    let merged = if child.aborted then false else try_merge ctx child journal ~validate in
    if not merged then Obs.Metrics.incr m_remote_refusals;
    obs_merge_child child ~journal ~outcome:(if merged then "merged" else "refused");
    child.cstate <- Retired_ok
  | Wire.Task_failed { reason; _ } ->
    if Obs.on Obs.Error then
      Obs.note ~level:Obs.Error ~task:coord_task ~task_id:coord_tid "remote_task_failed"
        ~args:[ ("rank", E.I child.node); ("uid", E.I child.uid); ("reason", E.S reason) ];
    child.cstate <- Retired_failed reason

let merge_all ?validate ctx =
  List.iter (fun child -> process ?validate ctx child (next_event_for ctx child.uid)) (live ctx)

let merge_any ?validate ctx =
  if live ctx = [] then None
  else begin
    let ev = next_event_any ctx in
    let child = find_child ctx (Wire.uid_of_up ev) in
    process ?validate ctx child ev;
    Some child
  end

let run cluster body =
  let ctx = { cluster; ws = Ws.create (); children = []; buffered = Queue.create () } in
  let drain () =
    while live_tasks ctx > 0 do
      merge_all ctx
    done
  in
  match body ctx with
  | result ->
    drain ();
    result
  | exception e ->
    (* abandon the run: refuse every outstanding task's merges, then drain *)
    List.iter (fun c -> c.aborted <- true) ctx.children;
    (try drain () with _ -> ());
    raise e
