module C = Sm_util.Codec
module Obs = Sm_obs
module E = Sm_obs.Event

let m_node_tasks = Obs.Metrics.counter "dist.node_tasks"

type t =
  { rank : int
  ; down : string Sm_util.Bqueue.t
  ; domain : unit Domain.t
  }

type reply =
  { granted : bool
  ; snapshot : Wire.entries
  }

let run_task ~registry ~rank ~upstream ~mailbox ~uid ~task ~argument ~snapshot ~tctx () =
  let obs_task = Wire.obs_task_name ~rank ~uid in
  let obs_tid = Wire.obs_task_tid uid in
  (* The Spawn frame's trace context, refined one hop: the task's own span
     is a child of the coordinator's spawn span, so the stitched request
     tree shows coordinator -> rank task as one causal edge. *)
  let tctx = Option.map (fun c -> Obs.Trace_ctx.child c "run") tctx in
  let ctx_args = match tctx with Some c -> Obs.Trace_ctx.args c | None -> [] in
  Obs.Metrics.incr m_node_tasks;
  if Obs.on Obs.Info then
    Obs.emit
      (E.make ~task:obs_task ~task_id:obs_tid
         ~args:([ ("rank", E.I rank); ("task", E.S task) ] @ ctx_args)
         E.Task_start);
  let ws = ref (Registry.build_workspace registry snapshot) in
  let send up = Sm_util.Bqueue.push upstream (Wire.seal_control (C.encode Wire.up_codec up)) in
  let do_sync () =
    if Obs.on Obs.Debug then Obs.emit (E.make ~task:obs_task ~task_id:obs_tid E.Sync_begin);
    send (Wire.Sync_request { uid; journal = Registry.encode_journal registry !ws });
    let outcome =
      match Sm_util.Bqueue.pop mailbox with
      | None -> `Refused (* node shutting down mid-sync; treat as refusal *)
      | Some { granted; snapshot } ->
        ws := Registry.build_workspace registry snapshot;
        if granted then `Granted else `Refused
    in
    if Obs.on Obs.Debug then
      Obs.emit
        (E.make ~task:obs_task ~task_id:obs_tid
           ~args:
             [ ("outcome", E.S (match outcome with `Granted -> "merged" | `Refused -> "refused")) ]
           E.Sync_end);
    outcome
  in
  let ctx = Registry.make_ctx ~ws ~do_sync ~rank ~argument in
  let finish status =
    if Obs.on Obs.Info then
      Obs.emit
        (E.make ~task:obs_task ~task_id:obs_tid
           ~args:([ ("status", E.S status); ("rank", E.I rank) ] @ ctx_args)
           E.Task_end)
  in
  match Registry.find_task registry task ctx with
  | () ->
    send (Wire.Task_completed { uid; journal = Registry.encode_journal registry !ws });
    finish "ok"
  | exception e ->
    send (Wire.Task_failed { uid; reason = Printexc.to_string e });
    finish "failed"

(* The node's main loop: decode commands, start task threads, route replies.
   Only this thread touches the mailbox table, so no lock is needed. *)
let node_loop ~rank ~registry ~upstream ~down () =
  let mailboxes : (int, reply Sm_util.Bqueue.t) Hashtbl.t = Hashtbl.create 16 in
  let rec loop threads =
    match Sm_util.Bqueue.pop down with
    | None -> List.iter Thread.join threads (* channel closed: abandon ship *)
    | Some bytes -> (
      let tctx, payload = Wire.open_control bytes in
      match C.decode Wire.down_codec payload with
      | Wire.Spawn { uid; task; argument; snapshot } ->
        let mailbox = Sm_util.Bqueue.create () in
        Hashtbl.replace mailboxes uid mailbox;
        let thread =
          Thread.create
            (run_task ~registry ~rank ~upstream ~mailbox ~uid ~task ~argument ~snapshot ~tctx)
            ()
        in
        loop (thread :: threads)
      | Wire.Reply { uid; granted; snapshot } ->
        (match Hashtbl.find_opt mailboxes uid with
        | Some mailbox -> Sm_util.Bqueue.push mailbox { granted; snapshot }
        | None -> () (* reply for a task we never saw: drop *));
        loop threads
      | Wire.Stop -> List.iter Thread.join threads)
  in
  loop []

let start ~rank ~registry ~upstream =
  let down = Sm_util.Bqueue.create () in
  let domain = Domain.spawn (node_loop ~rank ~registry ~upstream ~down) in
  { rank; down; domain }

let downstream t = t.down
let rank t = t.rank
let join t = Domain.join t.domain
