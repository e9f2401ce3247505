module Ws = Sm_mergeable.Workspace
module Registry = Sm_dist.Registry
module Netpipe = Sm_sim.Netpipe
module Obs = Sm_obs
module E = Sm_obs.Event

(* Client trace lanes park above the distributed layer's (1_000_00x) and the
   shard servers' (2_000_00x): one lane per editor. *)
let obs_client_tid i = 3_000_000 + i

type outstanding =
  | Connect of
      { frame : string
      ; tctx : Obs.Trace_ctx.t option
      }  (* awaiting a Welcome *)
  | Editing of
      { frame : string
      ; req : int
      ; tctx : Obs.Trace_ctx.t option
      }  (* awaiting the Ack for [req] *)

type t =
  { reg : Registry.t
  ; name : string
  ; mutable conn : Netpipe.conn option
  ; mutable session : int option
  ; mutable shadow : Ws.t  (* last server state this replica applied *)
  ; mutable view : Ws.t  (* shadow + local ops not yet acked *)
  ; cursors : (int, int) Hashtbl.t  (* wire_id -> server revision applied *)
  ; local_base : (int, int) Hashtbl.t  (* wire_id -> shadow version at last view reset *)
  ; mutable pending_base : (int * int) list  (* server revisions the pending ops are against *)
  ; mutable pending_eid : int option  (* batch id once the pending ops were first flushed *)
  ; mutable next_req : int
  ; mutable next_eid : int
  ; mutable last_acked_req : int
  ; mutable outstanding : outstanding option
  ; mutable ticks_waiting : int
  ; retry_after : int
  ; mutable failed : string option
  ; mutable retransmits : int
  ; mutable resumes : int
  ; obs_tid : int
  ; parent : Obs.Trace_ctx.t option
      (* the user action this session serves: request contexts nest under
         it, so several sessions sharing a parent stitch into one tree *)
  }

(* Request contexts are minted only when tracing is on: off, requests carry
   no context (the frame's context slot is empty). *)
let mint t label =
  if Obs.on Obs.Info then
    Some
      (match t.parent with
      | Some p -> Obs.Trace_ctx.child p (t.name ^ "/" ^ label)
      | None -> Obs.Trace_ctx.root (t.name ^ "/" ^ label))
  else None

let req_begin t ~op ~req tctx =
  match tctx with
  | None -> ()
  | Some c ->
    Obs.emit
      (E.make ~task:t.name ~task_id:t.obs_tid
         ~args:([ ("op", E.S op); ("req", E.I req) ] @ Obs.Trace_ctx.args c)
         E.Req_begin)

let req_end t ~status ~req tctx =
  match tctx with
  | None -> ()
  | Some c ->
    if Obs.on Obs.Info then
      Obs.emit
        (E.make ~task:t.name ~task_id:t.obs_tid
           ~args:([ ("status", E.S status); ("req", E.I req) ] @ Obs.Trace_ctx.args c)
           E.Req_end)

let outstanding_finished t ~status =
  match t.outstanding with
  | Some (Connect { tctx; _ }) -> req_end t ~status ~req:0 tctx
  | Some (Editing { req; tctx; _ }) -> req_end t ~status ~req tctx
  | None -> ()

let cursor_of t id = Option.value ~default:0 (Hashtbl.find_opt t.cursors id)
let cursor_list t = Hashtbl.fold (fun id rev acc -> (id, rev) :: acc) t.cursors []

let reset_bases t =
  Hashtbl.reset t.local_base;
  List.iter (fun (id, v) -> Hashtbl.replace t.local_base id v) (Registry.revisions t.reg t.shadow);
  t.pending_base <- List.sort compare (cursor_list t)

let send_new t frame =
  (match t.conn with Some c -> Netpipe.send c frame | None -> ());
  t.ticks_waiting <- 0

let connect ~reg ~name ?(obs_tid = obs_client_tid 0) ?parent ~init listener =
  let shadow = Ws.create () in
  init shadow;
  let t =
    { reg
    ; name
    ; conn = Some (Netpipe.connect listener)
    ; session = None
    ; shadow
    ; view = Ws.clone_trimmed shadow
    ; cursors = Hashtbl.create 8
    ; local_base = Hashtbl.create 8
    ; pending_base = []
    ; pending_eid = None
    ; next_req = 1
    ; next_eid = 0
    ; last_acked_req = -1
    ; outstanding = None
    ; ticks_waiting = 0
    ; retry_after = 8
    ; failed = None
    ; retransmits = 0
    ; resumes = 0
    ; obs_tid
    ; parent
    }
  in
  reset_bases t;
  let tctx = mint t "hello" in
  let frame = Proto.seal_c2s ?ctx:tctx (Proto.Hello { client = name }) in
  req_begin t ~op:"hello" ~req:0 tctx;
  t.outstanding <- Some (Connect { frame; tctx });
  send_new t frame;
  t

let view t = t.view
let shadow t = t.shadow
let session t = t.session
let failed t = t.failed
let retransmits t = t.retransmits
let resumes t = t.resumes
let connected t = t.conn <> None && t.session <> None && t.failed = None

let pending_ops t =
  List.fold_left
    (fun acc (id, v) -> acc + (v - Option.value ~default:0 (Hashtbl.find_opt t.local_base id)))
    0
    (Registry.revisions t.reg t.view)

let ready t =
  t.conn <> None && t.session <> None && t.outstanding = None && t.pending_eid = None
  && t.failed = None

let synced t = ready t && pending_ops t = 0

let edit t f =
  if t.pending_eid <> None then
    invalid_arg "Client.edit: a flushed batch is still in flight — wait for its ack";
  f t.view

(* --- payload application ---------------------------------------------------- *)

let apply_payload t = function
  | Proto.Delta entries ->
    Registry.apply_delta t.reg ~into:t.shadow ~cursor:(cursor_of t) entries;
    List.iter
      (fun (id, _, to_rev, _) ->
        if to_rev > cursor_of t id then Hashtbl.replace t.cursors id to_rev)
      entries
  | Proto.Snap entries ->
    (* Replies are applied at most once and in request order (stop-and-wait),
       so a snapshot is always current: rebuild the replica around it. *)
    t.shadow <- Registry.build_workspace t.reg (List.map (fun (id, _, st) -> (id, st)) entries);
    List.iter (fun (id, rev, _) -> Hashtbl.replace t.cursors id rev) entries

let after_ack t =
  t.view <- Ws.clone_trimmed t.shadow;
  t.pending_eid <- None;
  reset_bases t

let handle_frame t frame =
  match Proto.open_s2c frame with
  | _, Proto.Welcome { session; payload } -> (
    match t.outstanding with
    | Some (Connect _) ->
      if t.session = None then t.session <- Some session;
      apply_payload t payload;
      (* With local operations (flushed or not) in play, the view keeps them
         and the next ack re-clones it; with nothing pending no ack will
         ever follow, so the epochs this welcome carried must reach the view
         here or the replica reports synced while rendering stale state. *)
      if t.pending_eid = None && pending_ops t = 0 then after_ack t;
      outstanding_finished t ~status:"ok";
      t.outstanding <- None;
      t.ticks_waiting <- 0
    | _ -> () (* duplicate of an applied welcome *))
  | _, Proto.Ack { req; payload; _ } -> (
    match t.outstanding with
    | Some (Editing { req = r; _ }) when req = r ->
      apply_payload t payload;
      t.last_acked_req <- req;
      outstanding_finished t ~status:"ok";
      t.outstanding <- None;
      t.ticks_waiting <- 0;
      after_ack t
    | _ -> () (* replayed ack for an already-acked request *))
  | _, Proto.Nack { reason; _ } ->
    outstanding_finished t ~status:"nack";
    t.failed <- Some reason
  | exception (Sm_dist.Wire.Frame.Bad_frame msg | Sm_util.Codec.Decode_error msg) ->
    t.failed <- Some msg
  | exception Sm_dist.Wire.Frame.Unsupported_version { got; speaks } ->
    t.failed <- Some (Printf.sprintf "frame version %d (this build speaks %d)" got speaks)

(* --- driving ---------------------------------------------------------------- *)

let flush t =
  if ready t then begin
    let entries =
      Registry.encode_delta t.reg t.view ~since:(fun id ->
          Option.value ~default:0 (Hashtbl.find_opt t.local_base id))
    in
    match entries with
    | [] -> ()
    | entries ->
      let ops = List.map (fun (id, _, _, bytes) -> (id, bytes)) entries in
      let eid = t.next_eid in
      t.next_eid <- t.next_eid + 1;
      t.pending_eid <- Some eid;
      let req = t.next_req in
      t.next_req <- t.next_req + 1;
      let session = Option.get t.session in
      let tctx = mint t (Printf.sprintf "req%d" req) in
      let frame =
        Proto.seal_c2s ?ctx:tctx (Proto.Edit { session; req; eid; base = t.pending_base; ops })
      in
      req_begin t ~op:"edit" ~req tctx;
      t.outstanding <- Some (Editing { frame; req; tctx });
      send_new t frame
  end

let poll t =
  (* Only meaningful when there is nothing to ship (flush covers that case
     and its ack carries the same catch-up delta). *)
  if ready t && pending_ops t = 0 then begin
    let req = t.next_req in
    t.next_req <- t.next_req + 1;
    let session = Option.get t.session in
    let tctx = mint t (Printf.sprintf "req%d" req) in
    let frame = Proto.seal_c2s ?ctx:tctx (Proto.Poll { session; req }) in
    req_begin t ~op:"poll" ~req tctx;
    t.outstanding <- Some (Editing { frame; req; tctx });
    send_new t frame
  end

(* Re-issue a batch that was flushed before a disconnect: same eid and base
   (the server merges each eid exactly once), fresh request number. *)
let reissue_pending t =
  match (t.pending_eid, t.session) with
  | Some eid, Some session ->
    let entries =
      Registry.encode_delta t.reg t.view ~since:(fun id ->
          Option.value ~default:0 (Hashtbl.find_opt t.local_base id))
    in
    let ops = List.map (fun (id, _, _, bytes) -> (id, bytes)) entries in
    let req = t.next_req in
    t.next_req <- t.next_req + 1;
    let tctx = mint t (Printf.sprintf "req%d" req) in
    let frame =
      Proto.seal_c2s ?ctx:tctx (Proto.Edit { session; req; eid; base = t.pending_base; ops })
    in
    req_begin t ~op:"edit" ~req tctx;
    t.outstanding <- Some (Editing { frame; req; tctx });
    send_new t frame
  | _ -> ()

let tick t =
  (match t.conn with
  | None -> ()
  | Some c ->
    let rec drain () =
      match Netpipe.try_recv c with
      | Some frame ->
        handle_frame t frame;
        drain ()
      | None -> ()
    in
    drain ());
  (* After a resume's welcome has landed, put the interrupted batch back in
     flight. *)
  if t.outstanding = None && t.pending_eid <> None && t.conn <> None && t.failed = None then
    reissue_pending t;
  match t.outstanding with
  | None -> ()
  | Some o ->
    t.ticks_waiting <- t.ticks_waiting + 1;
    if t.ticks_waiting >= t.retry_after then begin
      let frame = match o with Connect { frame; _ } | Editing { frame; _ } -> frame in
      (match t.conn with Some c -> Netpipe.send c frame | None -> ());
      t.retransmits <- t.retransmits + 1;
      t.ticks_waiting <- 0
    end

let disconnect t =
  (* A crash, not a goodbye: the connection is abandoned with whatever was
     in flight, and the session's state survives on the server. *)
  t.conn <- None;
  t.outstanding <- None;
  t.ticks_waiting <- 0

let resume t listener =
  match t.session with
  | None ->
    t.conn <- Some (Netpipe.connect listener);
    let tctx = mint t "hello" in
    let frame = Proto.seal_c2s ?ctx:tctx (Proto.Hello { client = t.name }) in
    req_begin t ~op:"hello" ~req:0 tctx;
    t.outstanding <- Some (Connect { frame; tctx });
    send_new t frame
  | Some session ->
    t.conn <- Some (Netpipe.connect listener);
    t.resumes <- t.resumes + 1;
    let req = t.next_req in
    t.next_req <- t.next_req + 1;
    let tctx = mint t (Printf.sprintf "req%d" req) in
    let frame =
      Proto.seal_c2s ?ctx:tctx
        (Proto.Resume { session; req; cursors = List.sort compare (cursor_list t) })
    in
    req_begin t ~op:"resume" ~req tctx;
    t.outstanding <- Some (Connect { frame; tctx });
    send_new t frame

let bye t =
  (match (t.conn, t.session) with
  | Some c, Some session -> Netpipe.send c (Proto.seal_c2s (Proto.Bye { session }))
  | _ -> ());
  t.conn <- None
