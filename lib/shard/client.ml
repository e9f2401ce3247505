module Ws = Sm_mergeable.Workspace
module Registry = Sm_dist.Registry
module Netpipe = Sm_sim.Netpipe
module Obs = Sm_obs
module E = Sm_obs.Event

(* Client trace lanes park above the distributed layer's (1_000_00x) and the
   shard servers' (2_000_00x): one lane per editor. *)
let obs_client_tid i = 3_000_000 + i

(* The one request in flight: the sealed frame a timeout retransmits
   verbatim, its number and trace context, and which reply answers it. *)
type outstanding =
  { frame : string
  ; req : int
  ; tctx : Obs.Trace_ctx.t option
  ; welcome : bool  (* a Hello or Resume, answered by a Welcome; else the Ack for [req] *)
  }

type t =
  { reg : Registry.t
  ; name : string
  ; mutable conn : Netpipe.conn option
  ; mutable session : int option
  ; mutable shadow : Ws.t  (* last server state this replica applied *)
  ; mutable view : Ws.t
      (* cloned trimmed at the shadow's head, so its journal is exactly the
         local ops not yet acked: the pending batch *)
  ; cursors : (int, int) Hashtbl.t  (* wire_id -> server revision applied *)
  ; mutable pending_base : (int * int) list  (* server revisions the pending ops are against *)
  ; mutable pending_eid : int option  (* batch id once the pending ops were first flushed *)
  ; mutable next_req : int
  ; mutable next_eid : int
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
   no context (the frame's context slot is empty).  Span ids are derived
   from the label, so it follows the request number alone: [hello] for
   request 0, [req<n>] otherwise. *)
let mint t ~req =
  if Obs.on Obs.Info then begin
    let label = t.name ^ "/" ^ if req = 0 then "hello" else Printf.sprintf "req%d" req in
    Some
      (match t.parent with
      | Some p -> Obs.Trace_ctx.child p label
      | None -> Obs.Trace_ctx.root label)
  end
  else None

let req_begin t ~op ~req tctx =
  match tctx with
  | None -> ()
  | Some c ->
    Obs.emit
      (E.make ~task:t.name ~task_id:t.obs_tid
         ~args:([ ("op", E.S op); ("req", E.I req) ] @ Obs.Trace_ctx.args c)
         E.Req_begin)

let req_end t ~status =
  match t.outstanding with
  | Some { req; tctx = Some c; _ } when Obs.on Obs.Info ->
    Obs.emit
      (E.make ~task:t.name ~task_id:t.obs_tid
         ~args:([ ("status", E.S status); ("req", E.I req) ] @ Obs.Trace_ctx.args c)
         E.Req_end)
  | _ -> ()

let cursor_of t id = Option.value ~default:0 (Hashtbl.find_opt t.cursors id)
let cursor_list t =
  List.sort compare (Hashtbl.fold (fun id rev acc -> (id, rev) :: acc) t.cursors [])

let take_req t =
  let req = t.next_req in
  t.next_req <- req + 1;
  req

(* Every request leaves through here.  A Hello is request 0; every other
   request carries a number from [take_req]. *)
let request t msg =
  let op, req, welcome =
    match msg with
    | Proto.Hello _ -> ("hello", 0, true)
    | Proto.Resume { req; _ } -> ("resume", req, true)
    | Proto.Edit { req; _ } -> ("edit", req, false)
    | Proto.Poll { req; _ } -> ("poll", req, false)
  in
  let tctx = mint t ~req in
  let frame = Proto.seal_c2s ?ctx:tctx msg in
  req_begin t ~op ~req tctx;
  t.outstanding <- Some { frame; req; tctx; welcome };
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
    ; pending_base = []
    ; pending_eid = None
    ; next_req = 1
    ; next_eid = 0
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
  request t (Proto.Hello { client = name });
  t

let view t = t.view
let failed t = t.failed
let retransmits t = t.retransmits
let resumes t = t.resumes
let connected t = t.conn <> None && t.session <> None && t.failed = None

let ready t =
  t.conn <> None && t.session <> None && t.outstanding = None && t.pending_eid = None
  && t.failed = None

let synced t = ready t && Ws.op_count t.view = 0

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
  t.pending_base <- cursor_list t

let answered t =
  req_end t ~status:"ok";
  t.outstanding <- None;
  t.ticks_waiting <- 0

(* A frame that does not open, or whose payload does not decode or apply
   (bytes a codec rejects, an unknown wire id, a gap, an op out of range),
   fails this client: the replica can no longer vouch for its state, and the
   sessions ticked beside it carry on. *)
let handle_frame t frame =
  try
    match Proto.open_s2c frame with
    | _, Proto.Welcome { session; payload } -> (
      match t.outstanding with
      | Some { welcome = true; _ } ->
        if t.session = None then t.session <- Some session;
        apply_payload t payload;
        (* With local operations (flushed or not) in play, the view keeps
           them and the next ack re-clones it; with nothing pending no ack
           will ever follow, so the epochs this welcome carried must reach
           the view here or the replica reports synced while rendering
           stale state. *)
        if t.pending_eid = None && Ws.op_count t.view = 0 then after_ack t;
        answered t
      | _ -> () (* duplicate of an applied welcome *))
    | _, Proto.Ack { req; payload; _ } -> (
      match t.outstanding with
      | Some { welcome = false; req = r; _ } when req = r ->
        apply_payload t payload;
        answered t;
        after_ack t
      | _ -> () (* replayed ack for an already-acked request *))
    | _, Proto.Nack { reason; _ } ->
      req_end t ~status:"nack";
      t.failed <- Some reason
  with
  | Sm_dist.Wire.Frame.Bad_frame msg | Sm_util.Codec.Decode_error msg | Invalid_argument msg ->
    t.failed <- Some msg
  | Sm_dist.Wire.Frame.Unsupported_version { got; speaks } ->
    t.failed <- Some (Printf.sprintf "frame version %d (this build speaks %d)" got speaks)
  | Ws.Unbound_key doc | Ws.Already_bound doc -> t.failed <- Some ("reply misplaces document " ^ doc)

(* --- driving ---------------------------------------------------------------- *)

(* Ship the pending batch as edit batch [eid]: a fresh flush, or the re-issue
   after a resume, which keeps the batch's eid and base (the server merges
   each eid exactly once) under a fresh request number. *)
let send_edit t ~eid =
  t.pending_eid <- Some eid;
  request t
    (Proto.Edit
       { session = Option.get t.session
       ; req = take_req t
       ; eid
       ; base = t.pending_base
       ; ops = Registry.encode_journal t.reg t.view
       })

let flush t =
  if ready t && Ws.op_count t.view > 0 then begin
    let eid = t.next_eid in
    t.next_eid <- eid + 1;
    send_edit t ~eid
  end

let poll t =
  (* Only meaningful when there is nothing to ship (flush covers that case
     and its ack carries the same catch-up delta). *)
  if synced t then request t (Proto.Poll { session = Option.get t.session; req = take_req t })

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
  (match t.pending_eid with
  | Some eid when t.outstanding = None && t.conn <> None && t.failed = None -> send_edit t ~eid
  | _ -> ());
  match t.outstanding with
  | None -> ()
  | Some { frame; _ } ->
    t.ticks_waiting <- t.ticks_waiting + 1;
    if t.ticks_waiting >= t.retry_after then begin
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
  t.conn <- Some (Netpipe.connect listener);
  match t.session with
  | None -> request t (Proto.Hello { client = t.name })
  | Some session ->
    t.resumes <- t.resumes + 1;
    request t (Proto.Resume { session; req = take_req t; cursors = cursor_list t })
