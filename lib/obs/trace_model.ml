type outcome =
  | Merged
  | Aborted
  | Validation_failed

let outcome_to_string = function
  | Merged -> "merged"
  | Aborted -> "aborted"
  | Validation_failed -> "validation_failed"

let outcome_of_string = function
  | "merged" -> Some Merged
  | "aborted" -> Some Aborted
  | "validation_failed" -> Some Validation_failed
  | _ -> None

type merge_record =
  { mc_child : int option
  ; mc_child_name : string
  ; mc_ops : int
  ; mc_transforms : int
  ; mc_compact_in : int
  ; mc_compact_out : int
  ; mc_outcome : outcome
  ; mc_ts : int
  }

type merge_span =
  { m_kind : string
  ; m_begin : int
  ; mutable m_end : int
  ; mutable m_children : merge_record list
  ; mutable m_closed : bool
  }

type sync_span =
  { s_begin : int
  ; mutable s_end : int
  ; mutable s_outcome : string option
  ; mutable s_closed : bool
  }

type task =
  { id : int
  ; name : string
  ; mutable parent : int option
  ; mutable children : int list
  ; mutable started : bool
  ; mutable start_ts : int
  ; mutable ended : bool
  ; mutable end_ts : int
  ; mutable status : string option
  ; mutable merges : merge_span list
  ; mutable syncs : sync_span list
  ; mutable clones_spawned : int
  ; mutable spawn_cells : int
  ; mutable aborts_sent : int
  ; mutable validation_fails : int
  ; mutable notes : int
  ; mutable phases : int
  ; mutable epochs : int
  ; mutable epoch_edits : int
  ; mutable delta_bytes : int
  ; mutable snapshot_bytes : int
  ; mutable requests : int
  ; mutable served : int
  ; mutable first_ts : int
  ; mutable last_ts : int
  }

(* Per-document conflict profile, fed by [Doc_merge] events: which documents
   draw the transform storms and how well their journals compact. *)
type doc_stat =
  { doc : string
  ; mutable d_merges : int
  ; mutable d_ops : int
  ; mutable d_transforms : int
  ; mutable d_compact_in : int
  ; mutable d_compact_out : int
  }

type t =
  { tasks : (int, task) Hashtbl.t
  ; docs : (string, doc_stat) Hashtbl.t
  ; mutable order : int list  (* reverse first-appearance while building *)
  ; mutable events : int
  ; mutable t0 : int
  ; mutable t1 : int
  ; mutable finished : bool
  }

(* --- construction ----------------------------------------------------------- *)

(* Per-task transient state while folding the stream: the stack of open
   merge spans (an end closes the innermost begin, mirroring the Chrome
   exporter), the open sync span, and the latest child id for each child
   name (Merge_child carries only the name; ids resolve against the
   emitting parent's own children, so name reuse across sequential runs in
   one trace file never cross-links). *)
type builder =
  { model : t
  ; open_merges : (int, merge_span list) Hashtbl.t
  ; open_syncs : (int, sync_span) Hashtbl.t
  ; child_by_name : (int, (string, int) Hashtbl.t) Hashtbl.t
  }

let create_builder () =
  { model =
      { tasks = Hashtbl.create 64
      ; docs = Hashtbl.create 16
      ; order = []
      ; events = 0
      ; t0 = max_int
      ; t1 = min_int
      ; finished = false
      }
  ; open_merges = Hashtbl.create 16
  ; open_syncs = Hashtbl.create 16
  ; child_by_name = Hashtbl.create 16
  }

let find_or_create b ~name ~id ts =
  match Hashtbl.find_opt b.model.tasks id with
  | Some t ->
    t.last_ts <- max t.last_ts ts;
    t
  | None ->
    let t =
      { id
      ; name
      ; parent = None
      ; children = []
      ; started = false
      ; start_ts = ts
      ; ended = false
      ; end_ts = ts
      ; status = None
      ; merges = []
      ; syncs = []
      ; clones_spawned = 0
      ; spawn_cells = 0
      ; aborts_sent = 0
      ; validation_fails = 0
      ; notes = 0
      ; phases = 0
      ; epochs = 0
      ; epoch_edits = 0
      ; delta_bytes = 0
      ; snapshot_bytes = 0
      ; requests = 0
      ; served = 0
      ; first_ts = ts
      ; last_ts = ts
      }
    in
    Hashtbl.replace b.model.tasks id t;
    b.model.order <- id :: b.model.order;
    t

let int_arg name (e : Event.t) =
  match List.assoc_opt name e.Event.args with Some (Event.I i) -> Some i | _ -> None

let str_arg name (e : Event.t) =
  match List.assoc_opt name e.Event.args with Some (Event.S s) -> Some s | _ -> None

let resolve_child b (parent : task) child_name =
  Option.bind (Hashtbl.find_opt b.child_by_name parent.id) (fun tbl ->
      Hashtbl.find_opt tbl child_name)

let add_event b (e : Event.t) =
  if b.model.finished then invalid_arg "Trace_model: add_event after finish";
  let m = b.model in
  m.events <- m.events + 1;
  if e.ts_ns < m.t0 then m.t0 <- e.ts_ns;
  if e.ts_ns > m.t1 then m.t1 <- e.ts_ns;
  let t = find_or_create b ~name:e.task ~id:e.task_id e.ts_ns in
  (match e.kind with
  | Event.Task_start ->
    t.started <- true;
    t.start_ts <- e.ts_ns
  | Event.Task_end ->
    t.ended <- true;
    t.end_ts <- e.ts_ns;
    t.status <- str_arg "status" e
  | Event.Spawn | Event.Clone -> (
    if e.kind = Event.Clone then t.clones_spawned <- t.clones_spawned + 1;
    (* spawn-cost args ride only on Debug-level traces; absent means 0 *)
    t.spawn_cells <- t.spawn_cells + Option.value ~default:0 (int_arg "ws_cells" e);
    match (str_arg "child" e, int_arg "child_id" e) with
    | Some cname, Some cid ->
      let child = find_or_create b ~name:cname ~id:cid e.ts_ns in
      child.parent <- Some t.id;
      t.children <- cid :: t.children;
      let tbl =
        match Hashtbl.find_opt b.child_by_name t.id with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace b.child_by_name t.id tbl;
          tbl
      in
      Hashtbl.replace tbl cname cid
    | _ -> ())
  | Event.Merge_begin ->
    let span =
      { m_kind = Option.value ~default:"?" (str_arg "kind" e)
      ; m_begin = e.ts_ns
      ; m_end = e.ts_ns
      ; m_children = []
      ; m_closed = false
      }
    in
    t.merges <- span :: t.merges;
    Hashtbl.replace b.open_merges t.id
      (span :: Option.value ~default:[] (Hashtbl.find_opt b.open_merges t.id))
  | Event.Merge_child ->
    let cname = Option.value ~default:"?" (str_arg "child" e) in
    let record =
      { mc_child = resolve_child b t cname
      ; mc_child_name = cname
      ; mc_ops = Option.value ~default:0 (int_arg "ops" e)
      ; mc_transforms = Option.value ~default:0 (int_arg "transforms" e)
      ; mc_compact_in = Option.value ~default:0 (int_arg "compact_in" e)
      ; mc_compact_out = Option.value ~default:0 (int_arg "compact_out" e)
      ; mc_outcome =
          Option.value ~default:Merged (Option.bind (str_arg "outcome" e) outcome_of_string)
      ; mc_ts = e.ts_ns
      }
    in
    (match Hashtbl.find_opt b.open_merges t.id with
    | Some (span :: _) -> span.m_children <- record :: span.m_children
    | Some [] | None ->
      (* Merge_child outside a span (verbosity raised mid-merge): keep it on
         a synthetic zero-length span so attribution still sees it. *)
      let span =
        { m_kind = "?"
        ; m_begin = e.ts_ns
        ; m_end = e.ts_ns
        ; m_children = [ record ]
        ; m_closed = true
        }
      in
      t.merges <- span :: t.merges)
  | Event.Merge_end -> (
    match Hashtbl.find_opt b.open_merges t.id with
    | Some (span :: rest) ->
      span.m_end <- e.ts_ns;
      span.m_closed <- true;
      Hashtbl.replace b.open_merges t.id rest
    | Some [] | None -> ())
  | Event.Sync_begin ->
    let span = { s_begin = e.ts_ns; s_end = e.ts_ns; s_outcome = None; s_closed = false } in
    t.syncs <- span :: t.syncs;
    Hashtbl.replace b.open_syncs t.id span
  | Event.Sync_end ->
    (match Hashtbl.find_opt b.open_syncs t.id with
    | Some span ->
      span.s_end <- e.ts_ns;
      span.s_outcome <- str_arg "outcome" e;
      span.s_closed <- true;
      Hashtbl.remove b.open_syncs t.id
    | None -> ())
  | Event.Abort -> t.aborts_sent <- t.aborts_sent + 1
  | Event.Validation_fail -> t.validation_fails <- t.validation_fails + 1
  | Event.Note -> t.notes <- t.notes + 1
  | Event.Phase_begin -> t.phases <- t.phases + 1
  | Event.Phase_end -> ()
  | Event.Epoch_begin -> ()
  | Event.Epoch_end ->
    t.epochs <- t.epochs + 1;
    t.epoch_edits <- t.epoch_edits + Option.value ~default:0 (int_arg "edits" e)
  | Event.Delta_sync ->
    let bytes = Option.value ~default:0 (int_arg "bytes" e) in
    (match str_arg "mode" e with
    | Some "delta" ->
      t.delta_bytes <- t.delta_bytes + bytes;
      t.snapshot_bytes <- t.snapshot_bytes + Option.value ~default:0 (int_arg "snapshot_bytes" e)
    | _ -> t.snapshot_bytes <- t.snapshot_bytes + bytes)
  | Event.Req_begin -> t.requests <- t.requests + 1
  | Event.Req_end -> ()
  | Event.Serve -> t.served <- t.served + 1
  | Event.Epoch_merge -> ()
  | Event.Doc_merge ->
    let doc = Option.value ~default:"?" (str_arg "doc" e) in
    let d =
      match Hashtbl.find_opt m.docs doc with
      | Some d -> d
      | None ->
        let d = { doc; d_merges = 0; d_ops = 0; d_transforms = 0; d_compact_in = 0; d_compact_out = 0 } in
        Hashtbl.replace m.docs doc d;
        d
    in
    d.d_merges <- d.d_merges + 1;
    d.d_ops <- d.d_ops + Option.value ~default:0 (int_arg "ops" e);
    d.d_transforms <- d.d_transforms + Option.value ~default:0 (int_arg "transforms" e);
    d.d_compact_in <- d.d_compact_in + Option.value ~default:0 (int_arg "compact_in" e);
    d.d_compact_out <- d.d_compact_out + Option.value ~default:0 (int_arg "compact_out" e));
  t.last_ts <- max t.last_ts e.ts_ns

let finish b =
  let m = b.model in
  if not m.finished then begin
    let t1 = if m.events = 0 then 0 else m.t1 in
    if m.events = 0 then begin
      m.t0 <- 0;
      m.t1 <- 0
    end;
    Hashtbl.iter
      (fun _ (t : task) ->
        t.children <- List.rev t.children;
        t.merges <- List.rev t.merges;
        t.syncs <- List.rev t.syncs;
        (* Dangling spans and never-ended tasks run to the end of the trace. *)
        List.iter (fun s -> if not s.m_closed then s.m_end <- t1) t.merges;
        List.iter (fun s -> if not s.s_closed then s.s_end <- t1) t.syncs;
        if not t.ended then t.end_ts <- t.last_ts)
      m.tasks;
    m.order <- List.rev m.order;
    m.finished <- true
  end;
  m

let of_events events =
  let b = create_builder () in
  let sorted = List.sort (fun (a : Event.t) c -> compare a.seq c.seq) events in
  List.iter (add_event b) sorted;
  finish b

let of_file path =
  (* Streaming: the file is in emission order already (the JSONL sink
     serializes writers), so aggregates build in one constant-memory pass. *)
  let b = create_builder () in
  Trace_jsonl.fold path ~init:() ~f:(fun () e -> add_event b e);
  finish b

(* --- accessors -------------------------------------------------------------- *)

let task m id = Hashtbl.find_opt m.tasks id

let tasks m = List.filter_map (fun id -> Hashtbl.find_opt m.tasks id) m.order

let roots m = List.filter (fun t -> t.parent = None && t.started) (tasks m)

let duration_ns m = m.t1 - m.t0
let event_count m = m.events
let task_count m = Hashtbl.length m.tasks

let span_ns (t : task) = max 0 (t.end_ts - t.start_ts)

let merge_wait_ns (t : task) =
  List.fold_left (fun acc s -> acc + max 0 (s.m_end - s.m_begin)) 0 t.merges

let sync_wait_ns (t : task) =
  List.fold_left (fun acc s -> acc + max 0 (s.s_end - s.s_begin)) 0 t.syncs

let blocked_ns t = merge_wait_ns t + sync_wait_ns t
let self_ns t = max 0 (span_ns t - blocked_ns t)

let merge_records (t : task) = List.concat_map (fun s -> List.rev s.m_children) t.merges

(* Hottest first: transform calls are the conflict cost the profiler is
   hunting; ties break on ops then name so the table is deterministic. *)
let doc_stats m =
  Hashtbl.fold (fun _ d acc -> d :: acc) m.docs []
  |> List.sort (fun a b ->
         match compare b.d_transforms a.d_transforms with
         | 0 -> ( match compare b.d_ops a.d_ops with 0 -> compare a.doc b.doc | c -> c)
         | c -> c)

let main_root m =
  List.fold_left
    (fun best (t : task) ->
      match best with
      | None -> Some t
      | Some b -> if span_ns t > span_ns b then Some t else best)
    None (roots m)

(* --- printing --------------------------------------------------------------- *)

let pp_ms ppf ns = Format.fprintf ppf "%.2fms" (float_of_int ns /. 1e6)

let pp_task ppf (t : task) =
  Format.fprintf ppf "@[<h>%-24s id=%-5d span=%a self=%a merge-wait=%a sync-wait=%a%s@]" t.name
    t.id pp_ms (span_ns t) pp_ms (self_ns t) pp_ms (merge_wait_ns t) pp_ms (sync_wait_ns t)
    (match t.status with Some s -> " status=" ^ s | None -> "")

let pp_summary ppf m =
  let ts = tasks m in
  let started = List.filter (fun t -> t.started) ts in
  let total_merges = List.fold_left (fun a t -> a + List.length t.merges) 0 ts in
  let total_children = List.fold_left (fun a t -> a + List.length (merge_records t)) 0 ts in
  let total_syncs = List.fold_left (fun a t -> a + List.length t.syncs) 0 ts in
  let total_ops =
    List.fold_left
      (fun a t -> a + List.fold_left (fun a r -> a + r.mc_ops) 0 (merge_records t))
      0 ts
  in
  let total_transforms =
    List.fold_left
      (fun a t -> a + List.fold_left (fun a r -> a + r.mc_transforms) 0 (merge_records t))
      0 ts
  in
  Format.fprintf ppf "events:          %d@." m.events;
  Format.fprintf ppf "tasks:           %d (%d with a lifecycle, %d roots)@."
    (task_count m) (List.length started) (List.length (roots m));
  Format.fprintf ppf "duration:        %a@." pp_ms (duration_ns m);
  Format.fprintf ppf "merge batches:   %d (%d children folded, %d journal ops, %d transforms)@."
    total_merges total_children total_ops total_transforms;
  Format.fprintf ppf "syncs:           %d@." total_syncs;
  (match main_root m with
  | Some r -> Format.fprintf ppf "main root:       %s (id %d, %a)@." r.name r.id pp_ms (span_ns r)
  | None -> ());
  let by_span = List.sort (fun a b -> compare (span_ns b) (span_ns a)) started in
  let top = List.filteri (fun i _ -> i < 12) by_span in
  if top <> [] then begin
    Format.fprintf ppf "@.top tasks by span:@.";
    List.iter (fun t -> Format.fprintf ppf "  %a@." pp_task t) top
  end
