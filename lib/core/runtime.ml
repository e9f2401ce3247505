module Ws = Sm_mergeable.Workspace
module Obs = Sm_obs
module E = Sm_obs.Event

(* Debug tracing: silent unless the application enables a Logs reporter and
   sets the level of the "sm.runtime" source to Debug. *)
let log_src = Logs.Src.create "sm.runtime" ~doc:"Spawn/Merge runtime events"

module Log = (val Logs.src_log log_src)

(* Structured observability (see Sm_obs): every lifecycle edge below emits an
   event when the verbosity gate is open, and feeds counters/histograms when
   metrics are enabled.  Both gates default to off, leaving one load+branch
   per site. *)
let m_spawns = Obs.Metrics.counter "runtime.spawns"
let m_clones = Obs.Metrics.counter "runtime.clones"
let m_merged_children = Obs.Metrics.counter "runtime.merged_children"
let m_ops_merged = Obs.Metrics.counter "runtime.ops_merged"
let m_syncs = Obs.Metrics.counter "runtime.syncs"
let m_aborts = Obs.Metrics.counter "runtime.aborts"
let m_validation_fails = Obs.Metrics.counter "runtime.validation_failures"
let h_merge_ns = Obs.Metrics.histogram "runtime.merge_ns"
let h_sync_wait_ns = Obs.Metrics.histogram "runtime.sync_wait_ns"
let h_ws_copy_ns = Obs.Metrics.histogram "runtime.ws_copy_ns"

type merge_error =
  | Validation_failed
  | Aborted

type status =
  | Running
  | Sync_waiting
  | Completed
  | Failed
  | Retired

module Trace = struct
  (* (caller task name, merged child name) in choice order.  Small (one entry
     per merge_any), so list append is fine. *)
  type t = { mutable events : (string * string) list }

  let create () = { events = [] }
  let length t = List.length t.events

  let codec = Sm_util.Codec.(list (pair string string))

  let encode t = Sm_util.Codec.encode codec t.events
  let decode s = { events = Sm_util.Codec.decode codec s }
  let record t ~caller ~child = t.events <- t.events @ [ (caller, child) ]

  (* First recorded choice made by [caller], consuming it. *)
  let take t ~caller =
    let rec go acc = function
      | [] -> None
      | (c, child) :: rest when String.equal c caller ->
        t.events <- List.rev_append acc rest;
        Some child
      | e :: rest -> go (e :: acc) rest
    in
    go [] t.events
end

exception Not_a_child of string

(* Determinism-sanitizer observation points, gated exactly like the Sm_obs
   emits above: one load + branch per site while nothing is installed.  The
   listener (Sm_check.Detsan) turns these into hazard reports; the runtime
   itself attaches no policy. *)
module Sanitizer_hook = struct
  type event =
    | Nondet_merge of { task : string; prim : string }
    | Task_started of { task : string }
    | Task_finished of { task : string; unmerged : string list }

  let hook : (event -> unit) option ref = ref None
  let install f = hook := Some f
  let uninstall () = hook := None
  let emit ev = match !hook with None -> () | Some f -> f ev
  let active () = !hook <> None
end

(* The scheduler a runtime instance runs on.  The threaded instantiation
   maps these to an Executor plus one Mutex/Condition pair; the cooperative
   instantiation (module Coop below) to an effects-based run queue with
   no-op locking.  All runtime semantics above this line are shared. *)
type sched =
  { fork : (unit -> unit) -> unit  (** start a task body *)
  ; lock : unit -> unit  (** enter the task-tree critical section *)
  ; unlock : unit -> unit
  ; wait : unit -> unit  (** release, wait for a state change, reacquire *)
  ; broadcast : unit -> unit  (** wake every waiter *)
  }

type rt =
  { sched : sched
  ; record : Trace.t option  (** append each merge_any choice here *)
  ; replay : Trace.t option  (** force merge_any choices from here *)
  }

type task =
  { id : int
  ; name : string
  ; parent : task option
  ; rt : rt
  ; ws : Ws.t
  ; mutable base : Ws.Versions.t  (** parent's versions at spawn / last sync *)
  ; mutable state : status
  ; mutable children : task list  (** creation order; retired children removed *)
  ; mutable child_counter : int
  ; mutable abort_requested : bool
  ; mutable failure : exn option
  ; mutable sync_outcome : (unit, merge_error) result option
  }

type ctx = task
type handle = task

let next_task_id = Atomic.make 1

let with_lock rt f =
  rt.sched.lock ();
  Fun.protect ~finally:rt.sched.unlock f

(* A child the parent can merge right now: parked in sync, or done. *)
let ready c = match c.state with Sync_waiting | Completed | Failed -> true | Running | Retired -> false

(* --- task creation -------------------------------------------------------- *)

let make_child ?(obs_kind = E.Spawn) parent ~ws ~base =
  let index = parent.child_counter in
  parent.child_counter <- index + 1;
  let child =
    { id = Atomic.fetch_and_add next_task_id 1
    ; name = Printf.sprintf "%s/%d" parent.name index
    ; parent = Some parent
    ; rt = parent.rt
    ; ws
    ; base
    ; state = Running
    ; children = []
    ; child_counter = 0
    ; abort_requested = false
    ; failure = None
    ; sync_outcome = None
    }
  in
  parent.children <- parent.children @ [ child ];
  parent.rt.sched.broadcast ();
  Log.debug (fun m -> m "spawn %s (child of %s)" child.name parent.name);
  if Sanitizer_hook.active () then
    Sanitizer_hook.emit (Sanitizer_hook.Task_started { task = child.name });
  if Obs.on Obs.Info then begin
    (* spawn-cost attribution rides at Debug: how many cells the share
       touched *)
    let cost_args = if Obs.on Obs.Debug then [ ("ws_cells", E.I (Ws.cell_count ws)) ] else [] in
    Obs.emit
      (E.make ~task:parent.name ~task_id:parent.id
         ~args:(("child", E.S child.name) :: ("child_id", E.I child.id) :: cost_args)
         obs_kind);
    Obs.emit
      (E.make ~task:child.name ~task_id:child.id ~args:[ ("parent", E.S parent.name) ] E.Task_start)
  end;
  child

(* --- merging (lock held) -------------------------------------------------- *)

(* Merge one ready child: fold its journal into the parent via OT (unless
   refused), then resume it (sync) or retire it (completed/failed).  The
   global lock is held throughout, so the batch of merges a merge_all
   performs is atomic with respect to every other task. *)
let merge_child_locked ctx ~validate child =
  let refusal =
    match child.state with
    | Failed -> Some Aborted
    | Sync_waiting | Completed ->
      if child.abort_requested then Some Aborted
      else if validate child.ws then None
      else Some Validation_failed
    | Running | Retired -> assert false
  in
  Log.debug (fun m ->
      m "merge %s: %s%s" child.name
        (match child.state with
        | Sync_waiting -> "sync"
        | Completed -> "completed"
        | Failed -> "failed"
        | Running | Retired -> "?")
        (match refusal with
        | None -> ""
        | Some Aborted -> " (discarded: aborted)"
        | Some Validation_failed -> " (discarded: validation failed)"));
  (* Per-merge accounting: journal length folded in, and the OT transform
     calls it took (a delta on the global counter — sound because the runtime
     lock serializes merges; concurrent *other* runtimes in the process can
     inflate it, which profiling runs avoid by running one workload). *)
  let detail = Obs.on Obs.Debug in
  let metered = detail || Obs.Metrics.is_enabled () in
  let ops = if metered && refusal = None then Ws.op_count child.ws else 0 in
  let transforms_before = if metered then Obs.Metrics.value Sm_ot.Control.transform_calls else 0 in
  let compact_in_before = if metered then Obs.Metrics.value Sm_ot.Control.compact_in else 0 in
  let compact_out_before = if metered then Obs.Metrics.value Sm_ot.Control.compact_out else 0 in
  (match refusal with
  | None -> Ws.merge_child ~parent:ctx.ws ~child:child.ws ~base:child.base
  | Some _ -> ());
  if metered then begin
    Obs.Metrics.incr m_merged_children;
    Obs.Metrics.add m_ops_merged ops
  end;
  if detail then begin
    let transforms = Obs.Metrics.value Sm_ot.Control.transform_calls - transforms_before in
    let compact_in = Obs.Metrics.value Sm_ot.Control.compact_in - compact_in_before in
    let compact_out = Obs.Metrics.value Sm_ot.Control.compact_out - compact_out_before in
    let outcome =
      match refusal with
      | None -> "merged"
      | Some Aborted -> "aborted"
      | Some Validation_failed -> "validation_failed"
    in
    Obs.emit
      (E.make ~task:ctx.name ~task_id:ctx.id
         ~args:
           [ ("child", E.S child.name)
           ; ("ops", E.I ops)
           ; ("transforms", E.I transforms)
           ; ("compact_in", E.I compact_in)
           ; ("compact_out", E.I compact_out)
           ; ("outcome", E.S outcome)
           ]
         E.Merge_child)
  end;
  (match refusal with
  | Some Validation_failed ->
    Obs.Metrics.incr m_validation_fails;
    if Obs.on Obs.Error then
      Obs.emit
        (E.make ~task:ctx.name ~task_id:ctx.id ~args:[ ("child", E.S child.name) ]
           E.Validation_fail)
  | Some Aborted | None -> ());
  (match child.state with
  | Sync_waiting ->
    Ws.rebase_from child.ws ~parent:ctx.ws;
    child.base <- Ws.snapshot ctx.ws;
    child.sync_outcome <- Some (match refusal with None -> Ok () | Some e -> Error e);
    child.state <- Running
  | Completed | Failed ->
    let status = match child.state with Failed -> "failed" | _ -> "ok" in
    child.state <- Retired;
    ctx.children <- List.filter (fun c -> c != child) ctx.children;
    if Obs.on Obs.Info then
      Obs.emit
        (E.make ~task:child.name ~task_id:child.id ~args:[ ("status", E.S status) ] E.Task_end)
  | Running | Retired -> assert false);
  ctx.rt.sched.broadcast ()

(* Journal prefixes no live child can still need are dead weight; drop them
   after every merge batch.  Only the root may truncate: every other task's
   journal is itself pending state its own parent will merge. *)
let truncate_locked ctx =
  match ctx.parent with
  | None -> Ws.truncate_to_min ctx.ws ~bases:(List.map (fun c -> c.base) ctx.children)
  | Some _ -> ()

let default_validate _ = true

(* Bracket one merge-family call: a Merge_begin/Merge_end span (so traces
   show merge wait time, i.e. how long the parent sat blocked on children)
   plus a latency sample.  Events carry no duration — sinks derive it from
   the two timestamps, keeping event *structure* deterministic. *)
let instrumented_merge ctx kind f =
  let detail = Obs.on Obs.Debug in
  let timed = Obs.Metrics.is_enabled () in
  if not (detail || timed) then f ()
  else begin
    if detail then
      Obs.emit (E.make ~task:ctx.name ~task_id:ctx.id ~args:[ ("kind", E.S kind) ] E.Merge_begin);
    let t0 = if timed then Obs.Clock.now_ns () else 0 in
    Fun.protect
      ~finally:(fun () ->
        if timed then Obs.Metrics.observe_ns h_merge_ns ~since:t0;
        if detail then
          Obs.emit (E.make ~task:ctx.name ~task_id:ctx.id ~args:[ ("kind", E.S kind) ] E.Merge_end))
      f
  end

let check_child ctx h =
  match h.parent with
  | Some p when p == ctx -> ()
  | Some _ | None -> raise (Not_a_child h.name)

let merge_all ?(validate = default_validate) ctx =
  instrumented_merge ctx "merge_all" (fun () ->
      with_lock ctx.rt (fun () ->
          let rec wait () =
            if List.for_all ready ctx.children then ()
            else begin
              ctx.rt.sched.wait ();
              wait ()
            end
          in
          wait ();
          List.iter (merge_child_locked ctx ~validate) ctx.children;
          truncate_locked ctx))

(* The replayed variant of a merge_any-style wait: hold out for the child
   the trace names.  If every child retires without it appearing the trace
   has diverged from the program; fall back to [None]. *)
let merge_target_locked ctx ~validate ~candidates target =
  let rec wait () =
    match candidates () with
    | [] -> None
    | children -> (
      match List.find_opt (fun c -> String.equal c.name target && ready c) children with
      | Some h ->
        merge_child_locked ctx ~validate h;
        truncate_locked ctx;
        Some h
      | None ->
        ctx.rt.sched.wait ();
        wait ())
  in
  wait ()

let record_choice ctx h =
  match ctx.rt.record with
  | Some trace -> Trace.record trace ~caller:ctx.name ~child:h.name
  | None -> ()

let replayed_choice ctx =
  match ctx.rt.replay with Some trace -> Trace.take trace ~caller:ctx.name | None -> None

(* Physical dedup: passing the same handle twice must not merge it twice. *)
let dedup handles =
  List.fold_left (fun acc h -> if List.memq h acc then acc else h :: acc) [] handles |> List.rev

let merge_all_from_set ?(validate = default_validate) ctx handles =
  instrumented_merge ctx "merge_all_from_set" (fun () ->
      with_lock ctx.rt (fun () ->
          List.iter (check_child ctx) handles;
          let live = List.filter (fun h -> h.state <> Retired) (dedup handles) in
          let rec wait () =
            if List.for_all ready live then ()
            else begin
              ctx.rt.sched.wait ();
              wait ()
            end
          in
          wait ();
          List.iter (merge_child_locked ctx ~validate) live;
          truncate_locked ctx))

let merge_any_from_set ?(validate = default_validate) ctx handles =
  if Sanitizer_hook.active () then
    Sanitizer_hook.emit
      (Sanitizer_hook.Nondet_merge { task = ctx.name; prim = "merge_any_from_set" });
  instrumented_merge ctx "merge_any_from_set" @@ fun () ->
  with_lock ctx.rt (fun () ->
      List.iter (check_child ctx) handles;
      let handles = dedup handles in
      let live () = List.filter (fun h -> h.state <> Retired) handles in
      match replayed_choice ctx with
      | Some target ->
        let result = merge_target_locked ctx ~validate ~candidates:live target in
        (match result with Some h -> record_choice ctx h | None -> ());
        result
      | None ->
        let rec wait () =
          match live () with
          | [] -> None
          | live -> (
            match List.find_opt ready live with
            | Some h ->
              merge_child_locked ctx ~validate h;
              truncate_locked ctx;
              record_choice ctx h;
              Some h
            | None ->
              ctx.rt.sched.wait ();
              wait ())
        in
        wait ())

let merge_any ?(validate = default_validate) ctx =
  if Sanitizer_hook.active () then
    Sanitizer_hook.emit (Sanitizer_hook.Nondet_merge { task = ctx.name; prim = "merge_any" });
  instrumented_merge ctx "merge_any" @@ fun () ->
  with_lock ctx.rt (fun () ->
      match replayed_choice ctx with
      | Some target ->
        let result = merge_target_locked ctx ~validate ~candidates:(fun () -> ctx.children) target in
        (match result with Some h -> record_choice ctx h | None -> ());
        result
      | None ->
        (* Rescan [ctx.children] on every wake-up: children cloned into
           existence while we wait (the accept-loop pattern) must be seen. *)
        let rec wait () =
          match ctx.children with
          | [] -> None
          | children -> (
            match List.find_opt ready children with
            | Some h ->
              merge_child_locked ctx ~validate h;
              truncate_locked ctx;
              record_choice ctx h;
              Some h
            | None ->
              ctx.rt.sched.wait ();
              wait ())
        in
        wait ())

(* --- child-side primitives ------------------------------------------------ *)

let sync ctx =
  (match ctx.parent with
  | None -> invalid_arg "Runtime.sync: the root task has no parent to sync with"
  | Some _ -> ());
  Obs.Metrics.incr m_syncs;
  let detail = Obs.on Obs.Debug in
  let timed = Obs.Metrics.is_enabled () in
  if detail then Obs.emit (E.make ~task:ctx.name ~task_id:ctx.id E.Sync_begin);
  let t0 = if timed then Obs.Clock.now_ns () else 0 in
  let outcome =
    with_lock ctx.rt (fun () ->
        Log.debug (fun m -> m "sync %s: parked" ctx.name);
        ctx.state <- Sync_waiting;
        ctx.rt.sched.broadcast ();
        let rec wait () =
          match ctx.sync_outcome with
          | Some outcome ->
            ctx.sync_outcome <- None;
            outcome
          | None ->
            ctx.rt.sched.wait ();
            wait ()
        in
        wait ())
  in
  if timed then Obs.Metrics.observe_ns h_sync_wait_ns ~since:t0;
  if detail then
    Obs.emit
      (E.make ~task:ctx.name ~task_id:ctx.id
         ~args:
           [ ( "outcome"
             , E.S
                 (match outcome with
                 | Ok () -> "merged"
                 | Error Validation_failed -> "validation_failed"
                 | Error Aborted -> "aborted") )
           ]
         E.Sync_end);
  outcome

(* On failure a task abandons its children: abort them all and keep merging
   (discarding) until each completes.  A sync-looping child sees
   [Error Aborted] and is expected to exit; one that never completes keeps
   its parent alive — the paper's position is that abort must not kill
   threads forcefully. *)
let drain_discarding ctx =
  with_lock ctx.rt (fun () -> List.iter (fun c -> c.abort_requested <- true) ctx.children);
  let rec drain () =
    let remaining = with_lock ctx.rt (fun () -> ctx.children <> []) in
    if remaining then begin
      merge_all ctx;
      drain ()
    end
  in
  drain ()

(* The implicit MergeAll a finishing task owes its children (Section II.D):
   merge repeatedly until none remain — children that keep syncing keep the
   task alive, exactly as a parent looping MergeAll would. *)
let rec merge_until_no_children ctx =
  if with_lock ctx.rt (fun () -> ctx.children <> []) then begin
    merge_all ctx;
    merge_until_no_children ctx
  end

let finalize ctx outcome =
  (match outcome with Ok () -> () | Error _ -> ( try drain_discarding ctx with _ -> ()));
  with_lock ctx.rt (fun () ->
      (match outcome with
      | Ok () -> ctx.state <- Completed
      | Error e ->
        ctx.failure <- Some e;
        ctx.state <- Failed);
      ctx.rt.sched.broadcast ())

(* Sanitizer edge: the body just returned; children still attached at this
   point are merged only by the *implicit* MergeAll — legal, but a hazard for
   programs that are audited for determinism (the merge point is no longer
   visible in the code). *)
let sanitize_body_end ctx =
  if Sanitizer_hook.active () then begin
    let unmerged = with_lock ctx.rt (fun () -> List.map (fun c -> c.name) ctx.children) in
    Sanitizer_hook.emit (Sanitizer_hook.Task_finished { task = ctx.name; unmerged })
  end

let run_task child body =
  let outcome =
    match body child with
    | () ->
      sanitize_body_end child;
      (match merge_until_no_children child with () -> Ok () | exception e -> Error e)
    | exception e ->
      if Sanitizer_hook.active () then
        Sanitizer_hook.emit (Sanitizer_hook.Task_finished { task = child.name; unmerged = [] });
      Error e
  in
  finalize child outcome

(* Share the workspace, timing the share. *)
let timed_copy ws =
  if Obs.Metrics.is_enabled () then begin
    let t0 = Obs.Clock.now_ns () in
    let copy = Ws.copy ws in
    Obs.Metrics.observe_ns h_ws_copy_ns ~since:t0;
    copy
  end
  else Ws.copy ws

let spawn ctx body =
  Obs.Metrics.incr m_spawns;
  let child =
    with_lock ctx.rt (fun () ->
        make_child ctx ~ws:(timed_copy ctx.ws) ~base:(Ws.snapshot ctx.ws))
  in
  ctx.rt.sched.fork (fun () -> run_task child body);
  child

let clone ctx body =
  match ctx.parent with
  | None -> invalid_arg "Runtime.clone: the root task cannot clone itself"
  | Some parent ->
    Obs.Metrics.incr m_clones;
    let sibling =
      with_lock ctx.rt (fun () ->
          if not (Ws.is_pristine ctx.ws) then
            invalid_arg "Runtime.clone: cloning task has unmerged local operations";
          make_child ~obs_kind:E.Clone parent ~ws:(timed_copy ctx.ws) ~base:ctx.base)
    in
    ctx.rt.sched.fork (fun () -> run_task sibling body);
    sibling

let abort ctx h =
  with_lock ctx.rt (fun () ->
      check_child ctx h;
      Log.debug (fun m -> m "abort %s (by %s)" h.name ctx.name);
      Obs.Metrics.incr m_aborts;
      if Obs.on Obs.Info then
        Obs.emit (E.make ~task:ctx.name ~task_id:ctx.id ~args:[ ("child", E.S h.name) ] E.Abort);
      h.abort_requested <- true;
      ctx.rt.sched.broadcast ())

(* --- observers ------------------------------------------------------------ *)

let workspace ctx = ctx.ws
let status h = with_lock h.rt (fun () -> h.state)
let error h = with_lock h.rt (fun () -> h.failure)
let has_children ctx = with_lock ctx.rt (fun () -> ctx.children <> [])
let task_name ctx = ctx.name
let handle_name h = h.name
let task_id ctx = ctx.id
let handle_id h = h.id

(* --- root ------------------------------------------------------------------ *)

(* Roots draw from the same process-wide counter as children so that task
   ids stay unique across sequential [run]s — trace consumers (Trace_model)
   key tasks by id, and a recycled root id would fold separate runs into
   one task. *)
let make_root rt =
  { id = Atomic.fetch_and_add next_task_id 1
  ; name = "root"
  ; parent = None
  ; rt
  ; ws = Ws.create ()
  ; base = Ws.Versions.empty
  ; state = Running
  ; children = []
  ; child_counter = 0
  ; abort_requested = false
  ; failure = None
  ; sync_outcome = None
  }

(* Root body + the implicit final merges + failure draining, with the
   outcome reified so schedulers decide where to re-raise. *)
let run_root root body =
  if Obs.on Obs.Info then Obs.emit (E.make ~task:root.name ~task_id:root.id E.Task_start);
  if Sanitizer_hook.active () then
    Sanitizer_hook.emit (Sanitizer_hook.Task_started { task = root.name });
  let result =
    match body root with
    | v ->
      sanitize_body_end root;
      (match merge_until_no_children root with () -> Ok v | exception e -> Error e)
    | exception e ->
      if Sanitizer_hook.active () then
        Sanitizer_hook.emit (Sanitizer_hook.Task_finished { task = root.name; unmerged = [] });
      Error e
  in
  (match result with Ok _ -> () | Error _ -> ( try drain_discarding root with _ -> ()));
  if Obs.on Obs.Info then
    Obs.emit
      (E.make ~task:root.name ~task_id:root.id
         ~args:[ ("status", E.S (match result with Ok _ -> "ok" | Error _ -> "failed")) ]
         E.Task_end);
  result

let threaded_sched exec =
  let m = Mutex.create () and cv = Condition.create () in
  { fork = (fun f -> Executor.submit exec f)
  ; lock = (fun () -> Mutex.lock m)
  ; unlock = (fun () -> Mutex.unlock m)
  ; wait = (fun () -> Condition.wait cv m)
  ; broadcast = (fun () -> Condition.broadcast cv)
  }

let run ?domains ?executor ?record ?replay body =
  let exec, owns_executor =
    match executor with
    | Some e -> (e, false)
    | None -> (Executor.create ?domains (), true)
  in
  let rt = { sched = threaded_sched exec; record; replay } in
  let result = run_root (make_root rt) body in
  if owns_executor then Executor.shutdown exec;
  match result with Ok v -> v | Error e -> raise e

module Coop = struct
  type _ Effect.t += Yield : unit Effect.t

  (* A FIFO of resumable thunks: deterministic round-robin.  Locking is a
     no-op (single domain, no preemption between effects) and waiting is
     yielding — a waiter re-checks its condition each time it comes around,
     so broadcast has nothing to do. *)
  let run ?record ?replay body =
    let runnable : (unit -> unit) Queue.t = Queue.create () in
    let sched =
      { fork = (fun f -> Queue.add f runnable)
      ; lock = ignore
      ; unlock = ignore
      ; wait = (fun () -> Effect.perform Yield)
      ; broadcast = ignore
      }
    in
    let rt = { sched; record; replay } in
    let root = make_root rt in
    let result = ref None in
    Queue.add (fun () -> result := Some (run_root root body)) runnable;
    let handler =
      { Effect.Deep.retc = Fun.id
      ; exnc = raise
      ; effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Queue.add (fun () -> Effect.Deep.continue k ()) runnable)
            | _ -> None)
      }
    in
    let rec loop () =
      match Queue.take_opt runnable with
      | None -> ()
      | Some thunk ->
        Effect.Deep.match_with thunk () handler;
        loop ()
    in
    loop ();
    match !result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None ->
      failwith "Runtime.Coop.run: the root task never completed (livelocked waiters?)"
end
