module Ws = Sm_mergeable.Workspace
module Obs = Sm_obs
module E = Sm_obs.Event

(* Structured observability (see Sm_obs): every lifecycle edge below emits an
   event when the verbosity gate is open, and feeds counters/histograms when
   metrics are enabled.  Both gates default to off, leaving one load+branch
   per site. *)
let m_spawns = Obs.Metrics.counter "runtime.spawns"
let m_clones = Obs.Metrics.counter "runtime.clones"
let m_merged_children = Obs.Metrics.counter "runtime.merged_children"
let m_ops_merged = Obs.Metrics.counter "runtime.ops_merged"
let m_syncs = Obs.Metrics.counter "runtime.syncs"
let m_sync_parks = Obs.Metrics.counter "runtime.sync_parks"
let m_merge_parks = Obs.Metrics.counter "runtime.merge_parks"
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

(* Determinism-sanitizer observation points live with the workspace's (one
   hook, one listener: Sm_check.Detsan), gated exactly like the Sm_obs emits
   above: one load + branch per site while nothing is installed.  The
   runtime itself attaches no policy. *)
module Sanitizer_hook = Ws.Sanitizer_hook

(* One task's way to sleep.  Only the task itself parks on its waiter, and
   only a task on the other end of a tree edge wakes it: a child wakes its
   parent when it becomes mergeable, a merge wakes the synced child it
   resumes.  Every wait re-checks its condition after [park], so a wake
   that finds the task running costs nothing but the call. *)
type waiter =
  { park : unit -> unit  (** release the lock, sleep until woken, reacquire *)
  ; wake : unit -> unit  (** lock held: rouse the task if it is parked *)
  }

(* The scheduler a runtime instance runs on.  The threaded instantiation
   maps these to an Executor, one Mutex and a Condition per task; the
   cooperative instantiation (module Coop below) to an effects-based run
   queue with no-op locking.  All runtime semantics above this line are
   shared. *)
type sched =
  { fork : (unit -> unit) -> unit  (** start a task body *)
  ; lock : unit -> unit  (** enter the task-tree critical section *)
  ; unlock : unit -> unit
  ; waiter : unit -> waiter  (** a new task's own waiter *)
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
  ; ws : Ws.t  (** carries its base: the parent's versions at spawn / last sync *)
  ; waiter : waiter
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

(* Every task, root or child.  Roots draw from the same process-wide id
   counter as children so that task ids stay unique across sequential
   [run]s — trace consumers (Trace_model) key tasks by id, and a recycled
   root id would fold separate runs into one task. *)
let make_task rt ~name ~parent ~ws =
  { id = Atomic.fetch_and_add next_task_id 1
  ; name
  ; parent
  ; rt
  ; ws
  ; waiter = rt.sched.waiter ()
  ; state = Running
  ; children = []
  ; child_counter = 0
  ; abort_requested = false
  ; failure = None
  ; sync_outcome = None
  }

let make_child ?(obs_kind = E.Spawn) parent ~ws =
  let index = parent.child_counter in
  parent.child_counter <- index + 1;
  let child =
    make_task parent.rt ~name:(Printf.sprintf "%s/%d" parent.name index) ~parent:(Some parent) ~ws
  in
  parent.children <- parent.children @ [ child ];
  (* a clone's new sibling must join a merge its parent is waiting in (on a
     spawn the parent is the caller, so the wake finds it running) *)
  parent.waiter.wake ();
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
  | None -> Ws.merge_child ~parent:ctx.ws ~child:child.ws
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
    child.sync_outcome <- Some (match refusal with None -> Ok () | Some e -> Error e);
    child.state <- Running;
    child.waiter.wake ()
  | Completed | Failed ->
    let status = match child.state with Failed -> "failed" | _ -> "ok" in
    child.state <- Retired;
    ctx.children <- List.filter (fun c -> c != child) ctx.children;
    if Obs.on Obs.Info then
      Obs.emit
        (E.make ~task:child.name ~task_id:child.id ~args:[ ("status", E.S status) ] E.Task_end)
  | Running | Retired -> assert false)

(* Journal prefixes no live child can still need are dead weight; drop them
   after every merge batch.  Only the root may truncate: every other task's
   journal is itself pending state its own parent will merge. *)
let truncate_locked ctx =
  match ctx.parent with
  | None -> Ws.truncate_to_min ctx.ws ~children:(List.map (fun c -> c.ws) ctx.children)
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

(* Sleep until an edge wakes [ctx], counting the park on [parks]. *)
let park ctx parks =
  Obs.Metrics.incr parks;
  ctx.waiter.park ()

let check_child ctx h =
  match h.parent with
  | Some p when p == ctx -> ()
  | Some _ | None -> raise (Not_a_child h.name)

(* Physical dedup: passing the same handle twice must not merge it twice. *)
let dedup handles =
  List.fold_left (fun acc h -> if List.memq h acc then acc else h :: acc) [] handles |> List.rev

(* A set variant's candidates: the given children, each once, until retired. *)
let live_set ctx handles =
  List.iter (check_child ctx) handles;
  let handles = dedup handles in
  fun () -> List.filter (fun h -> h.state <> Retired) handles

(* The deterministic merges' wait: until every candidate is ready, then merge
   them all in list order.  Each candidate wakes [ctx] when it becomes
   ready, and [candidates] is re-read on every wake-up, so children cloned
   into existence meanwhile join the batch. *)
let merge_every ctx ~validate candidates =
  with_lock ctx.rt (fun () ->
      let rec wait () =
        let cs = candidates () in
        if List.for_all ready cs then cs
        else begin
          park ctx m_merge_parks;
          wait ()
        end
      in
      List.iter (merge_child_locked ctx ~validate) (wait ());
      truncate_locked ctx)

(* The non-deterministic merges' wait: until a wanted candidate is ready, then
   merge just that one and record the choice.  Without a replay trace every
   ready candidate is wanted; with one, only the ready child the trace names.
   No candidates at all gives [None] at once (never block on nothing,
   Section IV.B).  Candidates are re-read on every wake-up (the accept-loop
   pattern: clones appearing while the parent waits must be seen). *)
let merge_first ctx ~validate candidates =
  with_lock ctx.rt (fun () ->
      let wanted =
        match Option.bind ctx.rt.replay (Trace.take ~caller:ctx.name) with
        | Some target -> fun c -> String.equal c.name target && ready c
        | None -> ready
      in
      let rec wait () =
        match candidates () with
        | [] -> None
        | cs -> (
          match List.find_opt wanted cs with
          | Some h ->
            merge_child_locked ctx ~validate h;
            truncate_locked ctx;
            Option.iter (fun t -> Trace.record t ~caller:ctx.name ~child:h.name) ctx.rt.record;
            Some h
          | None ->
            park ctx m_merge_parks;
            wait ())
      in
      wait ())

let nondet_merge ctx prim =
  if Sanitizer_hook.active () then
    Sanitizer_hook.emit (Sanitizer_hook.Nondet_merge { task = ctx.name; prim })

let merge_all ?(validate = default_validate) ctx =
  instrumented_merge ctx "merge_all" (fun () -> merge_every ctx ~validate (fun () -> ctx.children))

let merge_all_from_set ?(validate = default_validate) ctx handles =
  instrumented_merge ctx "merge_all_from_set" (fun () ->
      merge_every ctx ~validate (live_set ctx handles))

let merge_any ?(validate = default_validate) ctx =
  nondet_merge ctx "merge_any";
  instrumented_merge ctx "merge_any" (fun () -> merge_first ctx ~validate (fun () -> ctx.children))

let merge_any_from_set ?(validate = default_validate) ctx handles =
  nondet_merge ctx "merge_any_from_set";
  instrumented_merge ctx "merge_any_from_set" (fun () ->
      merge_first ctx ~validate (live_set ctx handles))

(* --- child-side primitives ------------------------------------------------ *)

let sync ctx =
  let parent =
    match ctx.parent with
    | None -> invalid_arg "Runtime.sync: the root task has no parent to sync with"
    | Some p -> p
  in
  Obs.Metrics.incr m_syncs;
  let detail = Obs.on Obs.Debug in
  let timed = Obs.Metrics.is_enabled () in
  if detail then Obs.emit (E.make ~task:ctx.name ~task_id:ctx.id E.Sync_begin);
  let t0 = if timed then Obs.Clock.now_ns () else 0 in
  let outcome =
    with_lock ctx.rt (fun () ->
        ctx.state <- Sync_waiting;
        parent.waiter.wake ();
        let rec wait () =
          match ctx.sync_outcome with
          | Some outcome ->
            ctx.sync_outcome <- None;
            outcome
          | None ->
            park ctx m_sync_parks;
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

(* The implicit MergeAll a finishing task owes its children (Section II.D):
   merge repeatedly until none remain — children that keep syncing keep the
   task alive, exactly as a parent looping MergeAll would. *)
let rec merge_until_no_children ctx =
  if with_lock ctx.rt (fun () -> ctx.children <> []) then begin
    merge_all ctx;
    merge_until_no_children ctx
  end

(* On failure a task abandons its children: abort them all and keep merging
   (discarding) until each completes.  A sync-looping child sees
   [Error Aborted] and is expected to exit; one that never completes keeps
   its parent alive — the paper's position is that abort must not kill
   threads forcefully. *)
let drain_discarding ctx =
  with_lock ctx.rt (fun () -> List.iter (fun c -> c.abort_requested <- true) ctx.children);
  merge_until_no_children ctx

(* Every task's body, root or child: the body, the implicit MergeAll, and on
   failure the drain, with the outcome reified so the caller decides what a
   failure means (a child records it, a root re-raises it). *)
let run_body task body =
  let outcome =
    match body task with
    | v ->
      (* Sanitizer edge: children still attached here are merged only by the
         implicit MergeAll — legal, but a hazard for programs that are
         audited for determinism (the merge point is no longer visible in
         the code). *)
      if Sanitizer_hook.active () then begin
        let unmerged = with_lock task.rt (fun () -> List.map (fun c -> c.name) task.children) in
        Sanitizer_hook.emit (Sanitizer_hook.Task_finished { task = task.name; unmerged })
      end;
      (match merge_until_no_children task with () -> Ok v | exception e -> Error e)
    | exception e ->
      if Sanitizer_hook.active () then
        Sanitizer_hook.emit (Sanitizer_hook.Task_finished { task = task.name; unmerged = [] });
      Error e
  in
  (match outcome with Ok _ -> () | Error _ -> ( try drain_discarding task with _ -> ()));
  outcome

let run_task ~parent child body =
  let outcome = run_body child body in
  with_lock child.rt (fun () ->
      (match outcome with
      | Ok () -> child.state <- Completed
      | Error e ->
        child.failure <- Some e;
        child.state <- Failed);
      parent.waiter.wake ())

(* Share the workspace with [share], timing the share. *)
let timed_copy share ws =
  if Obs.Metrics.is_enabled () then begin
    let t0 = Obs.Clock.now_ns () in
    let copy = share ws in
    Obs.Metrics.observe_ns h_ws_copy_ns ~since:t0;
    copy
  end
  else share ws

let spawn ctx body =
  Obs.Metrics.incr m_spawns;
  let child = with_lock ctx.rt (fun () -> make_child ctx ~ws:(timed_copy Ws.copy ctx.ws)) in
  ctx.rt.sched.fork (fun () -> run_task ~parent:ctx child body);
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
          (* the trimmed clone keeps the cloner's base, which the pristine
             cloner's empty journals still start at *)
          make_child ~obs_kind:E.Clone parent ~ws:(timed_copy Ws.clone_trimmed ctx.ws))
    in
    ctx.rt.sched.fork (fun () -> run_task ~parent sibling body);
    sibling

let abort ctx h =
  with_lock ctx.rt (fun () ->
      check_child ctx h;
      Obs.Metrics.incr m_aborts;
      if Obs.on Obs.Info then
        Obs.emit (E.make ~task:ctx.name ~task_id:ctx.id ~args:[ ("child", E.S h.name) ] E.Abort);
      (* no wait reads the flag: the next merge of [h] acts on it *)
      h.abort_requested <- true)

(* --- observers ------------------------------------------------------------ *)

let workspace ctx = ctx.ws
let status h = with_lock h.rt (fun () -> h.state)
let error h = with_lock h.rt (fun () -> h.failure)
let has_children ctx = with_lock ctx.rt (fun () -> ctx.children <> [])
let task_name ctx = ctx.name
let handle_name h = h.name
let task_id ctx = ctx.id

(* --- root ------------------------------------------------------------------ *)

(* A fresh root task on [rt], run through the shared body runner between
   its own Task_start/Task_end events. *)
let run_root rt body =
  let root = make_task rt ~name:"root" ~parent:None ~ws:(Ws.create ()) in
  if Obs.on Obs.Info then Obs.emit (E.make ~task:root.name ~task_id:root.id E.Task_start);
  if Sanitizer_hook.active () then
    Sanitizer_hook.emit (Sanitizer_hook.Task_started { task = root.name });
  let result = run_body root body in
  if Obs.on Obs.Info then
    Obs.emit
      (E.make ~task:root.name ~task_id:root.id
         ~args:[ ("status", E.S (match result with Ok _ -> "ok" | Error _ -> "failed")) ]
         E.Task_end);
  result

(* Only the owning task waits on its condition, so a wake signals one
   thread, never the whole tree. *)
let threaded_sched exec =
  let m = Mutex.create () in
  { fork = (fun f -> Executor.submit exec f)
  ; lock = (fun () -> Mutex.lock m)
  ; unlock = (fun () -> Mutex.unlock m)
  ; waiter =
      (fun () ->
        let cv = Condition.create () in
        { park = (fun () -> Condition.wait cv m); wake = (fun () -> Condition.signal cv) })
  }

let run ?executor ?record ?replay body =
  let exec, owns_executor =
    match executor with
    | Some e -> (e, false)
    | None -> (Executor.create (), true)
  in
  let rt = { sched = threaded_sched exec; record; replay } in
  let result = run_root rt body in
  if owns_executor then Executor.shutdown exec;
  match result with Ok v -> v | Error e -> raise e

module Coop = struct
  (* [Park slot] suspends the running task into its own [slot]. *)
  type _ Effect.t += Park : (unit -> unit) option ref -> unit Effect.t

  (* A FIFO of resumable thunks: deterministic round-robin.  Locking is a
     no-op (single domain, no preemption between effects).  A parked task's
     continuation waits in its own slot and enters the queue only when an
     edge wakes it, so no parked task is polled. *)
  let run ?record ?replay body =
    let runnable : (unit -> unit) Queue.t = Queue.create () in
    let waiter () =
      let slot = ref None in
      { park = (fun () -> Effect.perform (Park slot))
      ; wake =
          (fun () ->
            match !slot with
            | Some resume ->
              slot := None;
              Queue.add resume runnable
            | None -> ())
      }
    in
    let sched =
      { fork = (fun f -> Queue.add f runnable); lock = ignore; unlock = ignore; waiter }
    in
    let result = ref None in
    Queue.add (fun () -> result := Some (run_root { sched; record; replay } body)) runnable;
    let handler =
      { Effect.Deep.retc = Fun.id
      ; exnc = raise
      ; effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Park slot ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  slot := Some (fun () -> Effect.Deep.continue k ()))
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
      failwith "Runtime.Coop.run: the root task never completed (a parked task never woken?)"
end
