(** Spawn and Merge: deterministic synchronization of concurrent tasks.

    The paper's programming model, transliterated from its GO-like pseudo
    language:

    - {!run} executes a root task.
    - {!spawn} creates a child task with a {e copy} of the parent's mergeable
      data (its {!Sm_mergeable.Workspace.t}); parent and child then execute
      concurrently with no shared mutable state and no locks.
    - The {b Merge} family folds children's recorded operations back into the
      parent via operational transformation: {!merge_all} and
      {!merge_all_from_set} are deterministic (creation order / argument
      order); {!merge_any} and {!merge_any_from_set} introduce
      non-determinism explicitly, for workloads with inherently
      non-deterministic input (servers, interactive programs).
    - {!sync} lets a {e running} child merge with its parent and continue on
      a fresh copy — equivalent to completing and being respawned, but
      without tearing the task down.
    - {!clone} lets a child create a sibling (the blocking-accept pattern).
    - {!abort} marks a child so its changes are discarded at merge time; a
      child that raises is treated the same way.
    - A [?validate] post-condition on any merge turns it into a transaction:
      when validation of the child's data fails, the merge is skipped —
      rollback without aborts, unlike transactional memory there is no
      conflict-triggered retry.

    Programs that use only deterministic merges produce identical results on
    every run and any number of cores; see {!Detcheck}.  Deadlocks are
    impossible by construction: the only waits are parent-waits-for-child
    (merge) and child-waits-for-parent (sync), and the task graph is a tree —
    when both ends of one edge wait for each other, the merge fires and
    unblocks both (Section IV.B of the paper). *)

type ctx
(** A task's identity, held by its own body: gives access to the task's
    workspace and names it as the parent of the tasks it spawns.  Every
    function below taking a [ctx] must be called from the task that owns it. *)

type handle
(** A parent's reference to one of its children. *)

type merge_error =
  | Validation_failed  (** the [?validate] post-condition rejected the child's data *)
  | Aborted  (** the parent externally {!abort}ed this task *)

type status =
  | Running
  | Sync_waiting  (** parked in {!sync}, waiting for the parent to merge *)
  | Completed  (** body returned; waiting to be merged and retired *)
  | Failed  (** body raised; its changes will be discarded *)
  | Retired  (** merged for the last time; no longer a child *)

exception Not_a_child of string
(** Raised when a merge/abort names a handle that is not (or no longer) a
    child of the calling task. *)

(** Merge-choice traces: record which child every [merge_any] /
    [merge_any_from_set] picked, then replay the run with those choices
    forced.  The paper sells determinism as a debugging aid — "a bug will
    not appear only in some executions of a program"; traces extend that to
    programs that opted into non-determinism: record a failing run once,
    then reproduce it at will.

    Tasks are identified by their hierarchical names, so replay requires the
    task tree itself to be reproducible (spawns from deterministic code —
    true unless clones race, in which case record/replay of the clone
    pattern is out of scope).  A replayed [merge_any] waits for the specific
    recorded child; when a trace runs out, execution continues untraced. *)
module Trace : sig
  type t

  val create : unit -> t
  (** An empty trace to record into. *)

  val length : t -> int
  (** Number of recorded choices. *)

  val encode : t -> string
  (** Serialize (for storing next to a bug report). *)

  val decode : string -> t
  (** @raise Sm_util.Codec.Decode_error on malformed input. *)
end

val run :
  ?executor:Executor.t ->
  ?record:Trace.t ->
  ?replay:Trace.t ->
  (ctx -> 'a) ->
  'a
(** Execute a root task.  When the body returns, implicit {!merge_all}s
    retire any remaining children (the paper: "whenever a task that still
    has running child tasks finishes, MergeAll is called implicitly").
    Re-raises the body's exception after draining children.

    By default a fresh {!Executor} of the default width is created and shut
    down afterwards; shutting down an executor whose workers hosted threads
    costs a systhreads tick (~50 ms), so callers running many programs — the
    benchmark harness, the determinism oracle — should create one executor
    and pass it as [executor], which [run] will then {e not} shut down. *)

(** A cooperative, single-threaded scheduler for the same runtime API.

    [Coop.run body] executes the whole task tree on the calling thread using
    OCaml effects: tasks run until they would block (in [sync] or a merge
    wait), then park; a parked task rejoins the deterministic FIFO of
    runnable tasks only when the task across a tree edge wakes it (a child
    that syncs or finishes wakes its parent, a merge wakes the synced child
    it resumes), so no parked task is polled.  Every
    primitive — [spawn], [sync], the merge family, [clone], [abort],
    [Par.map], ... — works unchanged on a [Coop] context.

    Because the schedule itself is deterministic, {e even [merge_any]}
    becomes reproducible under [Coop]: run a non-deterministic program
    cooperatively to debug it, then ship it on the parallel scheduler.  The
    flip side is cooperation: a task that blocks the OS thread (e.g.
    [Thread.delay], blocking I/O) stalls everyone, and there is no
    parallel speedup. *)
module Coop : sig
  val run : ?record:Trace.t -> ?replay:Trace.t -> (ctx -> 'a) -> 'a
end

val workspace : ctx -> Sm_mergeable.Workspace.t
(** The task's private mergeable data.  Initialize values here (root task),
    read and update them from the owning task only. *)

val spawn : ctx -> (ctx -> unit) -> handle
(** Create and start a child task on a copy of the caller's workspace. *)

val clone : ctx -> (ctx -> unit) -> handle
(** Create a {e sibling} of the calling task (a new child of its parent),
    seeded with a copy of the caller's data and base.  The caller must be
    pristine — no unmerged local operations — which is the natural state of
    an accept-loop task; the sibling typically calls {!sync} first to fetch
    fresh data (Listing 3).
    @raise Invalid_argument from the root task or with unmerged local ops. *)

val sync : ctx -> (unit, merge_error) result
(** Park until the parent merges this task (any merge flavor reaches it),
    then continue on a fresh copy of the parent's data.  [Error] means the
    merge was refused (validation failure or external abort) — the task
    still continues on a fresh copy and decides itself whether to retry,
    compensate, or raise.
    @raise Invalid_argument from the root task. *)

val merge_all : ?validate:(Sm_mergeable.Workspace.t -> bool) -> ctx -> unit
(** Wait until {e every} child is mergeable (completed, failed, or parked in
    sync), then merge them in creation order — deterministic.  Completed and
    failed children retire; sync-parked children resume on fresh copies. *)

val merge_all_from_set :
  ?validate:(Sm_mergeable.Workspace.t -> bool) -> ctx -> handle list -> unit
(** As {!merge_all} but for the given children, merged in {e argument}
    order — deterministic.  Retired handles are skipped.
    @raise Not_a_child on a handle from a different parent. *)

val merge_any : ?validate:(Sm_mergeable.Workspace.t -> bool) -> ctx -> handle option
(** Wait for the {e first} child to become mergeable and merge just that one
    — explicitly non-deterministic.  [None] when the task has no children
    (never blocks on nothing, Section IV.B).  Returns the merged child. *)

val merge_any_from_set :
  ?validate:(Sm_mergeable.Workspace.t -> bool) -> ctx -> handle list -> handle option
(** As {!merge_any} within the given set.  [None] when the set holds no
    live children — the deadlocked-semaphore simulation relies on
    [merge_any_from_set ctx \[\] = None] returning immediately. *)

val abort : ctx -> handle -> unit
(** Mark a child externally aborted: its changes will be discarded at every
    subsequent merge and its [sync] returns [Error Aborted].  Does not stop
    the task (most systems cannot kill threads gracefully; Section II.F).
    @raise Not_a_child on a handle from a different parent. *)

val status : handle -> status

val error : handle -> exn option
(** The exception that failed the task, once it has failed. *)

val has_children : ctx -> bool

val task_name : ctx -> string
(** Hierarchical name, e.g. ["root/2/0"] — stable across runs for
    deterministically spawned tasks. *)

val handle_name : handle -> string

val task_id : ctx -> int
(** Process-unique numeric id — allocation-ordered, so {e not} stable across
    runs; use {!task_name} for deterministic identity.  This is the id
    {!Sm_obs} events carry and Chrome traces use as the thread lane. *)
