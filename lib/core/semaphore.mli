(** Semaphores built from Spawn and Merge alone — the paper's Section IV.A
    expressiveness construction.

    A semaphore is a mergeable list [L]: its first element is the semaphore
    value, the rest are ids of tasks waiting on it.  To acquire, a worker
    appends its id and calls [Sync] twice — the first sync delivers the
    request to the parent, the second parks the worker until the parent
    grants.  The parent loops on [merge_any_from_set S]: after each merge it
    scans every [L], increments values for release entries (negative ids),
    grants waiting requests FIFO while the value is positive (re-admitting
    the granted worker to [S]), and evicts denied waiters from [S] so they
    stay parked.  To release, a worker appends its negated id and syncs
    once.

    "While this procedure is inefficient and cumbersome, it shows that we
    can achieve the same parallel execution that a semaphore-based system
    can realize" — this module is the runnable proof, and the test suite
    measures that at most [value] workers ever overlap in a critical
    section.

    When a semaphore program deadlocks, its Spawn/Merge simulation does not:
    every blocked worker leaves [S], the parent's [merge_any_from_set]
    returns [None] on the (effectively) empty set, and the manager reports
    {!outcome.All_blocked} instead of hanging — the observable form of the
    paper's "the simulation livelocks where the original deadlocks". *)

type outcome =
  | Completed  (** every worker ran to completion *)
  | All_blocked
      (** live workers remain but none can ever be granted — the semaphore
          program this system simulates has deadlocked *)

type ops =
  { acquire : int -> unit  (** [acquire s]: block until semaphore [s] is granted *)
  ; release : int -> unit  (** [release s]: release one unit of semaphore [s] *)
  ; worker_id : int  (** this worker's positive id (1-based) *)
  }

val run_system :
  ?executor:Executor.t -> values:int array -> (ops -> unit) list -> outcome
(** [run_system ~values workers] runs the workers concurrently against semaphores with initial [values].
    Workers may interleave acquires and releases of any semaphore index;
    each worker must balance its own acquires with releases or hold
    forever.  Returns when all workers completed or when the system is
    detected blocked.
    @raise Invalid_argument on an out-of-range semaphore index (raised
    inside the offending worker, failing that task). *)
