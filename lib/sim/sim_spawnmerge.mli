(** The Spawn/Merge network simulation — Listing 4.

    One task per host, each holding copies of every host's mergeable queue.
    A host's loop is [Sync] (merge my changes / fetch fresh data), test my
    queue, process one message, push to the destination's queue; the parent
    loops [MergeAll], which merges all hosts {e in creation order} every
    cycle.  Because merging is deterministic, even the [Hash_destination]
    variant — racy under conventional synchronization — "yields the same
    results in every run" (Section III): both digests in the report are
    run-invariant.

    Termination: a mergeable live-message counter is decremented when a
    message's TTL expires; hosts observe it after sync and complete when it
    reaches zero, letting the parent's final [MergeAll] retire them. *)

val run : ?executor:Sm_core.Executor.t -> Workload.config -> Workload.report
(** [executor] reuses a long-lived executor, avoiding the ~50 ms
    domain-teardown cost per run — see {!Sm_core.Runtime.run}. *)

val run_cooperative : Workload.config -> Workload.report
(** The same simulation on {!Sm_core.Runtime.Coop}: one thread, effects-based
    task switching.  Same digests as {!run} (determinism is scheduler-
    independent); the timing difference isolates what threads/domains cost. *)

val cycles_of_last_run : unit -> int
(** Simulation cycles (parent MergeAll rounds) of the most recent {!run} in
    this thread of control — exposed for the benchmark harness's sanity
    output.  Not meaningful across concurrent runs. *)
