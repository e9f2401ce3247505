(** The determinism oracle.

    Runs a Spawn/Merge program repeatedly — optionally on an executor of
    the caller's width, which perturbs real scheduling — and compares digests of
    the root task's merged workspace.  A program restricted to deterministic
    merges ([merge_all], [merge_all_from_set]) must digest identically every
    time; this is the paper's core claim, and the property the test suite
    and the evaluation's "note that using Spawn and Merge also the
    'non-deterministic' test setup becomes deterministic" rely on.

    Programs must create their workspace keys once at module level:
    re-minting keys per run changes key identities and makes digests
    incomparable. *)

exception Timeout of string
(** Raised by {!cross_scheduler} when [?timeout_s] expires; the payload is a
    diagnostic naming the likely cause. *)

val digest_of_run : ?executor:Executor.t -> (Runtime.ctx -> unit) -> string
(** Run the program, merge all remaining children, digest the root
    workspace. *)

val digests : ?runs:int -> ?executor:Executor.t -> (Runtime.ctx -> unit) -> string list
(** [runs] (default 5) digests of independent executions. *)

val deterministic : ?runs:int -> ?executor:Executor.t -> (Runtime.ctx -> unit) -> bool
(** All digests equal. *)

type divergence =
  { run_index : int  (** first run whose digest differs from run 0's *)
  ; digest : string
  ; reference : string  (** run 0's digest *)
  }

val pp_divergence : Format.formatter -> divergence -> unit

val deterministic_explained :
  ?runs:int -> ?executor:Executor.t -> (Runtime.ctx -> unit) -> (unit, divergence) result
(** {!deterministic}, but a failure names the first diverging run instead of
    collapsing to [false] — the starting point for a hazard hunt with
    [Sm_check.Detsan], which explains {e why} a program can diverge. *)

val cross_scheduler : ?timeout_s:float -> ?runs:int -> ?executor:Executor.t -> (Runtime.ctx -> unit) -> bool
(** The strongest oracle: the program must digest identically across
    repeated {e threaded} runs {b and} match the {e cooperative} scheduler's
    digest — determinism independent of scheduling technology, the paper's
    "regardless of the number of cores" taken to its limit.  The program
    must not block the OS thread (no [Thread.delay]) or it will stall the
    cooperative runs; pass [timeout_s] to turn that stall into a
    {!Timeout} with a diagnostic (the stuck worker thread is abandoned, not
    killed — threads are not cancellable). *)
