(** The fuzz-program interpreter: runs a {!Sm_ir.Program.t} against the
    real Spawn/Merge runtime.

    Interpretation is {e total} and, for programs without any-merges,
    {e deterministic}: payload integers are reduced modulo the current
    state's bounds (list length, live-child count, tree arity), guards skip
    steps whose preconditions do not hold ([Sync] in the root, [Clone] from
    a non-pristine task, [Abort] with no live children), and every script
    ends with an explicit MergeAll loop so no children are left to the
    implicit merge — which keeps DetSan-clean a valid oracle. *)

(** The nine workspace keys a fuzz program operates on.  Keys are minted
    once per keyset (never inside a run — re-minting per run is the exact
    hazard DetSan flags) and key {e names} are fixed, so digests of runs
    over different keysets are comparable — the differential oracle merges
    that fact with {!Sm_check.Mutate.wrap_data}'s name-preservation. *)
module Keyset : sig
  type t

  val default : unit -> t
  (** The clean keyset (memoized). *)

  val mutated : Sm_check.Mutate.kind -> t
  (** A keyset whose nine [Data] modules carry the mutated transform
      (memoized per kind). *)

  val uncompacted : unit -> t
  (** A keyset whose nine [Data] modules merge raw journals
      ({!Sm_check.Uncompacted}) — the reference side of the [compaction]
      oracle (memoized). *)

  val queue_value : Sm_mergeable.Workspace.t -> t -> int list
  (** The fuzz queue's current value, front first — lets tests pin merge
      serialization order (the [queue-push-order] known issue) through the
      fuzz interpreter. *)
end

val init : Keyset.t -> Sm_mergeable.Workspace.t -> unit
(** Bind all nine keys to canonical initial states (root task only). *)

val run : ?task_budget:int -> Keyset.t -> Sm_ir.Program.t -> Sm_core.Runtime.ctx -> unit
(** Initialize the workspace and execute script 0 as the given task.
    [task_budget] (default 256) is a hard cap on spawned+cloned tasks — a
    backstop for hand-written [--program] inputs; generator output stays far
    below it, so the cap never perturbs a generated run. *)
