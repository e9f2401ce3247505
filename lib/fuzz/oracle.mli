(** The fuzzer's correctness oracles.

    Given a {!Program.t}, {!check} runs every applicable oracle and returns
    the first failure.  The cooperative scheduler's digest is the reference
    — [Coop] is deterministic even for any-merges, so every program has a
    canonical outcome — and the other oracles compare against it:

    - ["crash"]: the cooperative and threaded runs complete without raising.
    - ["differential"]: with [?mutate], the run over a
      {!Sm_check.Mutate.wrap_data}-mutated keyset digests {e identically} to
      the clean run (key names match, so digests are comparable).  A
      difference means the oracle {e caught} the transform bug — for a
      seeded mutation that is the expected failure the fuzzer then shrinks.
    - ["determinism"]: deterministic programs (no any-merges) digest
      identically across repeated threaded runs on 2-domain and 1-domain
      executors, all equal to the cooperative reference
      ({!Sm_core.Detcheck} with shared executors).
    - ["compaction"]: the digest is invariant under
      {!Sm_mergeable.Workspace.set_compaction} off.
    - ["detsan"]: deterministic programs run {!Sm_check.Detsan}-clean — the
      interpreter's merge epilogue and module-level keys make any hazard a
      real bug.
    - ["trace"]: two cooperative runs emit structurally equal Info-level
      event traces ({!Sm_obs.Trace_diff}).
    - ["replay"]: any-merge programs (without clones) record their threaded
      merge choices and replay to the same digest
      ({!Sm_core.Runtime.Trace}). *)

type failure =
  { oracle : string  (** which oracle, from {!oracle_names} *)
  ; detail : string  (** human-readable evidence (digests, hazard, diff) *)
  }

val pp_failure : Format.formatter -> failure -> unit

val oracle_names : string list
(** In the order {!check} runs them. *)

(** Shared executors: domain teardown costs a systhreads tick (~50ms), so
    one [env] is reused across every program of a fuzz run. *)
type env

val with_env : (env -> 'a) -> 'a
(** Create the executors, run, always shut them down. *)

val threaded_executor : env -> Sm_core.Executor.t
(** The shared 2-domain executor — what {!Agree} hands to
    {!Sm_check.Detsan.run} so the harness reuses this env's domains. *)

val coop_digest : Interp.Keyset.t -> Program.t -> string
(** One cooperative reference run's workspace digest — also the metered run
    the {!Agree} cost check observes [ot.transform_calls] around. *)

val check :
  ?focus:string ->
  ?runs:int ->
  ?mutate:Sm_check.Mutate.kind ->
  env ->
  Program.t ->
  (unit, failure) result
(** Run the applicable oracles in {!oracle_names} order and stop at the
    first failure.  [focus] restricts to the oracle of that name — what the
    shrinker uses so each candidate costs one oracle, not all seven.  [runs]
    (default 3) is the repetition count for the determinism oracle.
    [mutate] enables the differential oracle over that mutated keyset. *)
