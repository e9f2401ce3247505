(** DetSan — the determinism sanitizer.

    Watches a live Spawn/Merge program through the sanitizer hook
    ({!Sm_mergeable.Workspace.Sanitizer_hook}, which the runtime's task
    events share — the same near-zero-cost gating as {!Sm_obs} tracing)
    and reports the patterns that break the
    paper's determinism guarantee, each with task provenance:

    - {b nondet-merge} — [merge_any] / [merge_any_from_set] on a path that
      feeds a digested workspace: the result depends on scheduling.
    - {b key-in-task} — a workspace key minted while tasks are running: the
      exact pitfall {!Sm_core.Detcheck} documents (re-minted keys make
      digests incomparable across runs).
    - {b unmerged-children} — a task body returned with children still
      attached, leaving the merge to the implicit MergeAll.
    - {b op-after-digest} — an operation recorded on a workspace after it
      was digested: the digest missed the final state.

    Hazards are advisory: a program can be non-deterministic by design
    (servers, interactive input — the paper's own [merge_any] use case).
    DetSan tells you {e where} the determinism claim stops holding;
    {!Sm_core.Detcheck.deterministic_explained} tells you {e that} it
    stopped. *)

type hazard =
  | Nondet_merge of
      { task : string
      ; prim : string  (** ["merge_any"] or ["merge_any_from_set"] *)
      }
  | Key_minted_in_task of
      { key : string
      ; tasks : string list  (** tasks live at minting time *)
      }
  | Unmerged_children of
      { task : string
      ; children : string list
      }
  | Op_after_digest of { key : string }

val pp_hazard : Format.formatter -> hazard -> unit

val hazard_tag : hazard -> string
(** Stable short tag ("nondet-merge", "key-in-task", ...) for CLI summaries
    and tests. *)

val hazard_tags : string list
(** The whole taxonomy, one tag per hazard class — what the static analyzer
    ([Sm_lint]) must provide a twin finding for, and what the agreement
    harness iterates when checking static coverage of dynamic hazards. *)

val observe : (unit -> 'a) -> 'a * hazard list
(** Install the hook, run the thunk (typically one or more
    {!Sm_core.Runtime.run} / [Coop.run] calls), uninstall, and return the
    deduplicated hazards in first-occurrence order.  Process-global and
    exclusive: concurrent observations serialize on an internal lock. *)

val run :
  ?executor:Sm_core.Executor.t -> (Sm_core.Runtime.ctx -> unit) -> hazard list * string
(** Run one program threaded under observation — {e without} the explicit
    final [merge_all] the {!Sm_core.Detcheck} harness inserts, so
    children the program itself left unmerged are reported — and digest the
    root workspace after the run.  Returns (hazards, digest). *)
