(** Per-task and per-merge cost breakdown of a recorded run.

    Joins the accounting the runtime stamps on {!Event.Merge_child} events
    (journal ops folded, OT transform calls, outcome) with the span-derived
    durations of {!Trace_model}: for every task, how much it spawned,
    merged, folded, transformed, aborted, and how its wall-clock split into
    own compute vs merge/sync blocking.  {!metric_view} re-states the trace
    totals under the live {!Metrics} registry's names, so a post-hoc
    [sm-trace attribute] is directly comparable with a [--obs] dump of the
    same run. *)

type row =
  { task : string
  ; task_id : int
  ; spawns : int
  ; clones : int
  ; spawn_cells : int
      (** workspace cells shared across this task's spawns/clones (Debug
          traces only — the spawn-cost args ride at Debug) *)
  ; merge_batches : int  (** merge-family calls *)
  ; children_merged : int  (** [Merge_child] folds performed *)
  ; ops_folded : int
  ; transforms : int
  ; compact_in : int  (** operations handed to journal compaction *)
  ; compact_out : int  (** operations surviving compaction *)
  ; merged_ok : int
  ; aborted : int
  ; validation_failed : int
  ; merge_ns : int  (** time blocked in merge-family calls *)
  ; sync_waits : int
  ; sync_ns : int  (** time blocked at sync points *)
  ; epochs : int  (** shard epochs closed ([Epoch_end]) *)
  ; epoch_edits : int  (** client edits folded across those epochs *)
  ; delta_bytes : int  (** sync payload bytes shipped as deltas *)
  ; snapshot_bytes : int  (** snapshot bytes, shipped or counterfactual *)
  ; self_ns : int
  ; span_ns : int
  }

val row_of_task : Trace_model.task -> row

val of_model : Trace_model.t -> row list
(** One row per started task, first-appearance order. *)

val totals : row list -> row
(** Sum row (named ["TOTAL"], id [-1]). *)

val metric_view : row list -> (string * int) list
(** Trace-derived totals keyed by the corresponding live metric names
    ([ot.transform_calls], [runtime.ops_merged], ...), sorted by name. *)

val transforms_observed : row list -> int
(** The summed [transforms] across rows — the observed OT work of the
    recorded run, what a static [sm-lint cost] bound must dominate
    ([sm-lint cost --trace] diffs exactly this number). *)

val to_json : row list -> Json.t
val pp : Format.formatter -> row list -> unit

(** {1 Conflict profiler: hot documents} *)

(** Per-document attribution from {!Event.Doc_merge} events: which
    documents drew the transform calls and how well their journals
    compacted.  Empty unless the trace was taken at Debug verbosity over
    the shard service. *)
type doc_row =
  { doc : string  (** document wire name *)
  ; doc_merges : int  (** epochs that folded edits into it *)
  ; doc_ops : int
  ; doc_transforms : int
  ; doc_compact_in : int
  ; doc_compact_out : int
  }

val docs_of_model : Trace_model.t -> doc_row list
(** Hottest (most transforms) first. *)

val docs_to_json : doc_row list -> Json.t
val pp_docs : Format.formatter -> doc_row list -> unit
