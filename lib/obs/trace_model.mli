(** Reconstruct a run from its event stream.

    Folds a {!Trace_jsonl} stream (or an in-memory {!Event.t} list) into a
    task tree: per-task span intervals, spawn/clone edges, merge spans with
    the {!Event.Merge_child} accounting recorded inside them, sync-wait
    spans, and abort/validation counts.  The model is the shared input of
    the analysis passes ({!Critical_path}, {!Attribution}) and of the
    [sm-trace] CLI.

    Tasks are keyed by the process-global numeric [task_id], so one trace
    file holding several sequential runs (each with its own ["root"]) never
    conflates same-named tasks; names are kept for display and resolved to
    ids only within the emitting parent's own children.

    Works on Info-level traces (lifecycle only; no merge spans) and richer
    Debug-level ones alike: whatever was emitted is modeled, the rest stays
    empty. *)

type outcome =
  | Merged
  | Aborted
  | Validation_failed

val outcome_of_string : string -> outcome option

(** One {!Event.Merge_child}: a child's journal folded into (or refused by)
    its parent. *)
type merge_record =
  { mc_child : int option  (** resolved child task id, when the spawn edge was traced *)
  ; mc_child_name : string
  ; mc_ops : int  (** journal operations folded in *)
  ; mc_transforms : int  (** OT transform calls the fold took *)
  ; mc_compact_in : int  (** operations handed to journal compaction *)
  ; mc_compact_out : int  (** operations surviving compaction *)
  ; mc_outcome : outcome
  ; mc_ts : int
  }

(** A [Merge_begin]/[Merge_end] bracket: the parent blocked in a
    merge-family call. *)
type merge_span =
  { m_kind : string  (** ["merge_all"], ["merge_any_from_set"], ... *)
  ; m_begin : int
  ; mutable m_end : int
  ; mutable m_children : merge_record list  (** reverse-chronological *)
  ; mutable m_closed : bool  (** false: ran to the end of the trace *)
  }

(** A [Sync_begin]/[Sync_end] bracket: the child blocked waiting to be
    merged. *)
type sync_span =
  { s_begin : int
  ; mutable s_end : int
  ; mutable s_outcome : string option
  ; mutable s_closed : bool
  }

type task =
  { id : int
  ; name : string
  ; mutable parent : int option
  ; mutable children : int list  (** spawn order *)
  ; mutable started : bool  (** saw [Task_start] *)
  ; mutable start_ts : int
  ; mutable ended : bool  (** saw [Task_end] *)
  ; mutable end_ts : int  (** last seen timestamp when [not ended] *)
  ; mutable status : string option  (** ["ok"]/["failed"] *)
  ; mutable merges : merge_span list  (** chronological *)
  ; mutable syncs : sync_span list  (** chronological *)
  ; mutable clones_spawned : int  (** of [children], how many came from [Clone] *)
  ; mutable spawn_cells : int
      (** workspace cells shared across this task's spawns/clones (from the
          Debug-level [ws_cells] spawn-cost arg; 0 on Info-level traces) *)
  ; mutable epochs : int  (** [Epoch_end] events (shard transform passes) *)
  ; mutable epoch_edits : int  (** client edits folded across those epochs *)
  ; mutable delta_bytes : int  (** sync payload bytes shipped as deltas *)
  ; mutable snapshot_bytes : int
      (** snapshot payload bytes: shipped (snapshot mode) or counterfactual
          (what a delta sync {e would} have cost as a snapshot) *)
  ; mutable last_ts : int
  }

type t

(** {1 Construction} *)

val of_events : Event.t list -> t
(** Build from an in-memory list (sorted by [seq] first). *)

val of_file : string -> t
(** Stream a JSONL trace through {!Trace_jsonl.fold} — constant memory in
    the trace length.
    @raise Trace_jsonl.Decode_error on malformed lines. *)

(** {1 Incremental building} *)

type builder

val create_builder : unit -> builder
val add_event : builder -> Event.t -> unit

val finish : builder -> t
(** Seal the model: orders lists chronologically, closes dangling spans at
    the last timestamp.  Idempotent; {!add_event} afterwards raises. *)

(** {1 Accessors} *)

val task : t -> int -> task option
val tasks : t -> task list  (** first-appearance order *)

val roots : t -> task list
(** Started tasks with no traced parent — one per [Runtime.run] in the
    trace (executor/note-only pseudo-tasks are excluded). *)

val main_root : t -> task option
(** The root with the longest span: the run an analysis should explain by
    default. *)

val duration_ns : t -> int
val event_count : t -> int
val task_count : t -> int

val span_ns : task -> int
val merge_wait_ns : task -> int
val sync_wait_ns : task -> int

val blocked_ns : task -> int
(** Merge wait + sync wait. *)

val self_ns : task -> int
(** Span minus blocked time: the task's own compute. *)

val merge_records : task -> merge_record list
(** Every child fold the task performed, chronological. *)

val doc_profiles : t -> Doc_profile.t list
(** Per-document conflict profiles from {!Event.Doc_merge} events across
    every task, hottest first ({!Doc_profile.compare_hottest}).  Empty
    unless the trace carries [Doc_merge] events (shard service at Debug
    verbosity). *)

(** {1 Printing} *)

val pp_ms : Format.formatter -> int -> unit
val pp_task : Format.formatter -> task -> unit
val pp_summary : Format.formatter -> t -> unit
