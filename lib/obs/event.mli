(** Structured lifecycle events.

    One event per lifecycle edge of the runtime: spawns, merges, syncs,
    clones, aborts, validation failures, plus generic phase spans and
    instant notes.  Events carry the emitting task's hierarchical name (the
    deterministic identity), its numeric id (unique per process, {e not}
    deterministic across runs — useful as a Chrome-trace thread id), a
    strictly monotonic timestamp, and a small list of structured arguments.

    Argument conventions used by the built-in instrumentation:
    - [Spawn]/[Clone]: ["child"], ["child_id"].
    - [Task_start]: ["parent"] (absent for the root); remote tasks add
      ["rank"].
    - [Task_end]: ["status"] of ["ok"]/["failed"].
    - [Merge_begin]/[Merge_end]: ["kind"] of ["merge_all"],
      ["merge_all_from_set"], ["merge_any"], ["merge_any_from_set"].
    - [Merge_child]: ["child"], ["ops"] (journal length folded in),
      ["transforms"] (OT transform calls it took — 0 unless {!Metrics} are
      enabled), ["outcome"] of ["merged"]/["aborted"]/["validation_failed"].
    - [Sync_end]: ["outcome"] as for [Merge_child].
    - [Phase_begin]/[Phase_end]: ["name"].

    Durations are deliberately {e not} arguments: sinks derive them from
    begin/end timestamps, so {!structure} (everything except [seq], [ts_ns],
    [task_id] and ["child_id"]) is deterministic whenever the program's merge structure
    is — see the trace-determinism test. *)

type arg =
  | I of int
  | F of float
  | S of string
  | B of bool

type kind =
  | Task_start
  | Task_end
  | Spawn
  | Clone
  | Merge_begin
  | Merge_child
  | Merge_end
  | Sync_begin
  | Sync_end
  | Abort
  | Validation_fail
  | Phase_begin
  | Phase_end
  | Note
  | Epoch_begin  (** a shard starts one batched transform pass *)
  | Epoch_end  (** ...and finishes it; ["edits"], ["ops"] *)
  | Delta_sync
      (** a shard answered a sync: ["mode"] of ["delta"]/["snapshot"],
          ["bytes"], and the counterfactual ["snapshot_bytes"] *)
  | Req_begin
      (** a client put a request in flight: ["req"], ["op"] of
          ["hello"]/["resume"]/["edit"]/["poll"], plus {!Trace_ctx.args} *)
  | Req_end
      (** ...and saw its reply: ["req"], ["status"] of ["ok"]/["nack"],
          same context as the matching [Req_begin] *)
  | Serve
      (** a shard served a request: ["op"], ["req"], ["session"], context
          args parented on the client's request span *)
  | Epoch_merge
      (** one edit batch merged inside an epoch: ["ops"], ["eid"], context
          args parented on the batch's [Serve] span *)
  | Doc_merge
      (** per-document epoch profile: ["doc"], ["ops"], ["transforms"],
          ["compact_in"], ["compact_out"] — the conflict profiler's feed *)

type t =
  { seq : int  (** process-wide emission number *)
  ; ts_ns : int  (** {!Clock.now_ns} at creation: strictly monotonic *)
  ; kind : kind
  ; task : string  (** hierarchical task name, or a ["rank<n>"] tag *)
  ; task_id : int
  ; args : (string * arg) list
  }

val make : ?args:(string * arg) list -> task:string -> task_id:int -> kind -> t
(** Stamp a fresh event ([seq] and [ts_ns] are assigned here). *)

val structure : t -> kind * string * (string * arg) list
(** The deterministic part of an event: kind, task name, arguments minus
    ["child_id"] (which, like [task_id], is allocation-ordered and so not
    stable across runs). *)

val equal_structure : t -> t -> bool
(** Structural equality ignoring [seq], [ts_ns], [task_id] and the
    ["child_id"] argument. *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val all_kinds : kind list
(** Every constructor once, in declaration order. *)

val pp : Format.formatter -> t -> unit
val pp_arg : Format.formatter -> arg -> unit
