(** Chrome [trace_event] export.

    Collect events with {!Sink.collecting}, then {!write_file} a JSON
    object whose [traceEvents] array loads directly into [chrome://tracing]
    or {{:https://ui.perfetto.dev}Perfetto}.  Begin/end event pairs
    ([Task_start]/[Task_end], [Merge_begin]/[Merge_end],
    [Sync_begin]/[Sync_end], [Phase_begin]/[Phase_end]) are matched per
    task id and emitted as complete ["X"] slices with derived durations;
    everything else becomes an instant.  Task ids map to trace thread ids
    (with ["thread_name"] metadata naming each after its task), so a
    spawn/merge tree renders as one swimlane per task. *)

val to_json : Event.t list -> Json.t
(** The full trace document, [{"traceEvents": [...], ...}], for events in
    any order: they are laid out by timestamp, then sequence number. *)

val write_file : Event.t list -> string -> unit
