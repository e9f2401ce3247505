(** JSON-lines event export: one self-describing JSON object per event, one
    per line — greppable, streamable, and parseable back into {!Event.t}
    (the decoder is the round-trip test's oracle and the foundation for
    later record/replay tooling). *)

exception Decode_error of string

val arg_to_json : Event.arg -> Json.t

val arg_of_json : Json.t -> Event.arg
(** [Null] decodes as [F nan] (the printer's image of a nan float — see
    {!Json}).
    @raise Decode_error on list/object JSON. *)

val event_to_json : Event.t -> Json.t
val event_of_json : Json.t -> Event.t
(** @raise Decode_error on missing/ill-typed fields or unknown kinds. *)

val event_to_line : Event.t -> string
val event_of_line : string -> Event.t
(** @raise Decode_error on malformed JSON or schema violations. *)

val sink : out_channel -> Sink.t
(** Write each event as a line to the channel (mutex-serialized).  Flushing
    the sink flushes the channel; the channel is not closed. *)

val file_sink : string -> Sink.t
(** {!sink} on a fresh file; closing the sink closes the file. *)

val lane_file : string -> string
(** A lane name made safe as a file-name stem: every byte outside
    [[A-Za-z0-9_-]] becomes ['_'].  Shared by every writer of per-lane
    files ({!dir_sink}, {!Flight_recorder.write_dir}, [sm-fuzz]). *)

val dir_sink : ?lane:(Event.t -> string) -> string -> Sink.t
(** Route each event to [dir/<lane e>.jsonl] (default lane: the emitting
    task's name, through {!lane_file}), creating [dir] and lane files on demand — a
    single-process run leaves the same lane-per-file layout a multi-process
    run does, ready for {!Trace_stitch.of_files}.  Closing the sink closes
    every lane file. *)

val fold : string -> init:'a -> f:('a -> Event.t -> 'a) -> 'a
(** Stream a JSONL trace file through [f] one event at a time, skipping
    blank lines — constant memory in the trace length, so analysis passes
    ({!Trace_model.of_file}, the [sm-trace] CLI) never materialize the
    event list the way {!load} does.
    @raise Decode_error on malformed lines. *)

val fold_channel : in_channel -> init:'a -> f:('a -> Event.t -> 'a) -> 'a
(** {!fold} over an already-open channel (reads to [End_of_file]). *)

val load : string -> Event.t list
(** Read a JSONL trace file back, skipping blank lines.
    @raise Decode_error on malformed lines. *)
