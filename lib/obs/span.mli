(** Generic named spans: a [Phase_begin]/[Phase_end] event pair on the same
    task, which trace exporters render as one slice.  Durations are derived
    by sinks from the two timestamps; pass [?hist] to additionally feed a
    latency histogram (only sampled when {!Metrics} are enabled). *)

val with_ :
  ?level:Verbosity.level ->
  ?args:(string * Event.arg) list ->
  ?hist:Metrics.histogram ->
  task:string ->
  task_id:int ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_ ~task ~task_id name f] brackets [f] with a span named [name]
    (default level [Debug]).  When neither tracing nor [?hist] timing is
    active this is one branch around [f].  [?args] decorate the begin event
    only.  The end event is emitted even when [f] raises. *)
