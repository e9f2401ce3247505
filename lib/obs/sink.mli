(** Pluggable event consumers.

    A sink receives every event that passes the {!Verbosity} gate.  Sinks
    must be thread-safe: tasks on any domain emit directly.  The default is
    {!null}; installing a real sink ({!Trace_jsonl.sink}, {!collecting},
    or a {!tee} of several) turns tracing on, subject to the verbosity
    level. *)

type t =
  { emit : Event.t -> unit
  ; flush : unit -> unit
  ; close : unit -> unit
  }

val make : ?flush:(unit -> unit) -> ?close:(unit -> unit) -> (Event.t -> unit) -> t

val null : t
(** Drops everything. *)

val tee : t -> t -> t
(** Fan out to both sinks, in order. *)

val collecting : unit -> t * (unit -> Event.t list)
(** An in-memory sink plus a reader returning everything collected so far,
    ordered by emission sequence number — the one unbounded collector
    (tests, and {!Trace_chrome} export in [bench --trace] and the tracing
    example). *)

(** {1 The installed sink} *)

val set : t -> unit
val get : unit -> t

val emit : Event.t -> unit
(** Deliver to the installed sink.  Callers are expected to have checked
    {!Verbosity.enabled} first — see [Sm_obs]. *)

val flush : unit -> unit

val reset : unit -> unit
(** Flush and close the installed sink, reinstalling {!null}. *)
