(** Process-wide named counters and latency histograms.

    Metrics live in a global registry keyed by name: {!counter}/{!histogram}
    return the existing metric when the name is already registered, so a
    module can declare its handles at top level and an unrelated reader
    (benchmark harness, test) can reach the same cells by name.

    Recording is gated by {!set_enabled} (default off).  A disabled
    {!incr}/{!observe} is one atomic load and a branch — cheap enough for OT
    inner loops.  Reads ({!value}, {!summary}, ...) always work.

    Histograms keep every sample (a growable vector guarded by a mutex) and
    summarize through {!Sm_util.Stats}; call {!reset} between measurement
    windows to keep memory bounded over long runs. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find or register.  @raise Invalid_argument if the name is a histogram. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
(** Find or register.  @raise Invalid_argument if the name is a counter. *)

val observe : histogram -> float -> unit

val observe_ns : histogram -> since:int -> unit
(** Record [Clock.now_ns () - since] — the idiom for latency samples. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk, recording its duration in nanoseconds when metrics are
    enabled (the clock is not even read when disabled). *)

val samples : histogram -> float list

val summary : histogram -> Sm_util.Stats.summary option
val percentile : histogram -> p:float -> float option

(** {1 Registry} *)

val counters : unit -> (string * int) list
(** All counters with their current values, sorted by name. *)

val histograms : unit -> (string * Sm_util.Stats.summary) list
(** All non-empty histograms summarized, sorted by name. *)

val raw_histograms : unit -> (string * float list) list
(** All non-empty histograms with their retained samples, sorted by name —
    the feed for exporters ({!Expo}) that need quantiles, not summaries. *)

val reset : unit -> unit
(** Zero every counter and drop every histogram's samples. *)

val dump : Format.formatter -> unit -> unit
(** Human-readable report of every non-zero metric. *)
