(** Prometheus-style text exposition of the {!Metrics} registry, plus an
    in-process periodic reporter.

    Counters render as `# TYPE sm_<name> counter` samples; histograms as
    summaries (p50/p90/p95/p99 quantile series, `_sum`, `_count`) computed
    from every sample of the window.  Metric names are sanitized to the
    Prometheus grammar and prefixed [sm_] ([runtime.merge_ns] →
    [sm_runtime_merge_ns]). *)

val sanitize : string -> string

val render : counters:(string * int) list -> histograms:(string * float list) list -> string
(** Exposition of explicit data — e.g. trace-derived totals from
    {!Attribution.metric_view}, which is how [sm-trace expo] renders a
    recorded run without a live registry. *)

val text : unit -> string
(** Exposition of the live registry. *)

val write_file : string -> unit
(** {!text} to a fresh file (a node-exporter-style textfile drop). *)

(** {1 Periodic reporter} *)

type reporter

val start : ?period_s:float -> (string -> unit) -> reporter
(** Spawn a daemon thread that hands the current exposition to the callback
    every [period_s] (default 5s) until {!stop}.  Callback exceptions are
    swallowed.
    @raise Invalid_argument on a non-positive period. *)

val stop : reporter -> unit
(** Signal and join the reporter thread (returns within ~50ms). *)
