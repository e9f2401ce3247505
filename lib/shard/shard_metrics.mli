(** Per-shard live metrics: point-in-time snapshot rows built from
    {!Server}'s accounting accessors and the per-shard merge-latency
    histogram, rendered three ways — an [sm-top]-style text table
    ({!report}, what [sm-shard stats] prints), a hot-documents conflict
    table aggregated over shards, and a Prometheus text exposition
    ({!expo_text}) that extends the live {!Sm_obs.Metrics} registry with
    per-shard and {!Sm_sim.Netpipe} fault-plane counters.

    Snapshots read live servers; nothing here mutates them, so a report can
    be taken mid-run (between ticks) without perturbing determinism. *)

type row =
  { shard : int
  ; sessions : int
  ; cursor_lag : int  (** {!Server.max_cursor_lag} *)
  ; epochs : int
  ; edits : int
  ; replays : int  (** reply-cache hits *)
  ; rejects : int
  ; nacks : int
  ; delta_bytes : int
  ; snapshot_bytes : int
  ; merge_p50_ns : float option  (** [None] until the shard has merged with metrics on *)
  ; merge_p95_ns : float option
  }

val rows : Server.t list -> row list

val hot_docs : ?limit:int -> Server.t list -> Sm_obs.Doc_profile.t list
(** The conflict profiler's table: per-document profiles summed across
    shards (documents are sharded disjointly, so at most one shard
    contributes per document), hottest first
    ({!Sm_obs.Doc_profile.compare_hottest}), printed by
    {!Sm_obs.Doc_profile.pp}.  At most [limit] (default 10) rows. *)

val report : ?limit:int -> Server.t list -> string
(** The full text report: shard table, hot documents, fault-plane line. *)

val expo_text : Server.t list -> string
(** Prometheus exposition of the live registry plus per-shard rows
    ([sm_shard0_sessions], ...) and Netpipe counters ([sm_net_sends], ...). *)
