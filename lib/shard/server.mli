(** One coordinator shard: the authoritative workspace for the documents the
    {!Router} assigns it, served to sessions over {!Sm_sim.Netpipe}.

    The server is a {e poll-driven state machine}, not a thread-per-client
    accept loop: the owner calls {!tick} repeatedly and each tick accepts
    pending connections, drains every connection's frames in accept order,
    and — every [epoch_ticks] ticks — runs one {e epoch}: the buffered edit
    batches are merged in one pass, in session-creation order, each reply
    carrying a delta (or snapshot) that brings its client current.  Driving
    N shards and thousands of simulated clients from a single thread makes
    a whole run a pure function of the seed, which is what the determinism
    acceptance gate (same seed ⇒ byte-identical shard digests) needs even
    under Netpipe's fault plane.

    Reliability: the server answers each request number once and caches the
    sealed reply frame, replaying it verbatim for duplicate requests; edit
    batches are deduplicated by [eid] so a batch re-issued after a session
    resume merges exactly once (see {!Proto}). *)

type t

type mode =
  [ `Delta  (** replies ship compacted journal suffixes *)
  | `Snapshot  (** replies ship full states — the byte-accounting baseline *)
  ]

val create :
  reg:Sm_dist.Registry.t ->
  shard_id:int ->
  mode:mode ->
  epoch_ticks:int ->
  init:(Sm_mergeable.Workspace.t -> unit) ->
  t
(** A shard serving the documents [init] binds into its workspace.  [init]
    must be the same function clients use to seed their replicas (rev-0
    states must agree).  @raise Invalid_argument if [epoch_ticks <= 0]. *)

val listener : t -> Sm_sim.Netpipe.listener
val tick : t -> unit

val workspace : t -> Sm_mergeable.Workspace.t
(** The authoritative workspace (read-only use: digests, assertions). *)

val digest : t -> string

val idle : t -> bool
(** No edits buffered for the next epoch. *)

val delta_bytes_sent : t -> int
(** Document payload bytes shipped in delta replies so far. *)

val snapshot_bytes_sent : t -> int

val epochs_run : t -> int
val edits_merged : t -> int
val session_count : t -> int

val shard_id : t -> int

val replayed_replies : t -> int
(** Reply-cache hits: duplicate requests answered by resending the cached
    frame (the fault plane's dup/reorder signature). *)

val rejected_frames : t -> int
(** Undecodable or version-incompatible frames dropped. *)

val nacks_sent : t -> int

val max_cursor_lag : t -> int
(** The worst catch-up debt any live session carries: head revisions not
    yet shipped to it, summed across documents. *)

val merge_histogram : t -> Sm_obs.Metrics.histogram
(** The shard's merge latency, [shard<k>.merge_ns]: one observation per
    merged edit batch while {!Sm_obs.Metrics} is enabled. *)

val doc_profiles : t -> Sm_obs.Doc_profile.t list
(** The shard's per-document conflict profile, hottest first — the live
    feed of the conflict profiler ([sm-shard stats] hot-documents table).
    Transform/compaction counts are only recorded while {!Sm_obs.Metrics}
    is enabled. *)

val recorder : t -> Sm_obs.Flight_recorder.t
(** The shard's flight ring (registered as [shard<k>]); every served
    request, epoch bracket, rejection and nack is recorded here regardless
    of sink verbosity. *)
