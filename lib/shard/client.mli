(** A document replica holding a session with one shard.

    The client keeps two workspaces: [shadow] — the server's state as of the
    last applied reply — and [view] — a clone of the shadow at its head plus
    local operations not yet acknowledged, so the view's journal is the
    pending batch.  An editor mutates the view ({!edit}); {!flush} ships
    that journal with the revisions it was recorded against; the Ack's
    delta (which includes the client's own transformed operations) advances
    the shadow, and the view is re-cloned from it.

    Like {!Server}, the client is tick-driven and single-threaded: {!tick}
    drains replies, re-issues an interrupted batch after a resume, and
    retransmits the in-flight request frame on a timeout.  Sessions are
    stop-and-wait — at most one request is outstanding — which is what makes
    replies applicable at most once and in order (see {!Proto}).

    Crash recovery: {!disconnect} abandons the connection mid-flight;
    {!resume} reconnects with the stale cursors, the server re-ships
    everything after them, and the interrupted batch is re-issued under its
    original [eid] so it merges exactly once whether or not the original
    request survived. *)

type t

val connect :
  reg:Sm_dist.Registry.t ->
  name:string ->
  ?obs_tid:int ->
  ?parent:Sm_obs.Trace_ctx.t ->
  init:(Sm_mergeable.Workspace.t -> unit) ->
  Sm_sim.Netpipe.listener ->
  t
(** Open a session: seeds the local replica with [init] (which must match
    the server's — revision-0 states agree by construction) and sends
    [Hello].

    [obs_tid] is the client's trace lane (default {!obs_client_tid}[ 0]).
    [parent], when given, is the user action this session serves: every
    request context nests under it, so sessions on {e different} shards
    sharing one parent stitch into a single request tree.  When tracing is
    off no contexts are minted and every frame's context slot stays
    empty. *)

val obs_client_tid : int -> int
(** The trace lane for editor [i] — parked above the distributed layer's
    and the shard servers' lanes. *)

val tick : t -> unit
val view : t -> Sm_mergeable.Workspace.t

val edit : t -> (Sm_mergeable.Workspace.t -> unit) -> unit
(** Apply an editing function to the view.
    @raise Invalid_argument while a flushed batch is unacknowledged (its
    [eid] is fixed; adding operations to it could lose them to the server's
    exactly-once dedup). *)

val flush : t -> unit
(** Ship pending operations as one edit batch, if {!ready} and there are
    any. *)

val poll : t -> unit
(** Ask the shard for everything since this replica's cursors without
    shipping anything — how an idle client catches up on epochs it sent no
    edits into.  A no-op unless {!ready} with zero pending operations
    ({!flush} covers the other case: its ack carries the same delta). *)

val ready : t -> bool
(** Connected, nothing outstanding, no batch awaiting ack. *)

val synced : t -> bool
(** {!ready} and no pending local operations: the view equals the server
    state as of the last reply. *)

val disconnect : t -> unit
(** Abandon the connection like a crash — no goodbye, in-flight request and
    all; the session survives on the server for {!resume}. *)

val resume : t -> Sm_sim.Netpipe.listener -> unit
(** Reconnect and re-attach to the session with the last applied cursors
    (falls back to a fresh [Hello] when no session was established yet). *)

val connected : t -> bool

val failed : t -> string option
(** Set on a [Nack] or an undecodable reply; the client stops acting. *)

val retransmits : t -> int
val resumes : t -> int
