(** The shared vocabulary of a distributed Spawn/Merge system: which
    mergeable values exist and which task bodies can be spawned remotely.

    The paper's Section VI names "apply the concept of Spawn and Merge to
    distributed computing by using MPI" as future work; this library builds
    that system over simulated ranks (one domain per node, byte-only
    channels).  Like MPI programs, both sides run the same code: a registry
    is constructed identically on the coordinator and on every node, so a
    value or task is identified on the wire by its registration index alone.
    Closures never cross the wire — only registered task {e names}, string
    arguments, encoded states and encoded operation journals.

    Registration order matters (it defines wire ids): build the registry in
    one place, at module level. *)

type t

type ('s, 'o) rkey
(** A registered mergeable value: a {!Sm_mergeable.Workspace.key} plus
    codecs and a wire id. *)

(** A mergeable type that can cross the wire. *)
module type CODABLE_DATA = sig
  include Sm_mergeable.Data.S

  val state_codec : state Sm_util.Codec.t
  val op_codec : op Sm_util.Codec.t

  val journal_codec : op list Sm_util.Codec.t
  (** The type's packed whole-journal encoding — what every journal and
      delta frame carries.  Types with no denser form than a tagged op list
      use [Sm_util.Codec.list op_codec]; {!Codable.Text} ships a
      varint/delta form. *)
end

val create : unit -> t

val value :
  t ->
  name:string ->
  (module CODABLE_DATA with type state = 's and type op = 'o) ->
  ('s, 'o) rkey
(** Register a mergeable value.  Its wire id is the registration index. *)

val workspace_key : ('s, 'o) rkey -> ('s, 'o) Sm_mergeable.Workspace.key
(** The underlying workspace key — use it to initialize the coordinator's
    workspace and to read results. *)

val wire_name : t -> int -> string
(** The registration name behind a wire id — what the conflict profiler
    prints for a document.
    @raise Invalid_argument on an unknown id. *)

(** {1 Task bodies (run on nodes)} *)

type ctx
(** What a remote task sees: its private workspace, its rank, its spawn
    argument, and [sync]. *)

val read : ctx -> ('s, 'o) rkey -> 's

val update : ctx -> ('s, 'o) rkey -> 'o -> unit

val sync : ctx -> [ `Granted | `Refused ]
(** Ship the journal to the coordinator, block for the merge, continue on a
    fresh snapshot (either way). *)

val rank : ctx -> int
(** The node this task runs on. *)

val argument : ctx -> string

val task : t -> name:string -> (ctx -> unit) -> string
(** Register a task body under [name]; returns [name] for symmetry.
    @raise Invalid_argument on duplicate names. *)

(** {1 Internal plumbing (used by {!Node} and {!Coordinator})} *)

val encode_snapshot : t -> Sm_mergeable.Workspace.t -> (int * string) list
(** Encoded state of every registered-and-bound value, by wire id. *)

val build_workspace : t -> (int * string) list -> Sm_mergeable.Workspace.t
(** Reconstruct a workspace from an encoded snapshot.
    @raise Sm_util.Codec.Decode_error / [Invalid_argument] on unknown ids. *)

val encode_journal : t -> Sm_mergeable.Workspace.t -> (int * string) list
(** Encoded operation journal of every bound value with pending operations. *)

val merge_journal :
  t ->
  into:Sm_mergeable.Workspace.t ->
  base:Sm_mergeable.Workspace.Versions.t ->
  (int * string) list ->
  unit
(** Decode a remote journal and OT-merge it into [into] against [base] —
    the distributed counterpart of {!Sm_mergeable.Workspace.merge_child}. *)

(** {1 Delta sync (used by {!Sm_shard})}

    Shard sync addresses values by per-wire-id integer revisions (a value's
    revision is its {!Sm_mergeable.Workspace.version_of}), not by the
    workspace-keyed {!Sm_mergeable.Workspace.Versions.t} the coordinator
    protocol uses — clients only ever see wire ids. *)

val revisions : t -> Sm_mergeable.Workspace.t -> (int * int) list
(** [(wire_id, revision)] for every registered-and-bound value. *)

val encode_delta :
  ?memo:(int * int * int, string) Hashtbl.t ->
  t ->
  Sm_mergeable.Workspace.t ->
  since:(int -> int) ->
  (int * int * int * string) list
(** [(wire_id, from_rev, to_rev, ops_bytes)] for every bound value that has
    operations after [since wire_id]; the shipped ops are the {e compacted}
    journal suffix (apply-equivalent to the raw slice, usually shorter).
    [memo] caches encoded suffixes by [(wire_id, from_rev, to_rev)] — within
    one epoch a shard answers many sessions whose cursors sit at the same
    boundary, and the suffix only depends on the revision window, so the
    caller may share a table across replies and invalidate it when the
    workspace advances (keys embed [to_rev], so staleness is impossible —
    the table is cleared only to bound its size).
    @raise Invalid_argument when [since] predates a truncation point — the
    caller must fall back to a snapshot. *)

val apply_delta :
  t ->
  into:Sm_mergeable.Workspace.t ->
  cursor:(int -> int) ->
  (int * int * int * string) list ->
  unit
(** Replay delta entries onto a replica that has seen [cursor wire_id]
    revisions of each value.  Entries with [to_rev <= cursor] are duplicates
    and are skipped; an entry starting past the cursor is a protocol-level
    gap ([Invalid_argument]) — stop-and-wait sessions never produce one.
    The caller advances its cursors to each applied entry's [to_rev]. *)

val merge_edit :
  t ->
  into:Sm_mergeable.Workspace.t ->
  base_rev:(int -> int) ->
  (int * string) list ->
  int
(** OT-merge a client's pending operations, recorded against revision
    [base_rev wire_id] of each value, into the shard's authoritative
    workspace — {!merge_journal} with integer bases.  Returns the number of
    operations merged (summed across entries), which the shard's conflict
    profiler attributes per document by calling this entry-by-entry. *)

val find_task : t -> string -> ctx -> unit
(** @raise Not_found for unregistered task names. *)

val make_ctx :
  ws:Sm_mergeable.Workspace.t ref ->
  do_sync:(unit -> [ `Granted | `Refused ]) ->
  rank:int ->
  argument:string ->
  ctx
(** Used by {!Node} to run task bodies. *)
