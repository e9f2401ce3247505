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

  val journal_codec : op list Sm_util.Codec.t
  (** The type's packed whole-journal encoding — what every journal and
      delta frame carries.  Types with no denser form than a tagged op list
      use [Sm_util.Codec.list] over a per-op codec; {!Codable.Text} ships a
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

val encode_snapshot : t -> Sm_mergeable.Workspace.t -> Wire.entries
(** [(wire_id, revision, state_bytes)] for every registered-and-bound value. *)

val build_workspace : t -> Wire.entries -> Sm_mergeable.Workspace.t
(** Reconstruct a workspace from an encoded snapshot, each value at its
    entry's revision.
    @raise Sm_util.Codec.Decode_error / [Invalid_argument] on unknown ids. *)

val encode_journal : t -> Sm_mergeable.Workspace.t -> Wire.entries
(** [(wire_id, base, ops_bytes)] for every bound value with pending
    operations: the journal {e compacted} like {!encode_delta}'s suffixes
    (apply-equivalent to the raw journal, usually shorter) and the revision
    it starts at, [version_of - length journal] (a {!Node}'s workspace and a
    shard client's view never truncate).  One encoding serves a {!Node}'s
    journal upload and a shard client's pending batch. *)

(** {1 Revisions and delta sync (used by {!Coordinator} and {!Sm_shard})}

    Remote merges and shard sync address values by per-wire-id integer
    revisions (a value's revision is its
    {!Sm_mergeable.Workspace.version_of}, on replicas too): remote tasks and
    clients only ever see wire ids. *)

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
  t -> into:Sm_mergeable.Workspace.t -> (int * int * int * string) list -> unit
(** Replay delta entries onto a replica at the revisions it holds, landing
    each applied value at its entry's [to_rev].  Entries with [to_rev] at or
    below the replica's revision are duplicates and are skipped; an entry
    starting past it is a protocol-level gap ([Invalid_argument]) —
    stop-and-wait sessions never produce one. *)

val decode_edit :
  t ->
  Sm_mergeable.Workspace.t ->
  Wire.entries ->
  (int * (Sm_mergeable.Workspace.t -> int)) list
(** Check remote journal entries against [ws] — each names a value [ws]
    holds, its base lies in [0 .. version_of], and its bytes decode — and
    return per entry its wire id and the merge of its decoded operations
    into [ws] (or a clone of it), which returns their count.  A shard checks
    an edit this way at intake and merges it at its epoch.
    @raise Invalid_argument / [Sm_util.Codec.Decode_error] on the first
    entry that fails. *)

val merge_edit : t -> into:Sm_mergeable.Workspace.t -> Wire.entries -> unit
(** {!decode_edit} against [into], then OT-merge each entry into it against
    its own base — the distributed counterpart of
    {!Sm_mergeable.Workspace.merge_child}, for a remote task's journal. *)

val find_task : t -> string -> ctx -> unit
(** @raise Not_found for unregistered task names. *)

val make_ctx :
  ws:Sm_mergeable.Workspace.t ref ->
  do_sync:(unit -> [ `Granted | `Refused ]) ->
  rank:int ->
  argument:string ->
  ctx
(** Used by {!Node} to run task bodies. *)
