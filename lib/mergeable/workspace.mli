(** Task workspaces: named collections of mergeable values with operation
    journals — the data side of Spawn and Merge.

    Every task owns one workspace.  [Spawn] hands the child a {!copy} (fresh
    journals, shared persistent states) together with the parent's version
    {!snapshot}; while running, tasks mutate {e only their own} workspace
    through {!update}, which both applies the operation and records it in the
    value's journal.  [Merge] then calls {!merge_child}: each child journal is
    transformed (operational transformation, {!Sm_ot.Side.serialization}
    policy) against whatever the parent applied since the child's base
    version, and appended to the parent.  [Sync] re-bases the child with
    {!rebase_from}.

    Workspaces are deliberately {b not} thread-safe: the Spawn/Merge runtime
    guarantees each workspace is touched by one thread at a time (its owning
    task, or the parent during a merge while the child is parked), which is
    precisely how the paper's model eliminates data races — tasks never share
    mutable state, so there is nothing to lock.

    {2 Representation: persistent snapshots + journals (copy-on-write)}

    Each bound value is a {e cell}: an immutable state snapshot plus the
    journal of operations recorded since the cell was created or rebased.
    The snapshot materializes the value only up to an internal [applied]
    watermark; {!merge_child}/{!merge_ops} append transformed operations to
    the journal {e without} touching the snapshot, and the suffix is folded
    in lazily at the next observation ({!read}, {!update}, {!digest},
    {!equal}, {!pp}, or any share point below).  Interior tasks of a deep
    spawn tree therefore never pay an apply for operations merely flowing
    through them.

    Because states are persistent OCaml values, the share points —
    {!copy} (spawn), {!clone_full}, {!clone_trimmed}, {!rebase_from} —
    alias the parent's snapshots instead of copying them: sharing a
    workspace is O(cells), independent of state size, and the "copy" of
    copy-on-write is the O(1) pointer swap the next {!update} performs.
    The process-global counter [ws.cow_hits] (first write to a
    still-shared snapshot) makes this observable. *)

type t

type ('s, 'o) key
(** A typed name for a mergeable value of state ['s] and operation ['o].
    Keys are global (create them at module level) and identity-based: the
    same key addresses "the same" value in a parent's and a child's
    workspace. *)

exception Unbound_key of string
(** Raised when reading or updating a key the workspace does not hold. *)

exception Already_bound of string
(** Raised by {!init} when the key is already bound, and by {!merge_child}
    when parent and child independently initialized the same key. *)

module Versions : sig
  type t
  (** Per-key journal positions — "how much of each value's history I have
      seen".  A child's {e base} is the parent's snapshot at spawn/sync
      time. *)

  val empty : t
  val pp : Format.formatter -> t -> unit
end

val version_in : Versions.t -> _ key -> int
(** The recorded version for a key ([0] when absent). *)

val create_key :
  (module Data.S with type state = 's and type op = 'o) -> name:string -> ('s, 'o) key
(** Mint a key for a mergeable type.  [name] is diagnostic. *)

val key_name : _ key -> string

val create : unit -> t
(** An empty workspace. *)

val init : t -> ('s, 'o) key -> 's -> unit
(** Bind a key to an initial state with an empty journal.  Initialization is
    not an operation: it does not journal and cannot be merged — initialize
    in the root task (or before spawning) and let children receive copies. *)

val mem : t -> _ key -> bool

val read : t -> ('s, 'o) key -> 's

val update : t -> ('s, 'o) key -> 'o -> unit
(** Apply an operation to the value and journal it.  All mutation of
    mergeable values must go through here — states themselves are
    persistent. *)

val update_trimming : t -> ('s, 'o) key -> 'o -> unit
(** Like {!update}, but trim the journal at the new head instead of
    retaining the operation: the version still advances, and
    {!journal_since} afterwards answers only from the new head.  For
    replicas applying remote operations they will never re-ship —
    journalling those would grow every replica with the full history. *)

val version_of : t -> _ key -> int
(** Total operations ever applied to this value in this workspace. *)

val journal : t -> ('s, 'o) key -> 'o list
(** The value's recorded operations (since creation, rebase, or the last
    truncation point) — what a merge would transmit. *)

val journal_since : t -> ('s, 'o) key -> version:int -> 'o list
(** The value's operations after [version] — the delta a replica that has
    seen [version] operations still needs.  [\[\]] when the replica is
    current ([version >= version_of]).
    @raise Invalid_argument if [version] predates the truncation point
    ({!truncate}) — the suffix is no longer available and the caller must
    fall back to a snapshot. *)

val key_names : t -> string list
(** Names of bound keys, in deterministic (creation-id) order. *)

val snapshot : t -> Versions.t
(** Current version of every bound key. *)

val op_count : t -> int
(** Total journalled (not yet truncated) operations across every bound key —
    what a merge of this workspace would transmit.  O(bindings). *)

val cell_count : t -> int
(** Number of bound keys — the [O(cells)] in "spawn is O(cells)". *)

val copy : t -> t
(** Child copy: same bindings and states, empty journals.  O(bindings) —
    the persistent states are shared, not deep-copied, so "copying" a
    workspace is cheap and copy-on-write comes for free (the paper's
    future-work optimization falls out of persistent data structures). *)

val merge_child : parent:t -> child:t -> base:Versions.t -> unit
(** Merge a child's journals into the parent.  [base] must be the parent
    snapshot taken when the child's journals were last empty (spawn or
    sync).  For each key bound in both: compact the child's journal (when
    {!compaction_enabled}), transform it against the parent's operations
    since [base] and journal the result in the parent (the parent's state
    catches up lazily at its next observation).  Keys the
    child initialized itself are installed in the parent ({!Already_bound}
    if the parent initialized them too); keys the parent gained since spawn
    are untouched.  Deterministic given [base] and both journals. *)

val set_compaction : bool -> unit
(** Toggle journal compaction inside {!merge_child}/{!merge_ops} (process
    global, default on).  Compaction rewrites each child journal to an
    apply-equivalent normal form before transformation, so merged states and
    digests are identical either way.  The uncompacted merge is the
    reference side of sm-check's compaction, merge-order and nested
    properties. *)

val compaction_enabled : unit -> bool
(** Current {!set_compaction} setting. *)

val cow_hits : Sm_obs.Metrics.counter
(** [ws.cow_hits] — cells whose snapshot pointer diverged from a base
    shared at a share point (the copy-on-first-write event; with
    persistent states the "copy" is an O(1) pointer swap, never a byte
    copy).  Counted at most once per cell per sharing window. *)

val clone_full : t -> t
(** A complete clone: states, journals and truncation offsets.  Unlike
    {!copy} (which starts a child at an empty journal), the clone carries
    the full history, so version bases recorded against the original remain
    meaningful — the substrate for transactional trial merges. *)

val clone_trimmed : t -> t
(** Like {!clone_full} with the journal truncated at the head: states are
    shared (persistent), versions are preserved, and the journal starts
    empty at the current version — O(values) regardless of history length.
    The clone answers {!journal_since} only from the cloning point onward;
    use it when past operations are not needed, e.g. for a replica's working
    view whose pending-op suffix is all that is ever read back. *)

val adopt : t -> from:t -> unit
(** Replace this workspace's bindings with [from]'s (shared, not copied):
    commit a trial {!clone_full} back.  [from] must not be used
    afterwards. *)

val merge_ops : t -> ('s, 'o) key -> ops:'o list -> base_version:int -> unit
(** Low-level single-value merge: transform [ops] — a concurrent journal
    recorded against this value's state as of [base_version] — over
    everything applied since, then journal the result (applied lazily at
    the next observation).  This is
    what {!merge_child} does per key; exposed for the distributed runtime,
    which receives child journals as decoded messages rather than whole
    workspaces.
    @raise Unbound_key / [Invalid_argument] as {!merge_child}. *)

val rebase_from : t -> parent:t -> unit
(** Make the child's bindings fresh copies of the parent's (states shared,
    journals empty) — the data half of [Sync].  The caller should then take
    a new parent {!snapshot} as the child's base. *)

val is_pristine : t -> bool
(** True when every journal is empty — the workspace holds no unmerged local
    operations.  [Clone] requires a pristine cloner so the sibling's base is
    meaningful. *)

val truncate : t -> keep:Versions.t -> unit
(** Drop journal prefixes older than [keep] (the minimum base of any live
    child, as computed by the runtime), bounding memory on long-running
    tasks.  Merging a child whose base predates the truncation point raises
    [Invalid_argument]. *)

val truncate_to_min : t -> bases:Versions.t list -> unit
(** Truncate each journal to the oldest position any of [bases] still needs;
    keys absent from every base truncate fully.  The runtime calls this after
    merges with the bases of the remaining live children. *)

val digest : t -> string
(** Order-insensitive-to-nothing: a deterministic hex digest of every bound
    value's type, name and pretty-printed state, in key order.  Two runs of
    a deterministic program must produce equal digests — the determinism
    oracle's observable. *)

val ws_uid : t -> int
(** Process-unique workspace identity (survives {!adopt}); what
    {!Sanitizer_hook} events carry as [ws_id].  Diagnostic only — not stable
    across runs. *)

(** Observation points for the determinism sanitizer ({!Sm_check.Detsan}).
    Mirrors the {!Sm_obs} gating discipline: when nothing is installed each
    site costs one load and branch.  At most one listener at a time; the
    workspace itself attaches no meaning to the events. *)
module Sanitizer_hook : sig
  type event =
    | Key_created of { key : string }
        (** {!create_key} minted a key (hazardous mid-run, see {!Detcheck}) *)
    | Updated of { ws_id : int; key : string }  (** {!update} journalled an operation *)
    | Digested of { ws_id : int }  (** {!digest} observed this workspace *)

  val install : (event -> unit) -> unit
  val uninstall : unit -> unit

  val active : unit -> bool
  (** A listener is installed (e.g. asserting hook hygiene in tests). *)
end

val equal : t -> t -> bool
(** Same keys bound, and all states equal per their [Data.S.equal_state]. *)

val pp : Format.formatter -> t -> unit
