(** The coordinator: the distributed counterpart of {!Sm_core.Runtime}.

    The coordinator owns the authoritative workspace.  [spawn] ships a
    snapshot and a registered task name to a node; the merge family is the
    same as the local runtime's, except children live on remote ranks and
    their journals arrive as messages:

    - {!merge_all} processes each live remote task's {e next} event in
      creation order — deterministic, whatever order the messages landed in
      (early arrivals are buffered per task).
    - {!merge_any} processes whichever event arrives first — explicitly
      non-deterministic, as in the paper.
    - a sync request is merged via OT against the coordinator's operations
      since that task's base, then answered with a fresh snapshot;
      completions retire the task; failures discard its journal.

    Determinism carries over: a program using only [merge_all] computes the
    same workspace digest regardless of node count, message timing, or how
    tasks are placed — asserted by the test suite. *)

type cluster

(** Message-timing chaos for the upstream (node → coordinator) channel.

    A seeded relay that randomly {e holds} a remote task's messages and
    releases them later, preserving each task's own message order — the
    channel equivalent of permuting task completion order.  Because
    deterministic merges buffer early arrivals per task and process them in
    creation order, a [merge_all]-only program must digest identically with
    chaos on or off, at any hold probability: that is the property the
    fuzzer's distributed target asserts.  (Lossy faults — drop, duplicate —
    would violate the reliable-channel assumption the wire protocol is
    built on and are exercised at the {!Sm_sim.Netpipe} layer instead.) *)
module Chaos : sig
  type t

  val make : ?hold_prob:float -> ?max_hold:int -> seed:int64 -> unit -> t
  (** [hold_prob] (default 0.25) is the per-message probability of being
      held; a held task releases after 1..[max_hold] (default 4) relay
      ticks.  @raise Invalid_argument on a probability outside [\[0, 1\]] or
      [max_hold < 1]. *)
end

val cluster : ?nodes:int -> ?chaos:Chaos.t -> Registry.t -> cluster
(** Launch [nodes] (default 2) worker nodes.  The cluster may serve many
    {!run}s before {!shutdown}.  With [chaos], upstream messages pass
    through the chaos relay. *)

val shutdown : cluster -> unit
(** Stop every node and join their domains.  All runs must have finished. *)

type ctx

type rtask
(** A handle to a remote child task. *)

exception Remote_failure of string
(** Raised by merges when decoding a corrupt journal or frame (protocol
    bug, or a peer from another build), never for ordinary task failures —
    those are reported via {!failure}. *)

val decode_up : string -> Wire.up
(** Open and decode one upstream frame, as merges do.
    @raise Remote_failure on a malformed frame, an unsupported frame version
    or an undecodable message. *)

val run : cluster -> (ctx -> 'a) -> 'a
(** Run a coordinator program.  Remaining remote tasks are merged to
    completion when the body returns (implicit MergeAll loop). *)

val workspace : ctx -> Sm_mergeable.Workspace.t
(** The authoritative data.  Initialize every registered value here before
    the first {!spawn}. *)

val spawn : ctx -> ?node:int -> string -> argument:string -> rtask
(** [spawn ctx task_name ~argument] starts a registered task on a node
    (round-robin placement unless [node] is given) with a snapshot of the
    current workspace.
    @raise Invalid_argument on an unknown node index. *)

val merge_all : ?validate:(Sm_mergeable.Workspace.t -> bool) -> ctx -> unit
(** Process one event (sync or completion) from {e every} live remote task,
    in creation order.  [validate] judges the {e would-be post-merge}
    workspace (a trial clone); refusal discards the journal and answers the
    task's sync with [`Refused]. *)

val merge_any : ?validate:(Sm_mergeable.Workspace.t -> bool) -> ctx -> rtask option
(** Process the next event from whichever task produces one first; [None]
    when no remote tasks are live. *)

val live_tasks : ctx -> int

val failure : rtask -> string option
(** Why the task failed, if it did. *)

val rank_of : rtask -> int
(** The node the task was placed on. *)
