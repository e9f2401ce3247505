(** The wire protocol between the coordinator and its nodes.

    Everything that crosses a channel is one encoded {!down} or {!up} value;
    snapshots and journals are [(wire_id, bytes)] association lists whose
    payloads were themselves encoded by the registry's per-value codecs. *)

(** Length-prefixed, versioned frames.  Every message on a channel is
    [seal]ed before send and [open_]ed after receive, so the payload kind
    (control message, delta journal, snapshot) is distinguishable on the
    wire and a frame from an incompatible build is rejected with a clear
    {!Frame.Bad_frame} instead of a deep decode exception. *)
module Frame : sig
  exception Bad_frame of string
  (** Malformed header: wrong magic, unknown kind, or payload length
      disagreeing with the header. *)

  exception
    Unsupported_version of
      { got : int
      ; speaks : int
      }
  (** The frame's version is not {!version} — a peer from an incompatible
      build.  Typed separately from {!Bad_frame} so callers can distinguish
      "corrupt bytes" from "wrong build". *)

  type kind =
    | Control  (** coordinator/node protocol messages ({!down}/{!up}) *)
    | Delta  (** compacted operation-journal suffixes (shard sync) *)
    | Snapshot  (** full encoded states (shard fallback sync) *)

  val version : int
  (** The one frame version this build speaks and accepts (u16 on the
      wire).  Journal payloads use each type's packed binary codec. *)

  val kind_to_string : kind -> string

  val seal : ?ctx:Sm_obs.Trace_ctx.t -> kind -> string -> string
  (** Prefix [payload] with the header: magic ["SM"], u16 {!version}, kind
      byte, u32 payload length, then a u8 context length and the encoded
      context bytes — 0 and absent without [?ctx].
      @raise Invalid_argument on an oversized payload or context. *)

  val open_ : string -> kind * Sm_obs.Trace_ctx.t option * string
  (** Strip and validate the header, surfacing the trace context when the
      frame carries one.
      @raise Bad_frame as described above.
      @raise Unsupported_version on any version other than {!version}. *)
end

val seal_control : ?ctx:Sm_obs.Trace_ctx.t -> string -> string
(** [Frame.seal Control] — the coordinator/node link carries only control
    frames. *)

val open_control : string -> Sm_obs.Trace_ctx.t option * string
(** Unwrap a frame that must be {!Frame.Control}, surfacing its trace
    context.
    @raise Frame.Bad_frame on malformed frames or any other kind.
    @raise Frame.Unsupported_version on any version other than
    {!Frame.version}. *)

type entries = (int * string) list

type down =
  | Spawn of
      { uid : int  (** remote task id, unique per coordinator run *)
      ; task : string  (** registered task name *)
      ; argument : string
      ; snapshot : entries
      }
  | Reply of
      { uid : int
      ; granted : bool  (** false: the merge was refused (validation) *)
      ; snapshot : entries  (** fresh data either way, like [Runtime.sync] *)
      }
  | Stop

type up =
  | Sync_request of
      { uid : int
      ; journal : entries
      }
  | Task_completed of
      { uid : int
      ; journal : entries
      }
  | Task_failed of
      { uid : int
      ; reason : string
      }

val down_codec : down Sm_util.Codec.t

val up_codec : up Sm_util.Codec.t

val uid_of_up : up -> int

(** {1 Observability conventions}

    The [Sm_obs] task-id lanes used by the distributed layer, kept well away
    from local runtime task ids so mixed local/remote Chrome traces stay
    readable. *)

val obs_coordinator_tid : int
val obs_task_tid : int -> int
val obs_task_name : rank:int -> uid:int -> string
