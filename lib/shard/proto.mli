(** The shard service's client/server protocol.

    Sessions are {e stop-and-wait}: a client has at most one request in
    flight, retransmits it verbatim on a timeout, and the server answers
    each fresh request once — replaying the cached reply frame for any
    request number it has already served.  Together with cursor-based dedup
    on the client this yields exactly-once {e application} over the lossy
    {!Sm_sim.Netpipe} fault plane (drop, duplicate, delay, reorder).

    All messages travel as {!Sm_dist.Wire.Frame}s; server replies advertise
    their payload in the frame kind ([Delta]/[Snapshot]), so byte accounting
    and taps can classify traffic without decoding. *)

(** What a server reply carries to bring the client current. *)
type payload =
  | Delta of (int * int * int * string) list
      (** [(wire_id, from_rev, to_rev, ops_bytes)]: compacted journal
          suffixes ({!Sm_dist.Registry.encode_delta}) — never full states *)
  | Snap of Sm_dist.Wire.entries
      (** [(wire_id, rev, state_bytes)]: full encoded states, the fallback
          (and the baseline the delta/snapshot byte gate compares against) *)

(** The four client requests.  [Hello] opens a session; the other three
    name an existing one and pass the server's one session gate.  [Hello]
    and [Resume] are answered by a [Welcome], [Edit] (at the next epoch)
    and [Poll] (at once) by an [Ack].  There is no goodbye. *)
type c2s =
  | Hello of { client : string }  (** open a fresh session (cursors all 0) *)
  | Resume of
      { session : int
      ; req : int  (** per-session, strictly increasing across all requests *)
      ; cursors : (int * int) list
          (** last {e applied} revision per document — the server rolls its
              shipped-revision watermark back to this, however stale *)
      }  (** re-attach after a disconnect, on a brand-new connection *)
  | Edit of
      { session : int
      ; req : int  (** per-session, strictly increasing across all requests *)
      ; eid : int
          (** edit-batch id: stable across re-issues of the same local ops
              (a fresh [req] after a resume), so the server merges each
              batch exactly once *)
      ; ops : Sm_dist.Wire.entries
          (** [(wire_id, base, encoded op list)]: the client's compacted
              pending journal, each entry with the revision its ops were
              recorded against ({!Sm_dist.Registry.encode_journal}) *)
      }
  | Poll of
      { session : int
      ; req : int  (** per-session, strictly increasing across all requests *)
      }
      (** pull without pushing: answered immediately (outside the epoch) with
          whatever accumulated since the session's watermark — how an idle
          client catches up on epochs it did not participate in *)

type s2c =
  | Welcome of
      { session : int
      ; payload : payload
      }
  | Ack of
      { session : int
      ; req : int
      ; payload : payload  (** includes the sender's own transformed ops *)
      }
  | Nack of
      { session : int
      ; req : int
      ; reason : string
      }

val seal_c2s : ?ctx:Sm_obs.Trace_ctx.t -> c2s -> string
(** Seals a frame, optionally carrying the request's trace context. *)

val open_c2s : string -> Sm_obs.Trace_ctx.t option * c2s
(** Surfaces the frame's trace context — how a shard joins the client's
    request tree.
    @raise Sm_dist.Wire.Frame.Bad_frame / [Sm_util.Codec.Decode_error] *)

val seal_s2c : ?ctx:Sm_obs.Trace_ctx.t -> s2c -> string

val open_s2c : string -> Sm_obs.Trace_ctx.t option * s2c
(** Additionally checks the frame kind agrees with the payload.
    @raise Sm_dist.Wire.Frame.Bad_frame on disagreement. *)

val payload_bytes : payload -> int
(** Document bytes carried (op/state payloads, excluding message and frame
    overhead) — the delta-vs-snapshot accounting unit. *)
