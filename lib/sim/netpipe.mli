(** An in-process TCP stand-in for the server-software example (Listing 3).

    The paper's server accepts TCP connections; the sealed build environment
    has no network, so this module provides the same blocking surface —
    [accept], [recv], [send], [close] — over thread-safe in-memory pipes.
    It exercises exactly the code paths the example needs: a blocking accept
    loop (the [Clone] pattern) and per-connection blocking reads (tasks that
    outlive many requests via [Sync]).

    The module doubles as the fuzzer's network fault plane: an installable
    {!Faults} policy perturbs deliveries (drop, duplicate, delay, reorder)
    deterministically from a seed, and {!stats} / {!on_dropped_send} make
    the otherwise silent loss paths observable. *)

type listener
(** A listening endpoint clients connect to. *)

type conn
(** One endpoint of an established bidirectional connection. *)

val listen : unit -> listener

val connect : listener -> conn
(** Client side: establish a connection; returns the client endpoint.
    @raise Invalid_argument if the listener is shut down. *)

val accept : listener -> conn option
(** Server side: block until a client connects; [None] after
    {!shutdown}. *)

val try_accept : listener -> conn option
(** Non-blocking {!accept}: [None] when no connection is waiting.  The
    polling surface the single-threaded shard service is built on. *)

val send : conn -> string -> unit
(** Never blocks (unbounded pipe).  Sending on a closed connection is a
    silent no-op, like writing to a socket the peer already closed — the
    reader is gone either way.  Silent for the {e sender}, that is: the drop
    still counts in {!stats} and fires {!on_dropped_send}, so a fault plane
    (or a test) can observe what the application cannot.  That holds with a
    {!Faults} policy installed too: a send on a closed connection never
    consumes a fault decision — it is exactly one [dropped_closed] and one
    hook call, whatever the policy would have said. *)

val recv : conn -> string option
(** Block until a message arrives; [None] once the peer closed and the pipe
    drained. *)

val try_recv : conn -> string option
(** Non-blocking {!recv}: [None] when nothing is currently queued. *)

val close : conn -> unit
(** Close both directions; idempotent.  Messages still held by the fault
    plane ({!Faults}) are flushed in order first — delay never turns into
    loss, only {e drop} loses messages. *)

val shutdown : listener -> unit
(** Stop accepting: blocked and future {!accept}s return [None]. *)

(** {1 Fault injection}

    A seeded, probabilistic perturbation of {!send}.  Decisions are drawn
    from a {!Sm_util.Det_rng} stream in send order, so a single-sender
    connection replays byte-identically from the same seed — what lets the
    fuzzer assert digest determinism {e under} faults.

    - {b drop}: the message vanishes (the only lossy fault).
    - {b dup}: the message is delivered twice.
    - {b delay}: the message is held across the next 1–3 sends on the same
      connection, then delivered (held messages keep their relative order).
    - {b reorder}: held across exactly one send — adjacent swap. *)
module Faults : sig
  type t

  val make :
    ?drop:float -> ?dup:float -> ?delay:float -> ?reorder:float -> seed:int64 -> unit -> t
  (** Per-send probabilities, each in [\[0, 1\]] (defaults 0); their sum must
      not exceed 1.  @raise Invalid_argument otherwise. *)
end

val set_faults : Faults.t option -> unit
(** Install (or clear) the process-global fault plane.  Affects every
    connection; the default is [None] — zero-cost pass-through. *)

(** {1 Observability} *)

type stats =
  { sends : int  (** {!send} calls *)
  ; delivered : int  (** messages actually enqueued (dups count twice) *)
  ; dropped_closed : int  (** sends on a closed connection *)
  ; dropped_fault : int  (** sends eaten by the fault plane *)
  ; duplicated : int
  ; delayed : int
  ; reordered : int
  }

val stats : unit -> stats
(** Process-global counters since the last {!reset_stats}. *)

val reset_stats : unit -> unit

val on_dropped_send : (string -> unit) option -> unit
(** Hook called with the payload whenever a send is dropped because the
    connection is closed (never for fault-plane drops).  Default [None].
    The callback runs on the sending thread; keep it cheap and thread-safe. *)
