(** The network fault target: fuzz {!Sm_sim.Netpipe} under its own fault
    plane and check message conservation.

    A seeded scenario opens a listener, runs a server thread that drains
    every accepted connection, and drives a few client connections through
    sends, early closes (to exercise the closed-connection drop path and its
    {!Sm_sim.Netpipe.on_dropped_send} hook), and a final drain.  With faults
    installed the checks are conservation laws over
    {!Sm_sim.Netpipe.stats} — delivery accounting must balance exactly even
    under drop/dup/delay/reorder — plus determinism of the fault decisions
    themselves (same seed, same stats).  Without faults the check sharpens
    to exact FIFO delivery. *)

type spec =
  { drop : float
  ; dup : float
  ; delay : float
  ; reorder : float
  }

val no_faults : spec
val default_faults : spec  (** 5% drop, 5% dup, 10% delay, 10% reorder *)

val check : ?faults:spec -> seed:int64 -> unit -> (string, string) result
(** Run the scenario once; [Ok digest] summarizes everything observed
    (received messages per connection + final stats), [Error detail] names
    the violated conservation law.  The digest is a pure function of [seed]
    and [faults] — {!target} asserts that by running twice. *)

val target : Target.t
(** Each seed runs {!check} twice without faults and twice under
    {!default_faults}.  Oracles: ["conservation"] (a law above broke) and
    ["determinism"] (the two runs' digests differ). *)
