(** The one shape every fuzz target has: a name and a seed-to-verdict check.

    Each target checks the paper's central claim — a Spawn/Merge program
    gives the same result however it is scheduled — on its own substrate:
    generated spawn trees ({!Fuzzer.target}), the Netpipe fault plane
    ({!Net_target}), the distributed coordinator ({!Dist_target}) and the
    shard fleet ({!Shard_target}).  A check is a pure function of its seed;
    a failure arrives with its replayable report, already shrunk where the
    target shrinks (spawn programs, shard scenarios). *)

type failure =
  { oracle : string  (** which law broke, e.g. ["differential"], ["convergence"] *)
  ; detail : string  (** one line of evidence *)
  ; expected : bool
    (** a [--mutate] run expected it: the differential oracle caught the
        seeded transform bug *)
  ; report : string  (** the replayable report text *)
  ; flight : (string * string list) list
    (** flight-recorder post-mortem, per lane: structural JSONL dump lines
        (empty for targets without recorders) *)
  }

type t =
  { name : string  (** the target and its configuration, for summaries *)
  ; check : seed:int64 -> (unit, failure) result
  }

val sweep :
  ?on_failure:(int64 -> failure -> unit) ->
  t ->
  seed_base:int64 ->
  seeds:int ->
  (int64 * failure) list
(** Check seeds [seed_base .. seed_base + seeds - 1] in order, sequentially
    (targets share process-global state: executors, Netpipe stats, flight
    rings), and return the failing seeds in seed order.  [on_failure] sees
    each failure as it happens. *)

val exit_code : failure list -> int
(** The fuzzer's exit rule: 0 when there are no failures, 3 when every
    failure is [expected], 1 otherwise. *)

val fail :
  target:string ->
  seed:int64 ->
  oracle:string ->
  ?fields:(string * string) list ->
  ?flight:(string * string list) list ->
  string ->
  failure
(** [fail ~target ~seed ~oracle detail] is the unexpected failure of a
    target whose seed alone reproduces it.  Its report is a header, the
    seed, the [fields] as [name: value] lines, the oracle, the detail, and
    the [sm-fuzz run] command that replays the seed. *)
