(** The shard-service fuzz target: seeded editor fleets under chaos, with
    an all-replica digest-convergence oracle.

    A seed denotes a scenario (shard count, fleet size, session length,
    epoch width, Netpipe fault level, crash/resume chaos); the scenario runs
    on {!Sm_shard.Load} over a pre-minted document set and must satisfy, in
    order: ["convergence"] (every client view digest equals its shard's
    authoritative digest), ["detsan"] (no determinism hazards),
    ["reproducibility"] (identical digests and tick count on a rerun), and
    ["mode-invariance"] (a snapshot-mode run reaches the same digests as
    delta sync).

    Failures shrink with {!Sm_check.Shrink.greedy} over the scenario —
    fewer clients, fewer ops, one shard, chaos off, tighter epochs — to the
    smallest configuration that still fails.  The shrunk scenario then
    replays twice to capture its flight-recorder dump (the hazard-triggered
    snapshot when one fired, the end-of-run rings otherwise); the report
    says whether the two dumps matched. *)

val target : Target.t
