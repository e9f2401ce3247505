(** The distributed fault target: fuzz the {!Sm_dist.Coordinator} /
    {!Sm_dist.Node} path under message-timing chaos.

    A seeded scenario spawns a random mix of registered remote tasks
    (counter adds, list appends, register assigns, multi-round sync loops)
    over a random node count, merges deterministically, and digests the
    coordinator's workspace.  The oracle is chaos invariance: the digest
    must be identical with the upstream chaos relay
    ({!Sm_dist.Coordinator.Chaos}) off, on, and on again with a different
    chaos seed — [merge_all]'s per-task buffering makes message timing
    unobservable, which is precisely the paper's determinism claim
    transported to the distributed runtime. *)

val target : Target.t
(** Each seed runs its scenario on a fresh cluster three times — no chaos,
    chaos, chaos with another seed — and fails ["chaos-invariance"] when a
    digest differs. *)
