(** The uncompacted reference merge, as a type: the same mergeable data
    module with [compact] the identity.  A workspace key minted on it
    merges raw journals, so the compaction-equivalence checks (sm-check's
    properties, the fuzzer's [compaction] oracle, [bench journal] and the
    tests) compare a compacting key with an uncompacted key of the same
    name instead of flipping a process-global switch.  [type_name] is
    unchanged, and digests leave out key ids, so digests of the two
    merges stay comparable. *)

module Make (D : Sm_mergeable.Data.S) :
  Sm_mergeable.Data.S with type state = D.state and type op = D.op

val wrap :
  (module Sm_mergeable.Data.S with type state = 's and type op = 'o) ->
  (module Sm_mergeable.Data.S with type state = 's and type op = 'o)
(** {!Make} on a first-class module, like {!Mutate.wrap_data}. *)
