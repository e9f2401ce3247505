(* Process-wide counters across every instantiation: the runtime reads
   deltas around each merge (merges are serialized per runtime by the global
   lock) to attribute transform and compaction work to individual merges.
   Gated on Metrics.set_enabled, so the disabled cost in this hot loop is
   one atomic load per transformed pair. *)
let transform_calls = Sm_obs.Metrics.counter "ot.transform_calls"
let compact_in = Sm_obs.Metrics.counter "ot.compact_in"
let compact_out = Sm_obs.Metrics.counter "ot.compact_out"

module Make (O : Op_sig.S) = struct
  let apply_seq s ops = List.fold_left O.apply s ops

  (* [cross_rec] and [include_one] implement the classic recursive control
     algorithm.  [include_one a right] threads a single operation [a]
     through the whole concurrent sequence [right], collecting both a's
     final form (possibly split into pieces) and [right] re-expressed to
     apply after [a].  Termination: every recursive call strictly shortens
     [right]. *)
  let rec cross_rec ~incoming ~applied ~tie =
    match incoming with
    | [] -> ([], applied)
    | a :: rest ->
      let a', applied' = include_one a ~applied ~tie in
      let rest', applied'' = cross_rec ~incoming:rest ~applied:applied' ~tie in
      (a' @ rest', applied'')

  and include_one a ~applied ~tie =
    match applied with
    | [] -> ([ a ], [])
    | b :: bs ->
      Sm_obs.Metrics.add transform_calls 2;
      let a_pieces = O.transform a ~against:b ~tie in
      let b_pieces = O.transform b ~against:a ~tie:(Side.flip tie) in
      let a_final, bs' = cross_rec ~incoming:a_pieces ~applied:bs ~tie in
      (a_final, b_pieces @ bs')

  (* Fast-path predicate: every pair across the two sequences commutes, so
     the textbook cross would return both sequences verbatim (O.commutes
     promises identity transforms in both directions — a promise lib/check
     verifies against the real transform).  Checked only at the entry
     points below, never inside the recursion, so a non-commuting workload
     pays one short-circuiting sweep of cheap comparisons, not a quadratic
     re-check per recursion level. *)
  let seqs_commute incoming applied =
    List.for_all (fun a -> List.for_all (fun b -> O.commutes a b) applied) incoming

  let cross ~incoming ~applied ~tie =
    match (incoming, applied) with
    | [], _ | _, [] -> (incoming, applied)
    | _ ->
      if seqs_commute incoming applied then (incoming, applied)
      else cross_rec ~incoming ~applied ~tie

  let transform_op a ~against ~tie =
    match against with
    | [] -> [ a ]
    | _ ->
      if seqs_commute [ a ] against then [ a ] else fst (include_one a ~applied:against ~tie)

  let transform_seq ops ~against ~tie = fst (cross ~incoming:ops ~applied:against ~tie)

  (* The paper's merge over the accumulated serialization, kept as a list of
     chunks (newest first) instead of one flat list: each child transforms
     against every earlier chunk in order — valid because including into a
     concatenation is including into its parts sequentially — and the flat
     result is concatenated once at the end.  The repeated
     [serialized @ child'] of the textbook fold made MergeAll over k
     children O(k * total) in list appends; this is linear in the output.
     The transform work (and Metrics count) is identical to the textbook
     fold's. *)
  let merge ~applied ~children ~tie =
    let chunks_rev =
      List.fold_left
        (fun chunks_rev child ->
          let child' =
            List.fold_left
              (fun ops chunk -> transform_seq ops ~against:chunk ~tie)
              child (List.rev chunks_rev)
          in
          child' :: chunks_rev)
        [ applied ] children
    in
    List.concat (List.rev chunks_rev)

  (* Metered journal compaction: what Workspace.merge_child runs on every
     child journal before transforming it (the uncompacted reference keys of
     Sm_check.Uncompacted make O.compact the identity).  Singleton/empty
     journals cannot shrink, so they skip both O.compact and the metering. *)
  let compact ops =
    match ops with
    | [] | [ _ ] -> ops
    | _ ->
      let ops' = O.compact ops in
      if Sm_obs.Metrics.is_enabled () then begin
        Sm_obs.Metrics.add compact_in (List.length ops);
        Sm_obs.Metrics.add compact_out (List.length ops')
      end;
      ops'
end
