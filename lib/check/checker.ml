module Ws = Sm_mergeable.Workspace
module Side = Sm_ot.Side

module Make (E : Enum.S) = struct
  module C = Sm_ot.Control.Make (E)
  module Conv = Sm_ot.Convergence.Make (E)

  (* The workspace-level properties need a Data.S; the synthetic type_name
     keeps check keys from ever digest-colliding with application keys. *)
  module D = struct
    include E

    let type_name = "check:" ^ E.name
  end

  (* The uncompacted reference: same type_name, so a raw key named like a
     compacting one digests comparably. *)
  module D_raw = Uncompacted.Make (D)

  type cex =
    { property : Report.property
    ; state : E.state
    ; applied : E.op list
    ; left : E.op list
    ; right : E.op list
    ; nested : E.op list
    ; a_wins : bool
    ; tie : Side.policy
    ; exn : string option
    ; shrink_steps : int
    }

  (* --- property evaluators (true = holds; exceptions propagate) ----------- *)

  let fresh_key () = Ws.create_key (module D) ~name:D.type_name
  let raw_key () = Ws.create_key (module D_raw) ~name:D.type_name

  let ws_of key state =
    let ws = Ws.create () in
    Ws.init ws key state;
    ws

  (* Two concurrent single-log children merged into a parent that applied its
     own ops after spawning them — through the real Workspace path. *)
  let merge_order_result key state ~applied ~cx ~cy =
    let parent = ws_of key state in
    let child ops =
      let c = Ws.copy parent in
      List.iter (Ws.update c key) ops;
      c
    in
    let wx = child cx and wy = child cy in
    List.iter (Ws.update parent key) applied;
    Ws.merge_child ~parent ~child:wx;
    Ws.merge_child ~parent ~child:wy;
    (Ws.read parent key, Ws.digest parent)

  (* Merge_order and Merge_nested compare the workspace against the *pure*
     control algorithm, so they merge through a raw key; the Compact
     property separately pins a compacting key to a raw one.  Together:
     compacted = raw = control. *)
  let merge_order_holds key state ~applied ~cx ~cy =
    let s1, d1 = merge_order_result key state ~applied ~cx ~cy in
    let s2, d2 = merge_order_result key state ~applied ~cx ~cy in
    let expect = Conv.merged_state ~state ~applied ~children:[ cx; cy ] in
    E.equal_state s1 expect && E.equal_state s2 expect && String.equal d1 d2

  (* Three-level tree: child applies [c1], spawns a grandchild, applies [c2]
     while the grandchild applies [g], merges the grandchild, then merges
     into a parent that meanwhile applied [p].  Must equal the flattened
     control-algorithm merge — this is what pins Workspace's version/base
     bookkeeping to the paper's equations. *)
  let merge_nested_result key state ~p ~c1 ~c2 ~g =
    let parent = ws_of key state in
    let child = Ws.copy parent in
    List.iter (Ws.update child key) c1;
    let grand = Ws.copy child in
    List.iter (Ws.update child key) c2;
    List.iter (Ws.update grand key) g;
    Ws.merge_child ~parent:child ~child:grand;
    List.iter (Ws.update parent key) p;
    Ws.merge_child ~parent ~child;
    Ws.read parent key

  let merge_nested_holds key state ~p ~c1 ~c2 ~g =
    let got = merge_nested_result key state ~p ~c1 ~c2 ~g in
    let child_log = c1 @ C.merge ~applied:c2 ~children:[ g ] ~tie:Side.serialization in
    let expect = Conv.merged_state ~state ~applied:p ~children:[ child_log ] in
    E.equal_state got expect

  (* --- compaction equivalence ---------------------------------------------- *)

  let compact_equiv state ops =
    E.equal_state (C.apply_seq state (E.compact ops)) (C.apply_seq state ops)

  (* Every tie policy a caller could pass: [commutes] promises identity
     transforms regardless of how ties break, because the control fast path
     skips the transform without knowing the policy. *)
  let all_ties =
    [ Side.serialization
    ; Side.flip Side.serialization
    ; Side.uniform Side.Incoming
    ; Side.uniform Side.Applied
    ]

  let commutes_contract a b =
    (not (E.commutes a b))
    || List.for_all
         (fun tie -> E.transform a ~against:b ~tie = [ a ] && E.transform b ~against:a ~tie = [ b ])
         all_ties

  (* The end-to-end claim: the same merge, journals compacted vs raw, lands
     on the same state *and* the same digest.  Both keys carry the same name
     and digests leave out key ids, so the digests are comparable. *)
  let merge_compact_equiv state ~applied ~cx ~cy =
    let s_on, d_on = merge_order_result (fresh_key ()) state ~applied ~cx ~cy in
    let s_off, d_off = merge_order_result (raw_key ()) state ~applied ~cx ~cy in
    E.equal_state s_on s_off && String.equal d_on d_off

  (* Scenario = [applied; left; right; nested]: the shape the shrinker
     rewrites.  Evaluation of a shape a property does not use (e.g. TP1 with
     0 or 2 ops on a side) returns "holds", which makes the shrinker reject
     that candidate. *)
  let holds_scenario ~property ~a_wins ~tie ~state applied left right nested =
    match (property : Report.property) with
    | Tp1 -> (
      match (left, right) with
      | [ a ], [ b ] when applied = [] && nested = [] -> Conv.tp1 ~state ~a ~b ~a_wins
      | _ -> true)
    | Cross ->
      if applied <> [] || nested <> [] then true
      else Conv.seqs_converge ~state ~left ~right ~tie
    | Merge_order ->
      if nested <> [] then true
      else merge_order_holds (raw_key ()) state ~applied ~cx:left ~cy:right
    | Merge_nested -> merge_nested_holds (raw_key ()) state ~p:applied ~c1:left ~c2:right ~g:nested
    | Compact ->
      if nested <> [] then true
      else
        compact_equiv state applied && compact_equiv state left && compact_equiv state right
        && (match (applied, left, right) with
           | [], [ a ], [ b ] -> commutes_contract a b
           | _ -> true)
        && merge_compact_equiv state ~applied ~cx:left ~cy:right

  (* --- shrinking ----------------------------------------------------------- *)

  let scenario_of (cex : cex) = [ cex.applied; cex.left; cex.right; cex.nested ]

  let with_scenario (cex : cex) = function
    | [ applied; left; right; nested ] -> { cex with applied; left; right; nested }
    | _ -> cex

  (* Does this scenario still exhibit the original violation?  For a logical
     violation: evaluates to false (a raise means the candidate is invalid,
     not smaller).  For a totality violation: raises the *same* exception —
     matching on the rendered exception keeps the shrinker from wandering to
     scenarios that raise for boring out-of-range reasons. *)
  let still_fails (cex : cex) scenario =
    match scenario with
    | [ applied; left; right; nested ] -> (
      let eval () =
        holds_scenario ~property:cex.property ~a_wins:cex.a_wins ~tie:cex.tie ~state:cex.state
          applied left right nested
      in
      match cex.exn with
      | None -> ( match eval () with ok -> not ok | exception _ -> false)
      | Some original -> (
        match eval () with
        | (_ : bool) -> false
        | exception e -> String.equal (Printexc.to_string e) original))
    | _ -> false

  let minimize (cex : cex) =
    let scenario, steps =
      Shrink.minimize ~fails:(still_fails cex) ~shrink_elt:E.shrink_op (scenario_of cex)
    in
    { (with_scenario cex scenario) with shrink_steps = steps }

  let holds (cex : cex) = not (still_fails cex (scenario_of cex))

  (* --- rendering ----------------------------------------------------------- *)

  let render_op op = Format.asprintf "%a" E.pp_op op
  let render_state s = Format.asprintf "%a" E.pp_state s

  let detail_of (cex : cex) =
    match cex.exn with
    | Some _ -> ""
    | None -> (
      try
        match cex.property with
        | Tp1 -> (
          match (cex.left, cex.right) with
          | [ a ], [ b ] ->
            let tie_a = Side.uniform (if cex.a_wins then Side.Incoming else Side.Applied) in
            let via_b = C.apply_seq (E.apply cex.state b) (E.transform a ~against:b ~tie:tie_a) in
            let via_a =
              C.apply_seq (E.apply cex.state a) (E.transform b ~against:a ~tie:(Side.flip tie_a))
            in
            Format.asprintf "b-then-a' = %s but a-then-b' = %s" (render_state via_b)
              (render_state via_a)
          | _ -> "")
        | Cross ->
          let left', right' = C.cross ~incoming:cex.left ~applied:cex.right ~tie:cex.tie in
          let via_right = C.apply_seq (C.apply_seq cex.state cex.right) left' in
          let via_left = C.apply_seq (C.apply_seq cex.state cex.left) right' in
          Format.asprintf "right-then-left' = %s but left-then-right' = %s"
            (render_state via_right) (render_state via_left)
        | Merge_order ->
          let got, _ =
            merge_order_result (raw_key ()) cex.state ~applied:cex.applied ~cx:cex.left
              ~cy:cex.right
          in
          let expect =
            Conv.merged_state ~state:cex.state ~applied:cex.applied
              ~children:[ cex.left; cex.right ]
          in
          Format.asprintf "workspace merged to %s but control algorithm gives %s"
            (render_state got) (render_state expect)
        | Merge_nested ->
          let got =
            merge_nested_result (raw_key ()) cex.state ~p:cex.applied ~c1:cex.left ~c2:cex.right
              ~g:cex.nested
          in
          let child_log =
            cex.left @ C.merge ~applied:cex.right ~children:[ cex.nested ] ~tie:Side.serialization
          in
          let expect =
            Conv.merged_state ~state:cex.state ~applied:cex.applied ~children:[ child_log ]
          in
          Format.asprintf "workspace merged to %s but flattened merge gives %s" (render_state got)
            (render_state expect)
        | Compact -> (
          let seq_violation name ops =
            if compact_equiv cex.state ops then None
            else
              Some
                (Format.asprintf "%s compacts to [%s] which applies to %s, but raw applies to %s"
                   name
                   (String.concat "; " (List.map render_op (E.compact ops)))
                   (render_state (C.apply_seq cex.state (E.compact ops)))
                   (render_state (C.apply_seq cex.state ops)))
          in
          match
            List.find_map
              (fun (n, ops) -> seq_violation n ops)
              [ ("applied", cex.applied); ("left", cex.left); ("right", cex.right) ]
          with
          | Some d -> d
          | None -> (
            match (cex.applied, cex.left, cex.right) with
            | [], [ a ], [ b ] when not (commutes_contract a b) ->
              "commutes promised identity transforms in both directions, but transform rewrites \
               the pair under some tie policy"
            | _ ->
              let run key =
                merge_order_result key cex.state ~applied:cex.applied ~cx:cex.left ~cy:cex.right
              in
              let s_on, d_on = run (fresh_key ()) in
              let s_off, d_off = run (raw_key ()) in
              Format.asprintf "compacted merge gives %s (digest %s) but raw merge gives %s (digest %s)"
                (render_state s_on) d_on (render_state s_off) d_off))
      with _ -> "")

  let render (cex : cex) : Report.counterexample =
    let seq = List.map render_op in
    { property = cex.property
    ; state = render_state cex.state
    ; applied = seq cex.applied
    ; left = seq cex.left
    ; right = seq cex.right
    ; nested = seq cex.nested
    ; selector =
        (match cex.property with
        | Tp1 -> Printf.sprintf "a_wins=%b" cex.a_wins
        | Cross -> Format.asprintf "tie=%a" Side.pp_policy cex.tie
        | Merge_order | Merge_nested -> "tie=serialization (the runtime's merge policy)"
        | Compact -> "compaction on vs off (merge tie=serialization; commutes under every tie)")
    ; exn = cex.exn
    ; ops_total =
        List.length cex.applied + List.length cex.left + List.length cex.right
        + List.length cex.nested
    ; shrink_steps = cex.shrink_steps
    ; detail = detail_of cex
    }

  (* --- enumeration driver --------------------------------------------------- *)

  exception Counterexample of cex

  let serialization_ties = [ Side.serialization; Side.flip Side.serialization ]

  let check ?(skip = []) ~depth () =
    let counts = Report.zero_counts () in
    let states = E.states ~depth in
    let want p = not (List.mem (p : Report.property) skip) in
    let case ~property ?(applied = []) ~left ~right ?(nested = []) ?(a_wins = true)
        ?(tie = Side.serialization) ~state bump =
      let cex exn =
        { property; state; applied; left; right; nested; a_wins; tie; exn; shrink_steps = 0 }
      in
      match holds_scenario ~property ~a_wins ~tie ~state applied left right nested with
      | true -> bump ()
      | false -> raise (Counterexample (cex None))
      | exception e -> raise (Counterexample (cex (Some (Printexc.to_string e))))
    in
    try
      (* TP1: every op pair on every state, both tie winners. *)
      if want Tp1 then
      List.iter
        (fun state ->
          let ops = E.ops state in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  List.iter
                    (fun a_wins ->
                      case ~property:Tp1 ~state ~left:[ a ] ~right:[ b ] ~a_wins (fun () ->
                          counts.tp1 <- counts.tp1 + 1))
                    [ true; false ])
                ops)
            ops)
        states;
      (* Cross-convergence: 1-op against 1- and 2-op concurrent sequences
         through the control algorithm, under both serialization ties. *)
      if want Cross then
      List.iter
        (fun state ->
          let ops = E.ops state in
          let rights =
            List.map (fun b -> [ b ]) ops
            @ List.concat_map
                (fun b ->
                  let mid = E.apply state b in
                  List.map (fun b2 -> [ b; b2 ]) (E.ops mid))
                ops
          in
          List.iter
            (fun a ->
              List.iter
                (fun right ->
                  List.iter
                    (fun tie ->
                      case ~property:Cross ~state ~left:[ a ] ~right ~tie (fun () ->
                          counts.cross <- counts.cross + 1))
                    serialization_ties)
                rights)
            ops)
        states;
      (* Merge serialization through the Workspace: child order, agreement
         with the pure control algorithm, digest determinism.  The parent
         applies its own concurrent op only at depth >= 2 (cubic). *)
      if want Merge_order then
      List.iter
        (fun state ->
          let ops = E.ops state in
          let applieds =
            [] :: (if depth >= 2 then List.map (fun p -> [ p ]) ops else [])
          in
          List.iter
            (fun applied ->
              List.iter
                (fun x ->
                  List.iter
                    (fun y ->
                      case ~property:Merge_order ~state ~applied ~left:[ x ] ~right:[ y ]
                        (fun () -> counts.merge_order <- counts.merge_order + 1))
                    ops)
                ops)
            applieds)
        states;
      (* Nested merges on the largest enumerated state: child + grandchild
         logs against the flattened control merge. *)
      (match (if want Merge_nested then List.rev states else []) with
      | [] -> ()
      | rep :: _ ->
        let ops = E.ops rep in
        let p_choices = [] :: (match ops with [] -> [] | p :: _ -> [ [ p ] ]) in
        List.iter
          (fun p ->
            List.iter
              (fun x ->
                let mid = E.apply rep x in
                let mops = E.ops mid in
                let c2s = [] :: List.map (fun w -> [ w ]) mops in
                List.iter
                  (fun c2 ->
                    List.iter
                      (fun g ->
                        case ~property:Merge_nested ~state:rep ~applied:p ~left:[ x ] ~right:c2
                          ~nested:[ g ] (fun () ->
                            counts.merge_nested <- counts.merge_nested + 1))
                      mops)
                  c2s)
              ops)
          p_choices);
      (* Compaction equivalence.  Enumerated last so the earlier properties
         pin their own counterexamples first (the mutation tests in
         test_check rely on that order).  Singleton pairs exercise the
         commutes contract; 2-op chains (against a sibling and, at depth >= 2,
         a concurrent parent op) and 3-op chains exercise the actual journal
         rewrites, through the real Workspace path with the flag on and
         off. *)
      if want Compact then
        List.iter
          (fun state ->
            let ops = E.ops state in
            List.iter
              (fun a ->
                List.iter
                  (fun b ->
                    case ~property:Compact ~state ~left:[ a ] ~right:[ b ] (fun () ->
                        counts.compact <- counts.compact + 1))
                  ops)
              ops;
            let applieds =
              [] :: (if depth >= 2 then match ops with [] -> [] | p :: _ -> [ [ p ] ] else [])
            in
            List.iter
              (fun a ->
                let mid = E.apply state a in
                List.iter
                  (fun a2 ->
                    let left = [ a; a2 ] in
                    List.iter
                      (fun applied ->
                        case ~property:Compact ~state ~applied ~left ~right:[] (fun () ->
                            counts.compact <- counts.compact + 1);
                        List.iter
                          (fun b ->
                            case ~property:Compact ~state ~applied ~left ~right:[ b ] (fun () ->
                                counts.compact <- counts.compact + 1))
                          ops)
                      applieds;
                    if depth >= 2 then
                      let mid2 = E.apply mid a2 in
                      List.iter
                        (fun a3 ->
                          case ~property:Compact ~state ~left:[ a; a2; a3 ] ~right:[] (fun () ->
                              counts.compact <- counts.compact + 1))
                        (E.ops mid2))
                  (E.ops mid))
              ops)
          states;
      Ok counts
    with Counterexample cex -> Error (counts, minimize cex)

  let report ?skip ~depth () =
    match check ?skip ~depth () with
    | Ok counts -> { Report.name = E.name; depth; counts; verdict = Pass; expected = None }
    | Error (counts, cex) ->
      { Report.name = E.name; depth; counts; verdict = Fail (render cex); expected = None }
end
