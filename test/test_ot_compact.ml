(* ISSUE 4: journal compaction and the control-algorithm fast paths, proven
   equivalent to the textbook slow path.

   The optimized Control.Make carries three rewrites: empty-side and
   all-pairs-commute fast paths in cross/transform_op/transform_seq, a
   chunked (linear) merge accumulator, and metered journal compaction used
   by Workspace.merge_child.  Each must be *sequence*-identical (not just
   state-equal) to the textbook algorithm — asserted here against a local
   reference implementation over the enumerated corpora of lib/check, as
   golden per-module compaction cases, as transform-call accounting, and
   end-to-end over randomized runtime spawn trees merged through compacting
   and uncompacted (Sm_check.Uncompacted) keys, under both schedulers. *)

open Test_support
module Check = Sm_check
module Side = Sm_ot.Side
module Control = Sm_ot.Control
module Ws = Sm_mergeable.Workspace
module Rt = Sm_core.Runtime
module Detcheck = Sm_core.Detcheck
module Rng = Sm_util.Det_rng
module Metrics = Sm_obs.Metrics
module Mcounter = Sm_mergeable.Mcounter
module Mtext = Sm_mergeable.Mtext
module Mmap = Sm_mergeable.Mmap.Make (Str_elt) (Int_elt)
module Mregister = Sm_mergeable.Mregister.Make (Str_elt)

let with_metrics f =
  let saved = Metrics.is_enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled saved) f

(* guaranteed left-to-right, unlike List.init/List.map evaluation order *)
let map_in_order f n = List.rev (List.fold_left (fun acc i -> f i :: acc) [] (List.init n Fun.id))

(* --- the reference slow path ----------------------------------------------

   The textbook control algorithm exactly as Control.Make shipped before the
   fast paths: unconditional recursion and the quadratic
   [serialized @ child'] merge fold.  No metering, no shortcuts. *)

module Slow (O : Sm_ot.Op_sig.S) = struct
  let rec cross ~incoming ~applied ~tie =
    match incoming with
    | [] -> ([], applied)
    | a :: rest ->
      let a', applied' = include_one a ~applied ~tie in
      let rest', applied'' = cross ~incoming:rest ~applied:applied' ~tie in
      (a' @ rest', applied'')

  and include_one a ~applied ~tie =
    match applied with
    | [] -> ([ a ], [])
    | b :: bs ->
      let a_pieces = O.transform a ~against:b ~tie in
      let b_pieces = O.transform b ~against:a ~tie:(Side.flip tie) in
      let a_final, bs' = cross ~incoming:a_pieces ~applied:bs ~tie in
      (a_final, b_pieces @ bs')

  let transform_seq ops ~against ~tie = fst (cross ~incoming:ops ~applied:against ~tie)

  let merge ~applied ~children ~tie =
    List.fold_left
      (fun serialized child -> serialized @ transform_seq child ~against:serialized ~tie)
      applied children
end

(* Both serialization directions and both uniform winners: the fast paths
   must be tie-blind because they skip the transform without consulting the
   policy. *)
let all_ties =
  [ Side.serialization
  ; Side.flip Side.serialization
  ; Side.uniform Side.Incoming
  ; Side.uniform Side.Applied
  ]

(* Every 0/1/2-op sequence pair of the enumerated corpus through fast and
   slow cross *and* merge, compared structurally.  Returns the case count so
   the caller can pin corpus size. *)
let fast_matches_slow ~depth (enum : (module Check.Enum.S)) =
  let module E = (val enum) in
  let module Fast = Sm_ot.Control.Make (E) in
  let module S = Slow (E) in
  let cases = ref 0 in
  List.iter
    (fun state ->
      let ops = E.ops state in
      let seqs =
        ([ [] ] @ List.map (fun a -> [ a ]) ops)
        @ List.concat_map (fun a -> List.map (fun a2 -> [ a; a2 ]) (E.ops (E.apply state a))) ops
      in
      List.iter
        (fun left ->
          List.iter
            (fun right ->
              List.iter
                (fun tie ->
                  incr cases;
                  let f = Fast.cross ~incoming:left ~applied:right ~tie in
                  let s = S.cross ~incoming:left ~applied:right ~tie in
                  if f <> s then
                    Alcotest.failf "%s: fast cross diverges from the textbook algorithm" E.name;
                  let fm = Fast.merge ~applied:[] ~children:[ left; right ] ~tie in
                  let sm = S.merge ~applied:[] ~children:[ left; right ] ~tie in
                  if fm <> sm then
                    Alcotest.failf "%s: fast merge diverges from the textbook fold" E.name)
                all_ties)
            seqs)
        seqs)
    (E.states ~depth);
  !cases

let fast_slow_all_modules_depth1 () =
  let total =
    List.fold_left (fun acc e -> acc + fast_matches_slow ~depth:1 e) 0 (Check.Instances.all)
  in
  (* the depth-1 sweep across all nine modules must not silently shrink *)
  check_bool (Printf.sprintf "corpus size (%d)" total) (total > 50_000)

let fast_slow_depth2 () =
  List.iter
    (fun (name, enum, floor) ->
      let n = fast_matches_slow ~depth:2 enum in
      check_bool (Printf.sprintf "%s depth-2 corpus (%d >= %d)" name n floor) (n >= floor))
    [ ("mcounter", (module Check.Instances.Counter : Check.Enum.S), 500)
    ; ("mregister", (module Check.Instances.Register), 500)
    ; ("mset", (module Check.Instances.Set_e), 1500)
    ; ("mmap", (module Check.Instances.Map_e), 1500)
    ; ("mqueue", (module Check.Instances.Queue_e), 500)
    ; ("mstack", (module Check.Instances.Stack_e), 1500)
    ; ("mlist", (module Check.Instances.List_e), 1500)
    ]

(* --- golden compaction cases ----------------------------------------------- *)

module Lst = Sm_ot.Op_list.Make (Str_elt)
module Txt = Sm_ot.Op_text
module Map_o = Sm_ot.Op_map.Make (Str_elt) (Int_elt)
module Set_o = Sm_ot.Op_set.Make (Int_elt)
module Reg = Sm_ot.Op_register.Make (Str_elt)
module Que = Sm_ot.Op_queue.Make (Int_elt)
module Stk = Sm_ot.Op_stack.Make (Str_elt)
module Tre = Sm_ot.Op_tree.Make (Str_elt)

let compact_golden () =
  let module Cn = Sm_ot.Op_counter in
  check_bool "counter sums" (Cn.compact [ Cn.add 2; Cn.add 3 ] = [ Cn.add 5 ]);
  check_bool "counter cancels to nothing" (Cn.compact [ Cn.add 2; Cn.add (-2) ] = []);
  check_bool "register keeps the last write"
    (Reg.compact [ Reg.assign "a"; Reg.assign "b"; Reg.assign "c" ] = [ Reg.assign "c" ]);
  check_bool "map keeps the last op per key, in final-occurrence order"
    (Map_o.compact [ Map_o.put "k" 1; Map_o.put "j" 5; Map_o.put "k" 2 ]
    = [ Map_o.put "j" 5; Map_o.put "k" 2 ]);
  check_bool "map remove supersedes put"
    (Map_o.compact [ Map_o.put "k" 1; Map_o.remove "k" ] = [ Map_o.remove "k" ]);
  check_bool "set keeps the last op per element"
    (Set_o.compact [ Set_o.add 1; Set_o.remove 1; Set_o.add 2 ] = [ Set_o.remove 1; Set_o.add 2 ]);
  check_bool "list insert+delete cancels" (Lst.compact [ Lst.ins 0 "x"; Lst.del 0 ] = []);
  check_bool "list insert+set folds" (Lst.compact [ Lst.ins 1 "x"; Lst.set 1 "y" ] = [ Lst.ins 1 "y" ]);
  check_bool "list set+set keeps the last" (Lst.compact [ Lst.set 0 "a"; Lst.set 0 "b" ] = [ Lst.set 0 "b" ]);
  check_bool "list set+delete keeps the delete" (Lst.compact [ Lst.set 2 "a"; Lst.del 2 ] = [ Lst.del 2 ]);
  check_bool "list cascade reaches a fixpoint"
    (Lst.compact [ Lst.ins 0 "x"; Lst.set 0 "y"; Lst.del 0 ] = []);
  check_bool "text adjacent inserts coalesce"
    (Txt.compact [ Txt.ins 0 "ab"; Txt.ins 2 "cd" ] = [ Txt.ins 0 "abcd" ]);
  check_bool "text insert-then-inner-delete shrinks the insert"
    (Txt.compact [ Txt.ins 0 "abc"; Txt.del ~pos:1 ~len:1 ] = [ Txt.ins 0 "ac" ]);
  check_bool "text insert fully deleted cancels"
    (Txt.compact [ Txt.ins 3 "abc"; Txt.del ~pos:3 ~len:3 ] = []);
  check_bool "text adjacent deletes fuse"
    (Txt.compact [ Txt.del ~pos:2 ~len:2 ; Txt.del ~pos:2 ~len:3 ] = [ Txt.del ~pos:2 ~len:5 ]);
  check_bool "queue compaction is the (sound) identity"
    (Que.compact [ Que.push 1; Que.pop ] = [ Que.push 1; Que.pop ]);
  check_bool "stack push+pop at one slot cancels" (Stk.compact [ Stk.push "x"; Stk.pop ] = []);
  check_bool "tree insert+delete cancels"
    (Tre.compact [ Tre.insert [ 0 ] (Tre.leaf "x"); Tre.delete [ 0 ] ] = []);
  check_bool "tree insert+relabel folds"
    (Tre.compact [ Tre.insert [ 1 ] (Tre.leaf "x"); Tre.relabel [ 1 ] "y" ]
    = [ Tre.insert [ 1 ] (Tre.leaf "y") ]);
  check_bool "tree relabel+relabel keeps the last"
    (Tre.compact [ Tre.relabel [ 0 ] "a"; Tre.relabel [ 0 ] "b" ] = [ Tre.relabel [ 0 ] "b" ])

(* --- transform-call accounting --------------------------------------------- *)

(* k commuting single-op children: the commutes fast path must serialize
   them without a single pairwise transform. *)
let commuting_children_skip_transforms () =
  with_metrics @@ fun () ->
  let module Cn = Sm_ot.Op_counter in
  let module C = Sm_ot.Control.Make (Cn) in
  let k = 12 in
  let children = List.init k (fun i -> [ Cn.add (i + 1) ]) in
  let before = Metrics.value Control.transform_calls in
  let merged = C.merge ~applied:[] ~children ~tie:Side.serialization in
  Alcotest.(check int) "zero transform calls" 0 (Metrics.value Control.transform_calls - before);
  Alcotest.(check int) "all ops serialized" k (List.length merged);
  Alcotest.(check int) "sum preserved" (k * (k + 1) / 2) (C.apply_seq 0 merged)

(* k conflicting single-op children: child i transforms against i-1 chunks
   of one op each, so MergeAll is exactly k(k-1) counted calls — linear in
   the pairs, proving the chunked accumulator did not change the transform
   sequence (ISSUE 4 satellite: the [serialized @ child'] fix). *)
let conflicting_children_transform_linearly () =
  with_metrics @@ fun () ->
  let module C = Sm_ot.Control.Make (Lst) in
  let k = 12 in
  let children = List.init k (fun i -> [ Lst.ins 0 (string_of_int i) ]) in
  let before = Metrics.value Control.transform_calls in
  let merged = C.merge ~applied:[] ~children ~tie:Side.serialization in
  Alcotest.(check int) "k(k-1) transform calls" (k * (k - 1))
    (Metrics.value Control.transform_calls - before);
  Alcotest.(check int) "all ops serialized" k (List.length merged);
  Alcotest.(check int) "all elements present" k (List.length (C.apply_seq [] merged))

(* --- workspace wiring ------------------------------------------------------ *)

(* The uncompacted reference under a compacting key's name. *)
let raw_key data ~name = Ws.create_key (Check.Uncompacted.wrap data) ~name

let kt_metrics = Mtext.key ~name:"compact.metrics.text"
let kt_metrics_raw = raw_key (module Mtext.Data) ~name:"compact.metrics.text"

(* A journal-heavy merge through the real Workspace: 40 coalescible text
   appends against one concurrent parent edit.  Compaction must shrink the
   journal 40 -> 1 (metered), cut transform calls 80 -> 2, and land on the
   identical state and digest as the uncompacted merge. *)
let workspace_compacts_child_journals () =
  with_metrics @@ fun () ->
  let run key =
    let parent = Ws.create () in
    Mtext.init parent key "";
    let child = Ws.copy parent in
    for _ = 1 to 40 do
      Mtext.append child key "ab"
    done;
    Mtext.insert parent key 0 "Z";
    let t0 = Metrics.value Control.transform_calls in
    let ci0 = Metrics.value Control.compact_in in
    let co0 = Metrics.value Control.compact_out in
    Ws.merge_child ~parent ~child;
    ( Mtext.get parent key
    , Ws.digest parent
    , Metrics.value Control.transform_calls - t0
    , Metrics.value Control.compact_in - ci0
    , Metrics.value Control.compact_out - co0 )
  in
  let s_on, d_on, t_on, ci_on, co_on = run kt_metrics in
  let s_off, d_off, t_off, ci_off, co_off = run kt_metrics_raw in
  check_bool "merged states equal" (String.equal s_on s_off);
  check_bool "digests equal" (String.equal d_on d_off);
  Alcotest.(check int) "40 journal ops metered in" 40 ci_on;
  Alcotest.(check int) "1 op metered out" 1 co_on;
  Alcotest.(check int) "2 transform calls with compaction" 2 t_on;
  Alcotest.(check int) "80 transform calls without" 80 t_off;
  Alcotest.(check int) "the raw merge compacts nothing" ci_off co_off

(* --- randomized runtime stress --------------------------------------------- *)

type stress_keys =
  { kc : Mcounter.handle
  ; kt : Mtext.handle
  ; km : Mmap.handle
  ; kr : Mregister.handle
  }

(* Keys minted once, at module level — the clean pattern DetSan enforces: a
   compacting set and a raw set under the same names.  Minted in sequence
   with [let ... in] (record fields evaluate right to left), so both sets
   share the key-id order the digest folds in. *)
let stress_keys ~compaction =
  let key data ~name = if compaction then Ws.create_key data ~name else raw_key data ~name in
  let kc = key (module Mcounter.Data) ~name:"compact.stress.counter" in
  let kt = key (module Mtext.Data) ~name:"compact.stress.text" in
  let km = key (module Mmap.Data) ~name:"compact.stress.map" in
  let kr = key (module Mregister.Data) ~name:"compact.stress.reg" in
  { kc; kt; km; kr }

let compacting_keys = stress_keys ~compaction:true
let raw_keys = stress_keys ~compaction:false

let random_ops { kc; kt; km; kr } rng w n =
  for _ = 1 to n do
    match Rng.int rng ~bound:4 with
    | 0 -> Mcounter.add w kc (1 + Rng.int rng ~bound:5)
    | 1 -> Mtext.append w kt (string_of_int (Rng.int rng ~bound:10))
    | 2 ->
      Mmap.put w km
        (String.make 1 (Char.chr (Char.code 'a' + Rng.int rng ~bound:4)))
        (Rng.int rng ~bound:100)
    | _ -> Mregister.set w kr (string_of_int (Rng.int rng ~bound:100))
  done

(* A two-level spawn tree over four mergeable types, everything derived from
   the seed: children journal mixed compactable runs, even children merge a
   grandchild of their own first, the root edits concurrently and merges in
   spawn order. *)
let stress_program keys ~seed ctx =
  let ws = Rt.workspace ctx in
  Ws.init ws keys.kc 0;
  Mtext.init ws keys.kt "";
  Ws.init ws keys.km Mmap.Op.Key_map.empty;
  Ws.init ws keys.kr "-";
  let rng = Rng.create ~seed in
  let spawn_child i =
    let child_seed = Int64.add (Int64.mul seed 1000L) (Int64.of_int i) in
    Rt.spawn ctx (fun c ->
        let crng = Rng.create ~seed:child_seed in
        random_ops keys crng (Rt.workspace c) (4 + Rng.int crng ~bound:8);
        if i land 1 = 0 then begin
          let g =
            Rt.spawn c (fun gc ->
                let grng = Rng.create ~seed:(Int64.add child_seed 500L) in
                random_ops keys grng (Rt.workspace gc) (3 + Rng.int grng ~bound:5))
          in
          Rt.merge_all_from_set c [ g ]
        end)
  in
  let handles = map_in_order spawn_child (2 + Rng.int rng ~bound:3) in
  random_ops keys rng ws (3 + Rng.int rng ~bound:5);
  Rt.merge_all_from_set ctx handles

let stress_digest keys ~seed =
  Rt.Coop.run (fun ctx ->
      stress_program keys ~seed ctx;
      Ws.digest (Rt.workspace ctx))

let stress_digests_on_off () =
  for seed = 1 to 100 do
    let s = Int64.of_int seed in
    let on = stress_digest compacting_keys ~seed:s in
    let off = stress_digest raw_keys ~seed:s in
    if not (String.equal on off) then
      Alcotest.failf "seed %d: digest %s with compaction, %s without" seed on off
  done

let executor = lazy (Sm_core.Executor.create ())

let stress_cross_scheduler () =
  List.iter
    (fun seed ->
      List.iter
        (fun (compaction, keys) ->
          check_bool
            (Printf.sprintf "seed %Ld, compaction %b" seed compaction)
            (Detcheck.cross_scheduler ~timeout_s:120. ~runs:2 ~executor:(Lazy.force executor)
               (stress_program keys ~seed)))
        [ (true, compacting_keys); (false, raw_keys) ])
    [ 1L; 2L; 5L; 8L ]

let suite =
  [ Alcotest.test_case "fast paths match the slow path, all modules, depth 1" `Quick
      fast_slow_all_modules_depth1
  ; Alcotest.test_case "fast paths match the slow path at depth 2" `Quick fast_slow_depth2
  ; Alcotest.test_case "golden compaction cases" `Quick compact_golden
  ; Alcotest.test_case "commuting children merge with zero transforms" `Quick
      commuting_children_skip_transforms
  ; Alcotest.test_case "conflicting children transform linearly" `Quick
      conflicting_children_transform_linearly
  ; Alcotest.test_case "workspace compacts child journals" `Quick workspace_compacts_child_journals
  ; Alcotest.test_case "stress digests agree across schedulers" `Slow stress_cross_scheduler
  ; Alcotest.test_case "100 seeds: digests identical, compaction on vs off" `Quick
      stress_digests_on_off
  ]
