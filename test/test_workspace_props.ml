(* Cross-layer equivalence properties: the Workspace merge engine must agree
   with the bare Control algorithm on random histories, and copy/rebase obey
   their algebraic laws. *)

open Test_support
module Ws = Sm_mergeable.Workspace
module Mlist = Sm_mergeable.Mlist.Make (Int_elt)
module L = Mlist.Op
module C = Sm_ot.Control.Make (L)

let gen_script =
  (* op constructors deferred: indexes are resolved against the live state *)
  QCheck2.Gen.(
    list_size (int_range 0 6)
      (frequency
         [ (3, map (fun x -> `Append x) (int_range 0 99))
         ; (2, map (fun i -> `Delete i) (int_range 0 10))
         ; (2, map2 (fun i x -> `Set (i, x)) (int_range 0 10) (int_range 0 99))
         ]))

let apply_script ws key script =
  List.iter
    (fun step ->
      let len = Mlist.length ws key in
      match step with
      | `Append x -> Mlist.append ws key x
      | `Delete i -> if len > 0 then Mlist.delete ws key (i mod len)
      | `Set (i, x) -> if len > 0 then Mlist.set ws key (i mod len) x)
    script

let gen_case =
  QCheck2.Gen.(
    let* initial = list_size (int_range 0 5) (int_range 0 9) in
    let* parent_script = gen_script in
    let* c1 = gen_script in
    let* c2 = gen_script in
    return (initial, parent_script, c1, c2))

(* Workspace.merge_child over two children == Control.merge over their
   journals. *)
let workspace_matches_control =
  qtest ~count:300 "workspace merge = control merge" gen_case
    (fun (initial, parent_script, s1, s2) ->
      let key = Mlist.key ~name:"prop" in
      let ws = Ws.create () in
      Ws.init ws key initial;
      let child1 = Ws.copy ws and child2 = Ws.copy ws in
      apply_script ws key parent_script;
      apply_script child1 key s1;
      apply_script child2 key s2;
      let parent_ops = Ws.journal ws key in
      let ops1 = Ws.journal child1 key in
      let ops2 = Ws.journal child2 key in
      Ws.merge_child ~parent:ws ~child:child1;
      Ws.merge_child ~parent:ws ~child:child2;
      let expected =
        C.apply_seq initial
          (C.merge ~applied:parent_ops ~children:[ ops1; ops2 ] ~tie:Sm_ot.Side.serialization)
      in
      Mlist.get ws key = expected)

(* rebase_from after merge reproduces the parent exactly and clears logs *)
let rebase_reproduces_parent =
  qtest ~count:200 "rebase = fresh copy of parent" gen_case
    (fun (initial, parent_script, s1, _) ->
      let key = Mlist.key ~name:"prop-rebase" in
      let ws = Ws.create () in
      Ws.init ws key initial;
      let child = Ws.copy ws in
      apply_script ws key parent_script;
      apply_script child key s1;
      Ws.merge_child ~parent:ws ~child;
      Ws.rebase_from child ~parent:ws;
      Ws.equal child ws && Ws.is_pristine child && Ws.digest child = Ws.digest ws)

(* merging a pristine child is always a no-op on the parent *)
let pristine_merge_is_noop =
  qtest ~count:200 "pristine child merge is identity" gen_case
    (fun (initial, parent_script, _, _) ->
      let key = Mlist.key ~name:"prop-noop" in
      let ws = Ws.create () in
      Ws.init ws key initial;
      let child = Ws.copy ws in
      apply_script ws key parent_script;
      let before = Ws.digest ws in
      Ws.merge_child ~parent:ws ~child;
      Ws.digest ws = before)

(* merge then truncate then merge another child with a fresh base: safe *)
let truncate_then_merge =
  qtest ~count:200 "truncate interleaves with merging" gen_case
    (fun (initial, parent_script, s1, s2) ->
      let key = Mlist.key ~name:"prop-trunc" in
      let ws = Ws.create () in
      Ws.init ws key initial;
      let child1 = Ws.copy ws in
      apply_script ws key parent_script;
      apply_script child1 key s1;
      Ws.merge_child ~parent:ws ~child:child1;
      (* second child spawns from the post-merge state *)
      let base2_state = Mlist.get ws key in
      let child2 = Ws.copy ws in
      apply_script child2 key s2;
      let ops2 = Ws.journal child2 key in
      Ws.truncate_to_min ws ~children:[ child2 ];
      Ws.merge_child ~parent:ws ~child:child2;
      (* the parent was quiescent after base2, so the merge is exactly
         child2's journal applied to the base2 state *)
      Mlist.get ws key = C.apply_seq base2_state ops2)

(* --- structural-sharing battery (copy-on-write workspaces) ------------------

   Spawn is O(cells) because children alias the parent's persistent state
   snapshots.  The battery pins the contract down observably: sharing costs
   zero copies ([ws.cow_hits] = 0 until someone writes, states physically
   shared), the first write per sharing window costs exactly one cow hit,
   writes are isolated across all nine mergeable types, clone chains
   preserve digests, and lazily merged journals materialize on
   observation. *)

module M = Sm_obs.Metrics
module Mcounter = Sm_mergeable.Mcounter
module Mtext = Sm_mergeable.Mtext
module Mreg = Sm_mergeable.Mregister.Make (Str_elt)
module Mq = Sm_mergeable.Mqueue.Make (Int_elt)
module Mstk = Sm_mergeable.Mstack.Make (Int_elt)
module Mset = Sm_mergeable.Mset.Make (Int_elt)
module Mmap = Sm_mergeable.Mmap.Make (Str_elt) (Int_elt)
module Mtree = Sm_mergeable.Mtree.Make (Str_elt)

(* one fixture key per mergeable type, minted once *)
let nk_counter = Mcounter.key ~name:"nine.counter"
let nk_reg = Mreg.key ~name:"nine.reg"
let nk_text = Mtext.key ~name:"nine.text"
let nk_list = Mlist.key ~name:"nine.list"
let nk_queue = Mq.key ~name:"nine.queue"
let nk_stack = Mstk.key ~name:"nine.stack"
let nk_set = Mset.key ~name:"nine.set"
let nk_map = Mmap.key ~name:"nine.map"
let nk_tree = Mtree.key ~name:"nine.tree"
let nk_lazy = Mlist.key ~name:"nine.lazy"

let make_nine () =
  let ws = Ws.create () in
  Ws.init ws nk_counter 7;
  Ws.init ws nk_reg "init";
  Mtext.init ws nk_text "the quick brown fox";
  Ws.init ws nk_list [ 1; 2; 3 ];
  Ws.init ws nk_queue [ 10; 11 ];
  Ws.init ws nk_stack [ 20; 21 ];
  Ws.init ws nk_set Mset.Op.Elt_set.(add 1 (add 2 empty));
  Ws.init ws nk_map Mmap.Op.Key_map.(add "a" 1 (add "b" 2 empty));
  Ws.init ws nk_tree [ Mtree.Op.branch "root" [ Mtree.Op.leaf "kid" ] ];
  ws

(* one distinguishable write per type *)
let mutate_all ws n =
  Mcounter.add ws nk_counter n;
  Mreg.set ws nk_reg (Printf.sprintf "v%d" n);
  Mtext.append ws nk_text (string_of_int n);
  Mlist.append ws nk_list n;
  Mq.push ws nk_queue n;
  Mstk.push ws nk_stack n;
  Mset.add ws nk_set n;
  Mmap.put ws nk_map "k" n;
  Mtree.insert ws nk_tree [ 0; 0 ] (Mtree.Op.leaf (Printf.sprintf "n%d" n))

let with_metrics f =
  let saved = M.is_enabled () in
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled saved) f

let hits () = M.value Ws.cow_hits
let check_int name expected got = Alcotest.(check int) name expected got

let spawn_zero_copy () =
  with_metrics @@ fun () ->
  let ws = make_nine () in
  let h0 = hits () in
  let child = Ws.copy ws in
  check_int "nine cells travel" 9 (Ws.cell_count child);
  check_int "spawn costs no cow hits" 0 (hits () - h0);
  (* the child aliases the parent's persistent states outright *)
  check_bool "text state shared" (Mtext.state ws nk_text == Mtext.state child nk_text);
  check_bool "list state shared" (Mlist.get ws nk_list == Mlist.get child nk_list);
  check_bool "tree state shared" (Mtree.get ws nk_tree == Mtree.get child nk_tree);
  check_bool "identical observations on both sides" (Ws.equal ws child);
  check_bool "identical digests" (String.equal (Ws.digest ws) (Ws.digest child));
  check_int "reading costs no cow hits either" 0 (hits () - h0)

let cow_hit_on_first_write () =
  with_metrics @@ fun () ->
  let ws = make_nine () in
  let child = Ws.copy ws in
  let h0 = hits () in
  Mtext.append child nk_text "!";
  let after_first = hits () - h0 in
  Mtext.append child nk_text "?";
  let after_second = hits () - h0 in
  check_int "first write privatizes the cell once" 1 after_first;
  check_int "later writes are free" 1 after_second;
  Mtext.append ws nk_text "~";
  check_int "the parent's first write also counts" 2 (hits () - h0);
  check_bool "the texts diverged"
    (not (String.equal (Mtext.get child nk_text) (Mtext.get ws nk_text)))

let write_isolation_nine () =
  let ws = make_nine () in
  let child = Ws.copy ws in
  let parent_digest = Ws.digest ws in
  mutate_all child 42;
  check_bool "child writes invisible to the parent (all nine types)"
    (String.equal parent_digest (Ws.digest ws));
  let child_digest = Ws.digest child in
  mutate_all ws 77;
  check_bool "parent writes invisible to the child (all nine types)"
    (String.equal child_digest (Ws.digest child));
  check_bool "both sides really diverged" (not (Ws.equal ws child))

let copy_chain_zero_copy () =
  with_metrics @@ fun () ->
  let ws = make_nine () in
  let d0 = Ws.digest ws in
  let h0 = hits () in
  let deepest = List.fold_left (fun w _ -> Ws.copy w) ws (List.init 20 Fun.id) in
  check_int "20-deep spawn chain: no cow hits" 0 (hits () - h0);
  check_bool "and the root's text is shared"
    (Mtext.state ws nk_text == Mtext.state deepest nk_text);
  check_bool "deepest copy digests like the root" (String.equal d0 (Ws.digest deepest));
  let h1 = hits () in
  Mcounter.incr deepest nk_counter;
  check_int "one hit at the deepest only" 1 (hits () - h1);
  check_bool "the root never noticed" (String.equal d0 (Ws.digest ws))

let clone_trimmed_chain () =
  let ws = make_nine () in
  mutate_all ws 5;
  let d0 = Ws.digest ws in
  let v0 = Ws.version_of ws nk_text in
  let c1 = Ws.clone_trimmed ws in
  let c2 = Ws.clone_trimmed c1 in
  let c3 = Ws.clone_full c2 in
  check_bool "clone_trimmed preserves the digest" (String.equal d0 (Ws.digest c1));
  check_bool "clone-of-clone preserves it too" (String.equal d0 (Ws.digest c2));
  check_bool "clone_full of the chain as well" (String.equal d0 (Ws.digest c3));
  check_int "versions preserved through the chain" v0 (Ws.version_of c2 nk_text);
  check_bool "trimmed clones are pristine" (Ws.is_pristine c1 && Ws.is_pristine c2);
  check_int "trimmed journals answer only from the head" 0
    (List.length (Ws.journal_since c2 nk_text ~version:v0));
  mutate_all c2 9;
  check_bool "chain isolation: earlier clone unchanged" (String.equal d0 (Ws.digest c1));
  check_bool "chain isolation: the root unchanged" (String.equal d0 (Ws.digest ws))

let lazy_merge_materializes () =
  let ws = Ws.create () in
  Ws.init ws nk_lazy [ 0 ];
  let child = Ws.copy ws in
  Mlist.append ws nk_lazy 1;
  Mlist.append child nk_lazy 2;
  let expected =
    C.apply_seq [ 0 ]
      (C.merge ~applied:(Ws.journal ws nk_lazy)
         ~children:[ Ws.journal child nk_lazy ]
         ~tie:Sm_ot.Side.serialization)
  in
  Ws.merge_child ~parent:ws ~child;
  check_int "merge journals without observing" 2 (Ws.version_of ws nk_lazy);
  check_bool "observation materializes the merged suffix" (Mlist.get ws nk_lazy = expected);
  (* a lazily merged suffix survives truncation: the clamp keeps everything
     at or above the applied watermark *)
  let child2 = Ws.copy ws in
  Mlist.append child2 nk_lazy 9;
  Ws.merge_child ~parent:ws ~child:child2;
  Ws.truncate_to_min ws ~children:[];
  check_bool "truncation keeps the unapplied suffix readable"
    (Mlist.get ws nk_lazy = expected @ [ 9 ])

(* A key carries its cell witness, so reading a forced cell is one map
   lookup: no option, no boxed binding.  The window's own cost (two counter
   reads) is measured empty and subtracted; the best of three windows keeps
   another thread's allocation out of the reading. *)
let forced_read_allocates_nothing () =
  let ws = Ws.create () in
  Ws.init ws nk_lazy [ 1; 2; 3 ];
  Mlist.append ws nk_lazy 4;
  ignore (Mlist.get ws nk_lazy);
  let window f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let reads () =
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (Ws.read ws nk_lazy))
    done
  in
  let best f = List.fold_left min infinity (List.init 3 (fun _ -> window f)) in
  let words = best reads -. best ignore in
  check_int "minor words allocated by 10k reads of a forced cell" 0 (int_of_float words)

let suite =
  [ workspace_matches_control
  ; rebase_reproduces_parent
  ; pristine_merge_is_noop
  ; truncate_then_merge
  ; Alcotest.test_case "spawn shares all nine types with zero copies" `Quick spawn_zero_copy
  ; Alcotest.test_case "first write costs exactly one cow hit" `Quick cow_hit_on_first_write
  ; Alcotest.test_case "write isolation across all nine types" `Quick write_isolation_nine
  ; Alcotest.test_case "20-deep copy chains share until written" `Quick copy_chain_zero_copy
  ; Alcotest.test_case "clone chains preserve digests and versions" `Quick clone_trimmed_chain
  ; Alcotest.test_case "lazy merges materialize on observation" `Quick lazy_merge_materializes
  ; Alcotest.test_case "reads of a forced cell allocate nothing" `Quick
      forced_read_allocates_nothing
  ]
