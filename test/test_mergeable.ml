(* Workspace semantics: journaling, copy isolation, OT merging, rebasing,
   truncation, digests — plus every mergeable data structure's helpers and a
   user-defined mergeable type exercising the extension interface. *)

open Test_support
module Ws = Sm_mergeable.Workspace
module Mlist = Sm_mergeable.Mlist.Make (Str_elt)
module Mqueue = Sm_mergeable.Mqueue.Make (Int_elt)
module Mcounter = Sm_mergeable.Mcounter
module Mregister = Sm_mergeable.Mregister.Make (Str_elt)
module Mset = Sm_mergeable.Mset.Make (Int_elt)
module Mmap = Sm_mergeable.Mmap.Make (Str_elt) (Int_elt)
module Mtext = Sm_mergeable.Mtext
module Mtree = Sm_mergeable.Mtree.Make (Str_elt)

(* A custom mergeable type: a max-register (state is an int, operations can
   only raise it; concurrent raises commute).  Demonstrates the paper's
   "interface to implement new mergeable data structures". *)
module Max_register = struct
  type state = int
  type op = Raise_to of int

  let type_name = "max-register"
  let apply s (Raise_to n) = max s n
  let transform a ~against:_ ~tie:_ = [ a ]

  (* identity compaction / no commute hint: the sound defaults *)
  include Sm_ot.Op_sig.Default
  let equal_state = Int.equal
  let pp_state = Format.pp_print_int
  let pp_op ppf (Raise_to n) = Format.fprintf ppf "raise_to(%d)" n
end

let fresh_list () =
  let k = Mlist.key ~name:"l" in
  let ws = Ws.create () in
  Ws.init ws k [ "a"; "b"; "c" ];
  (ws, k)

let workspace_basics () =
  let ws, k = fresh_list () in
  Alcotest.(check (list string)) "read" [ "a"; "b"; "c" ] (Ws.read ws k);
  Alcotest.(check int) "version 0" 0 (Ws.version_of ws k);
  Mlist.append ws k "d";
  Alcotest.(check (list string)) "applied" [ "a"; "b"; "c"; "d" ] (Ws.read ws k);
  Alcotest.(check int) "version 1" 1 (Ws.version_of ws k);
  Alcotest.(check (list string)) "key names" [ "l" ] (Ws.key_names ws);
  check_bool "mem" (Ws.mem ws k);
  check_bool "not pristine" (not (Ws.is_pristine ws));
  Alcotest.check_raises "double init" (Ws.Already_bound "l") (fun () -> Ws.init ws k []);
  let other = Mlist.key ~name:"other" in
  Alcotest.check_raises "unbound" (Ws.Unbound_key "other") (fun () -> ignore (Ws.read ws other))

let copy_isolation () =
  let ws, k = fresh_list () in
  let child = Ws.copy ws in
  Mlist.append child k "x";
  Alcotest.(check (list string)) "parent untouched" [ "a"; "b"; "c" ] (Ws.read ws k);
  Alcotest.(check (list string)) "child changed" [ "a"; "b"; "c"; "x" ] (Ws.read child k);
  Alcotest.(check int) "child journal independent" 0 (Ws.version_of ws k);
  check_bool "copy is pristine" (Ws.is_pristine (Ws.copy ws))

(* Listing 1 at the workspace level: parent appends 4, child appends 5,
   merge produces [1;2;3;4;5]. *)
let listing1_merge () =
  let k = Mlist.key ~name:"listing1" in
  let ws = Ws.create () in
  Ws.init ws k [ "1"; "2"; "3" ];
  let child = Ws.copy ws in
  Mlist.append child k "5";
  Mlist.append ws k "4";
  Ws.merge_child ~parent:ws ~child;
  Alcotest.(check (list string)) "merged" [ "1"; "2"; "3"; "4"; "5" ] (Ws.read ws k)

let two_children_merge_order () =
  let k = Mlist.key ~name:"order" in
  let ws = Ws.create () in
  Ws.init ws k [];
  let c1 = Ws.copy ws and c2 = Ws.copy ws in
  Mlist.append c1 k "first";
  Mlist.append c2 k "second";
  Ws.merge_child ~parent:ws ~child:c1;
  Ws.merge_child ~parent:ws ~child:c2;
  Alcotest.(check (list string)) "merge order" [ "first"; "second" ] (Ws.read ws k)

let register_last_merged_wins () =
  let k = Mregister.key ~name:"reg" in
  let ws = Ws.create () in
  Ws.init ws k "initial";
  let c1 = Ws.copy ws and c2 = Ws.copy ws in
  Mregister.set c1 k "from-c1";
  Mregister.set c2 k "from-c2";
  Ws.merge_child ~parent:ws ~child:c1;
  Ws.merge_child ~parent:ws ~child:c2;
  Alcotest.(check string) "later merged wins" "from-c2" (Ws.read ws k)

let rebase_and_sync_cycle () =
  let k = Mcounter.key ~name:"n" in
  let ws = Ws.create () in
  Ws.init ws k 0;
  let child = Ws.copy ws in
  (* two sync rounds: child adds 1 per round, parent adds 10 per round *)
  for _ = 1 to 2 do
    Mcounter.incr child k;
    Mcounter.add ws k 10;
    Ws.merge_child ~parent:ws ~child;
    Ws.rebase_from child ~parent:ws
  done;
  Alcotest.(check int) "parent total" 22 (Ws.read ws k);
  Alcotest.(check int) "child sees fresh copy" 22 (Ws.read child k);
  check_bool "child pristine after rebase" (Ws.is_pristine child)

let key_created_in_child () =
  let k = Mlist.key ~name:"parent-key" in
  let fresh = Mcounter.key ~name:"child-key" in
  let ws = Ws.create () in
  Ws.init ws k [];
  let child = Ws.copy ws in
  Ws.init child fresh 7;
  Mcounter.incr child fresh;
  Ws.merge_child ~parent:ws ~child;
  Alcotest.(check int) "installed in parent" 8 (Ws.read ws fresh);
  (* a second child that also initialized it conflicts *)
  let conflicting = Ws.create () in
  Ws.init conflicting fresh 0;
  Alcotest.check_raises "conflicting init" (Ws.Already_bound "child-key") (fun () ->
      Ws.merge_child ~parent:ws ~child:conflicting)

let truncation () =
  let k = Mcounter.key ~name:"t" in
  let ws = Ws.create () in
  Ws.init ws k 0;
  (* a child taken before any parent activity: version-0 base *)
  let stale_child = Ws.copy ws in
  Mcounter.incr stale_child k;
  for _ = 1 to 10 do
    Mcounter.incr ws k
  done;
  let child = Ws.copy ws in
  Mcounter.add child k 5;
  (* keep only what the recent child needs *)
  Ws.truncate_to_min ws ~children:[ child ];
  Ws.merge_child ~parent:ws ~child;
  Alcotest.(check int) "merge after safe truncation" 15 (Ws.read ws k);
  (* the stale child's base now points into the truncated prefix *)
  check_bool "merge with pre-truncation base raises"
    (match Ws.merge_child ~parent:ws ~child:stale_child with
    | () -> false
    | exception Invalid_argument _ -> true)

let digest_and_equal () =
  let k = Mlist.key ~name:"d" in
  let mk contents =
    let ws = Ws.create () in
    Ws.init ws k contents;
    ws
  in
  let a = mk [ "x" ] and b = mk [ "x" ] and c = mk [ "y" ] in
  Alcotest.(check string) "equal states digest equal" (Ws.digest a) (Ws.digest b);
  check_bool "different states digest differently" (Ws.digest a <> Ws.digest c);
  check_bool "equal" (Ws.equal a b);
  check_bool "not equal" (not (Ws.equal a c));
  check_bool "cardinality respected" (not (Ws.equal a (Ws.create ())))

let custom_mergeable_type () =
  let k = Ws.create_key (module Max_register) ~name:"highwater" in
  let ws = Ws.create () in
  Ws.init ws k 0;
  let c1 = Ws.copy ws and c2 = Ws.copy ws in
  Ws.update c1 k (Max_register.Raise_to 42);
  Ws.update c2 k (Max_register.Raise_to 17);
  Ws.update ws k (Max_register.Raise_to 5);
  Ws.merge_child ~parent:ws ~child:c1;
  Ws.merge_child ~parent:ws ~child:c2;
  Alcotest.(check int) "max of all raises" 42 (Ws.read ws k)

(* --- per-structure helper coverage --------------------------------------- *)

let mlist_helpers () =
  let ws, k = fresh_list () in
  Mlist.insert ws k 1 "x";
  Mlist.set ws k 0 "A";
  Mlist.delete ws k 3;
  Alcotest.(check (list string)) "edits" [ "A"; "x"; "b" ] (Mlist.get ws k);
  Alcotest.(check int) "length" 3 (Mlist.length ws k);
  Alcotest.(check (option string)) "nth" (Some "x") (Mlist.nth ws k 1);
  Alcotest.(check (option string)) "nth out of range" None (Mlist.nth ws k 9)

let mqueue_helpers () =
  let k = Mqueue.key ~name:"q" in
  let ws = Ws.create () in
  Ws.init ws k [];
  check_bool "empty" (Mqueue.is_empty ws k);
  Alcotest.(check (option int)) "pop empty" None (Mqueue.pop ws k);
  Alcotest.(check int) "pop on empty journals nothing" 0 (Ws.version_of ws k);
  Mqueue.push ws k 1;
  Mqueue.push ws k 2;
  Alcotest.(check (option int)) "peek" (Some 1) (Mqueue.peek ws k);
  Alcotest.(check int) "length" 2 (Mqueue.length ws k);
  Alcotest.(check (option int)) "pop" (Some 1) (Mqueue.pop ws k);
  Alcotest.(check (list int)) "rest" [ 2 ] (Mqueue.get ws k)

let mstack_helpers () =
  let module Mstack = Sm_mergeable.Mstack.Make (Int_elt) in
  let k = Mstack.key ~name:"st" in
  let ws = Ws.create () in
  Ws.init ws k [];
  Alcotest.(check (option int)) "pop empty" None (Mstack.pop ws k);
  Alcotest.(check int) "pop on empty journals nothing" 0 (Ws.version_of ws k);
  Mstack.push ws k 1;
  Mstack.push ws k 2;
  Alcotest.(check (option int)) "peek top" (Some 2) (Mstack.peek ws k);
  Alcotest.(check int) "depth" 2 (Mstack.depth ws k);
  Alcotest.(check (option int)) "pop top" (Some 2) (Mstack.pop ws k);
  Alcotest.(check (list int)) "rest" [ 1 ] (Mstack.get ws k);
  (* two children pop the same top: only one removal after merging *)
  Mstack.push ws k 7;
  let c1 = Ws.copy ws and c2 = Ws.copy ws in
  Alcotest.(check (option int)) "c1 pops 7" (Some 7) (Mstack.pop c1 k);
  Alcotest.(check (option int)) "c2 pops 7" (Some 7) (Mstack.pop c2 k);
  Ws.merge_child ~parent:ws ~child:c1;
  Ws.merge_child ~parent:ws ~child:c2;
  Alcotest.(check (list int)) "one removal, 1 survives" [ 1 ] (Mstack.get ws k)

let mcounter_helpers () =
  let k = Mcounter.key ~name:"c" in
  let ws = Ws.create () in
  Ws.init ws k 10;
  Mcounter.incr ws k;
  Mcounter.decr ws k;
  Mcounter.add ws k 5;
  Alcotest.(check int) "value" 15 (Mcounter.get ws k)

let mset_helpers () =
  let k = Mset.key ~name:"s" in
  let ws = Ws.create () in
  Ws.init ws k Mset.Op.Elt_set.empty;
  Mset.add ws k 3;
  Mset.add ws k 1;
  Mset.add ws k 3;
  Mset.remove ws k 99;
  Alcotest.(check (list int)) "elements" [ 1; 3 ] (Mset.elements ws k);
  Alcotest.(check int) "cardinal" 2 (Mset.cardinal ws k);
  check_bool "mem" (Mset.mem ws k 1);
  Mset.remove ws k 1;
  check_bool "removed" (not (Mset.mem ws k 1))

let mmap_helpers () =
  let k = Mmap.key ~name:"m" in
  let ws = Ws.create () in
  Ws.init ws k Mmap.Op.Key_map.empty;
  Mmap.put ws k "a" 1;
  Mmap.put ws k "b" 2;
  Mmap.put ws k "a" 3;
  Mmap.remove ws k "b";
  Alcotest.(check (option int)) "find" (Some 3) (Mmap.find ws k "a");
  Alcotest.(check (option int)) "removed" None (Mmap.find ws k "b");
  Alcotest.(check int) "cardinal" 1 (Mmap.cardinal ws k);
  Alcotest.(check (list (pair string int))) "bindings" [ ("a", 3) ] (Mmap.bindings ws k)

let mtext_helpers () =
  let k = Mtext.key ~name:"txt" in
  let ws = Ws.create () in
  Mtext.init ws k "hello";
  Mtext.append ws k " world";
  Mtext.insert ws k 0 ">> ";
  Mtext.delete ws k ~pos:0 ~len:3;
  Mtext.insert ws k 2 "";
  Mtext.delete ws k ~pos:1 ~len:0;
  Alcotest.(check string) "contents" "hello world" (Mtext.get ws k);
  Alcotest.(check int) "length" 11 (Mtext.length ws k);
  Alcotest.(check int) "no-ops journal nothing" 3 (Ws.version_of ws k)

let mtree_helpers () =
  let k = Mtree.key ~name:"tree" in
  let ws = Ws.create () in
  Ws.init ws k [];
  Mtree.insert ws k [ 0 ] (Mtree.Op.branch "root" []);
  Mtree.insert ws k [ 0; 0 ] (Mtree.Op.leaf "kid");
  Mtree.relabel ws k [ 0; 0 ] "renamed";
  Alcotest.(check int) "size" 2 (Mtree.size ws k);
  Alcotest.(check (option string)) "find"
    (Some "renamed")
    (Option.map (fun n -> n.Mtree.Op.label) (Mtree.find ws k [ 0; 0 ]));
  Mtree.delete ws k [ 0 ];
  Alcotest.(check int) "deleted subtree" 0 (Mtree.size ws k)

let suite =
  [ Alcotest.test_case "workspace: init/read/update/version" `Quick workspace_basics
  ; Alcotest.test_case "workspace: copy isolation" `Quick copy_isolation
  ; Alcotest.test_case "workspace: listing 1 merge" `Quick listing1_merge
  ; Alcotest.test_case "workspace: merge order of children" `Quick two_children_merge_order
  ; Alcotest.test_case "workspace: register later-merged-wins" `Quick register_last_merged_wins
  ; Alcotest.test_case "workspace: sync-style rebase cycles" `Quick rebase_and_sync_cycle
  ; Alcotest.test_case "workspace: child-created keys" `Quick key_created_in_child
  ; Alcotest.test_case "workspace: journal truncation" `Quick truncation
  ; Alcotest.test_case "workspace: digest and equality" `Quick digest_and_equal
  ; Alcotest.test_case "workspace: custom mergeable type" `Quick custom_mergeable_type
  ; Alcotest.test_case "mlist helpers" `Quick mlist_helpers
  ; Alcotest.test_case "mqueue helpers" `Quick mqueue_helpers
  ; Alcotest.test_case "mstack helpers" `Quick mstack_helpers
  ; Alcotest.test_case "mcounter helpers" `Quick mcounter_helpers
  ; Alcotest.test_case "mset helpers" `Quick mset_helpers
  ; Alcotest.test_case "mmap helpers" `Quick mmap_helpers
  ; Alcotest.test_case "mtext helpers" `Quick mtext_helpers
  ; Alcotest.test_case "mtree helpers" `Quick mtree_helpers
  ]
