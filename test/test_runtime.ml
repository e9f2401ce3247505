(* The Spawn/Merge runtime: the paper's Listings 1-4 behaviours, determinism
   under adversarial thread timing, sync/clone/abort/validation semantics,
   and failure handling. *)

open Test_support
module R = Sm_core.Runtime
module Detcheck = Sm_core.Detcheck
module Ws = Sm_mergeable.Workspace
module Mlist = Sm_mergeable.Mlist.Make (Str_elt)
module Mcounter = Sm_mergeable.Mcounter
module Mregister = Sm_mergeable.Mregister.Make (Str_elt)
module Mqueue = Sm_mergeable.Mqueue.Make (Int_elt)
module Mtext = Sm_mergeable.Mtext

(* Module-level keys so digests are comparable across runs. *)
let kl = Mlist.key ~name:"list"
let kc = Mcounter.key ~name:"counter"
let kr = Mregister.key ~name:"register"
let kq = Mqueue.key ~name:"queue"
let kt = Mtext.key ~name:"text"

let ms n = Thread.delay (float_of_int n /. 1000.0)

(* Listing 1: child appends 5, parent appends 4, MergeAllFromSet, print
   [1;2;3;4;5]. *)
let listing1 () =
  let result =
    R.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kl [ "1"; "2"; "3" ];
        let t = R.spawn ctx (fun child -> Mlist.append (R.workspace child) kl "5") in
        Mlist.append ws kl "4";
        R.merge_all_from_set ctx [ t ];
        Mlist.get ws kl)
  in
  Alcotest.(check (list string)) "listing 1" [ "1"; "2"; "3"; "4"; "5" ] result

(* Children are merged in creation order even when they finish in reverse
   temporal order (staggered sleeps). *)
let merge_all_creation_order () =
  let result =
    R.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kl [];
        for i = 0 to 4 do
          ignore
            (R.spawn ctx (fun child ->
                 ms ((5 - i) * 4);
                 Mlist.append (R.workspace child) kl (string_of_int i)))
        done;
        R.merge_all ctx;
        Mlist.get ws kl)
  in
  Alcotest.(check (list string)) "creation order" [ "0"; "1"; "2"; "3"; "4" ] result

let merge_all_from_set_argument_order () =
  let result =
    R.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kl [];
        let handles =
          List.init 3 (fun i ->
              R.spawn ctx (fun child -> Mlist.append (R.workspace child) kl (string_of_int i)))
        in
        R.merge_all_from_set ctx (List.rev handles);
        Mlist.get ws kl)
  in
  Alcotest.(check (list string)) "argument order" [ "2"; "1"; "0" ] result

let merge_any_drains_children () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      for i = 1 to 3 do
        ignore (R.spawn ctx (fun child -> Mcounter.add (R.workspace child) kc i))
      done;
      let merged = ref 0 in
      let rec drain () =
        match R.merge_any ctx with
        | Some h ->
          incr merged;
          check_bool "merged child is retired" (R.status h = R.Retired);
          drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check int) "three merges" 3 !merged;
      Alcotest.(check int) "all contributions" 6 (Mcounter.get ws kc));
  Alcotest.(check unit) "done" () ()

let merge_any_empty_never_blocks () =
  R.run (fun ctx ->
      Alcotest.(check bool) "no children" false (R.has_children ctx);
      check_bool "merge_any" (R.merge_any ctx = None);
      check_bool "merge_any_from_set []" (R.merge_any_from_set ctx [] = None))

(* Listing 4's skeleton: a child loops on sync, accumulating both its own and
   the parent's increments; parent merges each round. *)
let sync_roundtrips () =
  let rounds = 4 in
  let observed = ref [] in
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      ignore
        (R.spawn ctx (fun child ->
             let cws = R.workspace child in
             for _ = 1 to rounds do
               Mcounter.incr cws kc;
               (match R.sync child with
               | Ok () -> observed := Mcounter.get cws kc :: !observed
               | Error _ -> Alcotest.fail "unexpected sync refusal")
             done));
      for _ = 1 to rounds do
        Mcounter.add ws kc 10;
        R.merge_all ctx
      done;
      R.merge_all ctx;
      Alcotest.(check int) "total" 44 (Mcounter.get ws kc));
  (* after each sync the child sees parent's 10s plus its own 1s *)
  Alcotest.(check (list int)) "child views" [ 11; 22; 33; 44 ] (List.rev !observed)

(* The timing-dependent mutex example from Section II.C: with Spawn/Merge the
   result is [1;2;3;4;5] no matter how long "DoSomething" takes. *)
let no_timing_dependence () =
  let run_with_delay d =
    R.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kl [ "1"; "2"; "3" ];
        let t = R.spawn ctx (fun child -> Mlist.append (R.workspace child) kl "5") in
        ms d;
        Mlist.append ws kl "4";
        R.merge_all_from_set ctx [ t ];
        Mlist.get ws kl)
  in
  Alcotest.(check (list string)) "no delay" [ "1"; "2"; "3"; "4"; "5" ] (run_with_delay 0);
  Alcotest.(check (list string)) "long DoSomething" [ "1"; "2"; "3"; "4"; "5" ] (run_with_delay 30)

let conflicting_registers_deterministic () =
  let program ctx =
    let ws = R.workspace ctx in
    Ws.init ws kr "initial";
    ignore (R.spawn ctx (fun c -> ms 7; Mregister.set (R.workspace c) kr "child-0"));
    ignore (R.spawn ctx (fun c -> Mregister.set (R.workspace c) kr "child-1"));
    R.merge_all ctx;
    Alcotest.(check string) "later creation wins" "child-1" (Mregister.get ws kr)
  in
  R.run program

let queue_merge_order () =
  let result =
    R.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kq [];
        ignore (R.spawn ctx (fun c -> ms 10; Mqueue.push (R.workspace c) kq 1));
        ignore (R.spawn ctx (fun c -> Mqueue.push (R.workspace c) kq 2));
        Mqueue.push ws kq 0;
        R.merge_all ctx;
        Mqueue.get ws kq)
  in
  Alcotest.(check (list int)) "parent then children in order" [ 0; 1; 2 ] result

let abort_discards () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 100;
      let errors = ref [] in
      let h =
        R.spawn ctx (fun child ->
            Mcounter.add (R.workspace child) kc 1;
            (match R.sync child with
            | Error R.Aborted -> errors := `First :: !errors
            | Ok () | Error R.Validation_failed -> Alcotest.fail "expected abort");
            (* keep going; still aborted *)
            Mcounter.add (R.workspace child) kc 1;
            match R.sync child with
            | Error R.Aborted -> errors := `Second :: !errors
            | Ok () | Error R.Validation_failed -> Alcotest.fail "expected abort")
      in
      R.abort ctx h;
      R.merge_all ctx;
      R.merge_all ctx;
      R.merge_all ctx;
      Alcotest.(check int) "changes discarded" 100 (Mcounter.get ws kc);
      Alcotest.(check int) "child saw both refusals" 2 (List.length !errors))

let validation_rollback () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      let refused = ref false in
      let h =
        R.spawn ctx (fun child ->
            Mcounter.add (R.workspace child) kc 999;
            (match R.sync child with
            | Error R.Validation_failed -> refused := true
            | Ok () | Error R.Aborted -> Alcotest.fail "expected validation failure");
            (* post-rebase the child is on fresh parent data; a small change
               now passes validation *)
            Mcounter.add (R.workspace child) kc 1)
      in
      let small ws = Mcounter.get ws kc < 100 in
      R.merge_all_from_set ~validate:small ctx [ h ];
      Alcotest.(check int) "big change rolled back" 0 (Mcounter.get ws kc);
      R.merge_all ~validate:small ctx;
      Alcotest.(check int) "small change accepted" 1 (Mcounter.get ws kc);
      check_bool "child observed refusal" !refused)

let failed_child_discarded () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      let h =
        R.spawn ctx (fun child ->
            Mcounter.add (R.workspace child) kc 5;
            failwith "task blew up")
      in
      R.merge_all ctx;
      Alcotest.(check int) "changes discarded" 0 (Mcounter.get ws kc);
      check_bool "status failed->retired" (R.status h = R.Retired);
      match R.error h with
      | Some (Failure msg) -> Alcotest.(check string) "exn preserved" "task blew up" msg
      | Some _ | None -> Alcotest.fail "expected recorded failure")

(* A child spawning grandchildren: completing the child implicitly merges
   them, and the parent sees the whole subtree's contributions. *)
let grandchildren_merge_upward () =
  let result =
    R.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kc 0;
        ignore
          (R.spawn ctx (fun child ->
               Mcounter.add (R.workspace child) kc 1;
               for _ = 1 to 3 do
                 ignore (R.spawn child (fun g -> Mcounter.add (R.workspace g) kc 10))
               done
               (* no explicit merge: completion runs the implicit MergeAll *)));
        R.merge_all ctx;
        Mcounter.get ws kc)
  in
  Alcotest.(check int) "subtree total" 31 result

let clone_creates_sibling () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      ignore
        (R.spawn ctx (fun accept ->
             (* pristine: clones allowed *)
             ignore (R.clone accept (fun conn -> Mcounter.add (R.workspace conn) kc 7))));
      (* both the accept task and the cloned sibling are children of root *)
      let merged = ref 0 in
      let rec drain () = match R.merge_any ctx with Some _ -> incr merged; drain () | None -> () in
      drain ();
      Alcotest.(check int) "two children retired" 2 !merged;
      Alcotest.(check int) "clone's work merged" 7 (Mcounter.get ws kc))

(* A clone merges against its cloner's base, not the parent's current
   versions (a counter sums the same under any base, so this uses text).
   Under Coop the root's insert lands before the clone, so a sibling based
   at the root's current versions would end at "Xasb". *)
let clone_merges_against_cloner_base () =
  let program ctx =
    let ws = R.workspace ctx in
    Mtext.init ws kt "ab";
    ignore
      (R.spawn ctx (fun task ->
           ignore (R.clone task (fun sibling -> Mtext.append (R.workspace sibling) kt "s"))));
    Mtext.insert ws kt 0 "X";
    while R.has_children ctx do
      R.merge_all ctx
    done;
    Mtext.get ws kt
  in
  Alcotest.(check string) "threaded" "Xabs" (R.run program);
  Alcotest.(check string) "cooperative" "Xabs" (R.Coop.run program)

let clone_requires_pristine () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      let saw = ref None in
      ignore
        (R.spawn ctx (fun child ->
             Mcounter.incr (R.workspace child) kc;
             match R.clone child (fun _ -> ()) with
             | (_ : R.handle) -> saw := Some `Allowed
             | exception Invalid_argument _ -> saw := Some `Refused));
      R.merge_all ctx;
      check_bool "clone with dirty workspace refused" (!saw = Some `Refused))

let root_restrictions () =
  R.run (fun ctx ->
      check_bool "sync from root" (match R.sync ctx with _ -> false | exception Invalid_argument _ -> true);
      check_bool "clone from root"
        (match R.clone ctx (fun _ -> ()) with _ -> false | exception Invalid_argument _ -> true))

let not_a_child () =
  R.run (fun ctx ->
      let h = R.spawn ctx (fun _ -> ()) in
      ignore
        (R.spawn ctx (fun other ->
             match R.merge_all_from_set other [ h ] with
             | () -> Alcotest.fail "expected Not_a_child"
             | exception R.Not_a_child _ -> ()));
      R.merge_all ctx)

(* Determinism oracle: a program full of scheduling noise (sleeps, many
   children, counter + list + register writes) digests identically across
   repeated runs. *)
let oracle_program ctx =
  let ws = R.workspace ctx in
  Ws.init ws kl [];
  Ws.init ws kc 0;
  Ws.init ws kr "r0";
  for i = 0 to 7 do
    ignore
      (R.spawn ctx (fun child ->
           let cws = R.workspace child in
           ms (7 - i);
           Mlist.append cws kl (string_of_int i);
           Mcounter.add cws kc i;
           Mregister.set cws kr (Printf.sprintf "r%d" i)))
  done;
  R.merge_all ctx

let deterministic_under_noise () =
  check_bool "digests agree across runs" (Detcheck.deterministic ~runs:4 oracle_program)

(* a sleep-free variant of the oracle program for the cross-scheduler check *)
let oracle_program_pure ctx =
  let ws = R.workspace ctx in
  Ws.init ws kl [];
  Ws.init ws kc 0;
  for i = 0 to 7 do
    ignore
      (R.spawn ctx (fun child ->
           let cws = R.workspace child in
           Mlist.append cws kl (string_of_int i);
           Mcounter.add cws kc i))
  done;
  R.merge_all ctx

let deterministic_across_schedulers () =
  check_bool "threaded digests = cooperative digest"
    (Detcheck.cross_scheduler ~runs:3 oracle_program_pure)

let stress_many_children () =
  let n = 60 in
  let result =
    R.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kc 0;
        for _ = 1 to n do
          ignore (R.spawn ctx (fun c -> Mcounter.incr (R.workspace c) kc))
        done;
        R.merge_all ctx;
        Mcounter.get ws kc)
  in
  Alcotest.(check int) "every increment merged" n result

let names_are_hierarchical () =
  R.run (fun ctx ->
      Alcotest.(check string) "root name" "root" (R.task_name ctx);
      let first = R.spawn ctx (fun child ->
          Alcotest.(check string) "child sees own name" "root/0" (R.task_name child);
          let grand = R.spawn child (fun _ -> ()) in
          Alcotest.(check string) "grandchild" "root/0/0" (R.handle_name grand))
      in
      let second = R.spawn ctx (fun _ -> ()) in
      Alcotest.(check string) "first child" "root/0" (R.handle_name first);
      Alcotest.(check string) "second child" "root/1" (R.handle_name second);
      check_bool "has children" (R.has_children ctx);
      R.merge_all ctx;
      check_bool "none left" (not (R.has_children ctx)))

let run_propagates_body_exception () =
  check_bool "exception surfaces"
    (match R.run (fun _ -> failwith "root boom") with
    | () -> false
    | exception Failure msg -> msg = "root boom")

let duplicate_handles_in_set () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      let h = R.spawn ctx (fun c -> Mcounter.incr (R.workspace c) kc) in
      (* the same handle three times must merge exactly once *)
      R.merge_all_from_set ctx [ h; h; h ];
      Alcotest.(check int) "merged once" 1 (Mcounter.get ws kc);
      check_bool "retired" (R.status h = R.Retired);
      (* retired handles are silently skipped *)
      R.merge_all_from_set ctx [ h ])

let subset_merge_leaves_others () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      let gate = Sm_util.Bqueue.create () in
      let slow =
        R.spawn ctx (fun c ->
            (match Sm_util.Bqueue.pop gate with Some () -> () | None -> ());
            Mcounter.add (R.workspace c) kc 100)
      in
      let fast = R.spawn ctx (fun c -> Mcounter.incr (R.workspace c) kc) in
      (* merging only [fast] must not wait for or touch [slow] *)
      R.merge_all_from_set ctx [ fast ];
      Alcotest.(check int) "fast merged" 1 (Mcounter.get ws kc);
      check_bool "slow still running" (R.status slow = R.Running);
      Sm_util.Bqueue.push gate ();
      R.merge_all ctx;
      Alcotest.(check int) "slow merged later" 101 (Mcounter.get ws kc))

let deep_hierarchy () =
  (* four generations; each level contributes, everything flows to the root *)
  let result =
    R.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kc 0;
        let rec descend ctx depth =
          Mcounter.add (R.workspace ctx) kc 1;
          if depth > 0 then begin
            ignore (R.spawn ctx (fun child -> descend child (depth - 1)));
            ignore (R.spawn ctx (fun child -> descend child (depth - 1)))
          end
          (* implicit merge_all collects the children *)
        in
        ignore (R.spawn ctx (fun child -> descend child 3));
        R.merge_all ctx;
        Mcounter.get ws kc)
  in
  (* a full binary tree of depth 3 rooted at one task: 1+2+4+8 = 15 *)
  Alcotest.(check int) "all generations merged" 15 result

let validate_on_merge_any () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      ignore (R.spawn ctx (fun c -> Mcounter.add (R.workspace c) kc 7));
      let validate w = Mcounter.get w kc < 5 in
      (match R.merge_any ~validate ctx with
      | Some h -> check_bool "returned the refused child" (R.status h = R.Retired)
      | None -> Alcotest.fail "expected a merge");
      Alcotest.(check int) "rejected by validation" 0 (Mcounter.get ws kc))

let abort_sync_waiting_child () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      let outcome = ref None in
      let h =
        R.spawn ctx (fun child ->
            Mcounter.incr (R.workspace child) kc;
            outcome := Some (R.sync child))
      in
      (* let the child reach sync, then abort it while parked *)
      let rec wait_parked () = if R.status h <> R.Sync_waiting then (Thread.yield (); wait_parked ()) in
      wait_parked ();
      R.abort ctx h;
      R.merge_all ctx;
      R.merge_all ctx;
      Alcotest.(check int) "discarded" 0 (Mcounter.get ws kc);
      check_bool "child saw the abort" (!outcome = Some (Error R.Aborted)))

let merge_any_from_set_subset_only () =
  R.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      let a = R.spawn ctx (fun c -> Mcounter.add (R.workspace c) kc 1) in
      let b =
        R.spawn ctx (fun c ->
            Thread.delay 0.005;
            Mcounter.add (R.workspace c) kc 10)
      in
      (match R.merge_any_from_set ctx [ a ] with
      | Some h -> check_bool "merged a" (h == a)
      | None -> Alcotest.fail "expected a");
      (* b untouched by the subset call *)
      check_bool "b live" (R.status b <> R.Retired);
      R.merge_all ctx;
      Alcotest.(check int) "both merged in the end" 11 (Mcounter.get ws kc))

let same_digest_across_domain_counts () =
  let digests =
    List.map
      (fun domains ->
        with_executor ~domains (fun executor -> Detcheck.digest_of_run ~executor oracle_program))
      [ 1; 2; 3 ]
  in
  match digests with
  | d :: rest -> List.iter (fun d' -> Alcotest.(check string) "domain-count invariant" d d') rest
  | [] -> assert false

(* A refused sync hands the child exactly the parent's keys and state: the
   key the child minted is gone, and the key it wrote reads at the parent's
   state.  The merge after it therefore installs nothing in the parent. *)
let kminted = Mcounter.key ~name:"minted-in-child"

let refused_sync_takes_parent_keys () =
  let program ctx =
    let ws = R.workspace ctx in
    Ws.init ws kc 5;
    let seen = ref None in
    ignore
      (R.spawn ctx (fun child ->
           let cws = R.workspace child in
           Ws.init cws kminted 1;
           Mcounter.add cws kc 100;
           let outcome = R.sync child in
           seen := Some (outcome, Ws.mem cws kminted, Mcounter.get cws kc)));
    Mcounter.add ws kc 2;
    R.merge_all ~validate:(fun _ -> false) ctx;
    R.merge_all ctx;
    (!seen, Ws.mem ws kminted, Mcounter.get ws kc)
  in
  List.iter
    (fun (scheduler, run) ->
      let seen, parent_minted, parent_kc = run program in
      check_bool (scheduler ^ ": sync refused")
        (Option.map (fun (o, _, _) -> o) seen = Some (Error R.Validation_failed));
      check_bool (scheduler ^ ": minted key dropped")
        (Option.map (fun (_, m, _) -> m) seen = Some false);
      Alcotest.(check (option int)) (scheduler ^ ": written key at the parent's state") (Some 7)
        (Option.map (fun (_, _, v) -> v) seen);
      check_bool (scheduler ^ ": parent never gains the key") (not parent_minted);
      Alcotest.(check int) (scheduler ^ ": parent state") 7 parent_kc)
    [ ("threaded", fun p -> R.run p); ("cooperative", fun p -> R.Coop.run p) ]

let suite =
  [ Alcotest.test_case "listing 1 quickstart" `Quick listing1
  ; Alcotest.test_case "merge_all: creation order beats timing" `Quick merge_all_creation_order
  ; Alcotest.test_case "merge_all_from_set: argument order" `Quick merge_all_from_set_argument_order
  ; Alcotest.test_case "merge_any: drains children" `Quick merge_any_drains_children
  ; Alcotest.test_case "merge_any: never blocks on nothing" `Quick merge_any_empty_never_blocks
  ; Alcotest.test_case "sync: listing 4 roundtrips" `Quick sync_roundtrips
  ; Alcotest.test_case "section II.C: no timing dependence" `Quick no_timing_dependence
  ; Alcotest.test_case "registers: deterministic conflict winner" `Quick conflicting_registers_deterministic
  ; Alcotest.test_case "queues: merge-order pushes" `Quick queue_merge_order
  ; Alcotest.test_case "abort: changes discarded, child notified" `Quick abort_discards
  ; Alcotest.test_case "validate: transactional rollback" `Quick validation_rollback
  ; Alcotest.test_case "failure: exception discards task" `Quick failed_child_discarded
  ; Alcotest.test_case "grandchildren: implicit merge_all" `Quick grandchildren_merge_upward
  ; Alcotest.test_case "clone: sibling creation" `Quick clone_creates_sibling
  ; Alcotest.test_case "clone: requires pristine workspace" `Quick clone_requires_pristine
  ; Alcotest.test_case "root: sync/clone rejected" `Quick root_restrictions
  ; Alcotest.test_case "merge: foreign handles rejected" `Quick not_a_child
  ; Alcotest.test_case "determinism oracle under noise" `Slow deterministic_under_noise
  ; Alcotest.test_case "determinism across schedulers" `Quick deterministic_across_schedulers
  ; Alcotest.test_case "stress: 60 children" `Quick stress_many_children
  ; Alcotest.test_case "run: body exception propagates" `Quick run_propagates_body_exception
  ; Alcotest.test_case "task names are hierarchical and stable" `Quick names_are_hierarchical
  ; Alcotest.test_case "from_set: duplicate handles merge once" `Quick duplicate_handles_in_set
  ; Alcotest.test_case "from_set: subset leaves others running" `Quick subset_merge_leaves_others
  ; Alcotest.test_case "hierarchy: four generations" `Quick deep_hierarchy
  ; Alcotest.test_case "merge_any: validation applies" `Quick validate_on_merge_any
  ; Alcotest.test_case "abort: reaches a parked child" `Quick abort_sync_waiting_child
  ; Alcotest.test_case "merge_any_from_set: stays in subset" `Quick merge_any_from_set_subset_only
  ; Alcotest.test_case "digests invariant across domain counts" `Slow same_digest_across_domain_counts
  ; Alcotest.test_case "clone: merges against the cloner's base" `Quick
      clone_merges_against_cloner_base
  ; Alcotest.test_case "sync: a refused child takes the parent's key set" `Quick
      refused_sync_takes_parent_keys
  ]
