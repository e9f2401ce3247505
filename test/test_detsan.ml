(* The determinism sanitizer (Sm_check.Detsan) and the Detcheck additions
   that ride along with it: the explained oracle and the cross_scheduler
   watchdog. *)

open Test_support
module Rt = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace
module Mc = Sm_mergeable.Mcounter
module Detsan = Sm_check.Detsan
module Detcheck = Sm_core.Detcheck

(* keys minted once, at module level — the clean pattern DetSan enforces *)
let k = Mc.key ~name:"test_detsan.counter"
let tags hazards = List.map Detsan.hazard_tag hazards

(* --- hazard detection ------------------------------------------------------ *)

let clean_is_clean () =
  let hazards, digest =
    Detsan.run (fun ctx ->
        Ws.init (Rt.workspace ctx) k 0;
        let a = Rt.spawn ctx (fun c -> Mc.incr (Rt.workspace c) k) in
        let b = Rt.spawn ctx (fun c -> Mc.add (Rt.workspace c) k 2) in
        Rt.merge_all_from_set ctx [ a; b ])
  in
  check_bool "no hazards" (hazards = []);
  check_bool "digest computed" (String.length digest > 0)

let merge_any_flagged () =
  let hazards, _ =
    Detsan.run (fun ctx ->
        Ws.init (Rt.workspace ctx) k 0;
        let _a = Rt.spawn ctx (fun c -> Mc.incr (Rt.workspace c) k) in
        let _b = Rt.spawn ctx (fun c -> Mc.incr (Rt.workspace c) k) in
        ignore (Rt.merge_any ctx);
        Rt.merge_all ctx)
  in
  check_bool "nondet-merge flagged" (List.mem "nondet-merge" (tags hazards))

let key_minted_in_task_flagged () =
  let hazards, _ =
    Detsan.run (fun ctx ->
        let fresh = Mc.key ~name:"test_detsan.fresh" in
        Ws.init (Rt.workspace ctx) fresh 1)
  in
  match List.filter (function Detsan.Key_minted_in_task _ -> true | _ -> false) hazards with
  | [ Detsan.Key_minted_in_task { key; tasks } ] ->
    check_bool "names the key" (key = "test_detsan.fresh");
    check_bool "task provenance" (tasks <> [])
  | _ -> Alcotest.fail "expected exactly one key-in-task hazard"

let unmerged_children_flagged () =
  let hazards, _ =
    Detsan.run (fun ctx ->
        Ws.init (Rt.workspace ctx) k 0;
        ignore (Rt.spawn ctx (fun c -> Mc.incr (Rt.workspace c) k)))
  in
  match List.filter (function Detsan.Unmerged_children _ -> true | _ -> false) hazards with
  | [ Detsan.Unmerged_children { task; children } ] ->
    check_bool "root is the offender" (task = "root");
    check_bool "child named" (List.length children = 1)
  | _ -> Alcotest.fail "expected exactly one unmerged-children hazard"

let op_after_digest_flagged () =
  let hazards, _ =
    Detsan.run (fun ctx ->
        let ws = Rt.workspace ctx in
        Ws.init ws k 0;
        ignore (Ws.digest ws);
        Mc.incr ws k)
  in
  check_bool "op-after-digest flagged" (List.mem "op-after-digest" (tags hazards))

(* Hazards are deduplicated: merge_any in a loop is one finding. *)
let hazards_dedup () =
  let hazards, _ =
    Detsan.run (fun ctx ->
        Ws.init (Rt.workspace ctx) k 0;
        for _ = 1 to 4 do
          let _h = Rt.spawn ctx (fun c -> Mc.incr (Rt.workspace c) k) in
          ignore (Rt.merge_any ctx)
        done)
  in
  check_bool "one finding, not four"
    (List.length (List.filter (String.equal "nondet-merge") (tags hazards)) = 1)

(* Explicit merges mean no sanitizer noise: the same program with merge_all
   instead of merge_any is hazard-free, and the digest is reproducible. *)
let sanitized_program_still_deterministic () =
  let program ctx =
    Ws.init (Rt.workspace ctx) k 0;
    let a = Rt.spawn ctx (fun c -> Mc.add (Rt.workspace c) k 3) in
    let b = Rt.spawn ctx (fun c -> Mc.add (Rt.workspace c) k 4) in
    Rt.merge_all_from_set ctx [ a; b ]
  in
  let h1, d1 = Detsan.run program in
  let h2, d2 = Detsan.run program in
  check_bool "clean twice" (h1 = [] && h2 = []);
  check_bool "same digest" (String.equal d1 d2)

(* observe uninstalls its hook even on exceptions: a later run must not
   inherit a stale listener. *)
let observe_uninstalls () =
  (try ignore (Detsan.observe (fun () -> failwith "boom")) with Failure _ -> ());
  check_bool "sanitizer hook gone" (not (Ws.Sanitizer_hook.active ()))

(* --- Detcheck.deterministic_explained -------------------------------------- *)

let explained_ok () =
  let program ctx =
    Ws.init (Rt.workspace ctx) k 0;
    let a = Rt.spawn ctx (fun c -> Mc.incr (Rt.workspace c) k) in
    Rt.merge_all_from_set ctx [ a ]
  in
  match Detcheck.deterministic_explained ~runs:3 program with
  | Ok () -> ()
  | Error d -> Alcotest.failf "unexpected divergence: %s" (Format.asprintf "%a" Detcheck.pp_divergence d)

let explained_names_the_run () =
  (* deterministically divergent: the program reads cross-run mutable state,
     so run 1 is the first to differ from run 0 *)
  let calls = ref 0 in
  let program ctx =
    incr calls;
    Ws.init (Rt.workspace ctx) k !calls
  in
  match Detcheck.deterministic_explained ~runs:3 program with
  | Ok () -> Alcotest.fail "expected divergence"
  | Error d ->
    check_bool "first diverging run" (d.run_index = 1);
    check_bool "digest differs from reference" (not (String.equal d.digest d.reference))

(* --- Detcheck.cross_scheduler watchdog ------------------------------------- *)

let cross_scheduler_ok () =
  let program ctx =
    Ws.init (Rt.workspace ctx) k 0;
    let a = Rt.spawn ctx (fun c -> Mc.add (Rt.workspace c) k 5) in
    Rt.merge_all_from_set ctx [ a ]
  in
  check_bool "converges across schedulers" (Detcheck.cross_scheduler ~timeout_s:30. ~runs:2 program)

let cross_scheduler_timeout () =
  (* A program that blocks its OS thread forever: under the cooperative
     scheduler this can never be preempted, so without the watchdog the
     check would stall.  ISSUE 3 satellite: it must fail with a diagnostic
     instead.  (The stuck worker thread is abandoned by design.) *)
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let program ctx =
    Ws.init (Rt.workspace ctx) k 0;
    Mutex.lock mu;
    while true do
      Condition.wait cond mu
    done
  in
  match Detcheck.cross_scheduler ~timeout_s:0.2 ~runs:2 program with
  | (_ : bool) -> Alcotest.fail "expected Timeout"
  | exception Detcheck.Timeout diag -> check_bool "diagnostic present" (String.length diag > 0)

(* A hazard is a crash-grade moment: DetSan must freeze every flight ring
   into a post-mortem snapshot the instant it fires, so the fuzz report can
   embed the last-N events that led up to it. *)
let hazard_triggers_flight_dump () =
  Fun.protect ~finally:(fun () -> Sm_obs.Flight_recorder.reset ())
  @@ fun () ->
  Sm_obs.Flight_recorder.reset ();
  let r = Sm_obs.Flight_recorder.create ~capacity:8 "detsan_lane" in
  Sm_obs.Flight_recorder.record r
    (Sm_obs.Event.make ~task:"detsan_lane" ~task_id:1
       ~args:[ ("op", Sm_obs.Event.S "before-hazard") ]
       Sm_obs.Event.Note);
  let hazards, _ =
    Detsan.run (fun ctx ->
        let fresh = Mc.key ~name:"test_detsan.flight_fresh" in
        Ws.init (Rt.workspace ctx) fresh 1)
  in
  check_bool "the seeded hazard fired" (hazards <> []);
  match Sm_obs.Flight_recorder.last_trigger () with
  | Some (reason, dumps) ->
    check_bool "reason names detsan"
      (String.length reason >= 6 && String.sub reason 0 6 = "detsan");
    (match List.assoc_opt "detsan_lane" dumps with
    | Some [ line ] ->
      check_bool "snapshot froze the pre-hazard event"
        (match Sm_obs.Json.of_string line with
        | Sm_obs.Json.Obj fields -> List.mem_assoc "args" fields
        | _ -> false)
    | _ -> Alcotest.fail "snapshot must hold exactly the one recorded event")
  | None -> Alcotest.fail "a hazard must trigger a flight snapshot"

let suite =
  [ Alcotest.test_case "clean program has no hazards" `Quick clean_is_clean
  ; Alcotest.test_case "merge_any is flagged" `Quick merge_any_flagged
  ; Alcotest.test_case "key minted in task is flagged" `Quick key_minted_in_task_flagged
  ; Alcotest.test_case "unmerged children are flagged" `Quick unmerged_children_flagged
  ; Alcotest.test_case "op after digest is flagged" `Quick op_after_digest_flagged
  ; Alcotest.test_case "hazards deduplicate" `Quick hazards_dedup
  ; Alcotest.test_case "hazard triggers a flight snapshot" `Quick hazard_triggers_flight_dump
  ; Alcotest.test_case "sanitized program stays deterministic" `Quick
      sanitized_program_still_deterministic
  ; Alcotest.test_case "observe uninstalls hooks on failure" `Quick observe_uninstalls
  ; Alcotest.test_case "deterministic_explained: ok" `Quick explained_ok
  ; Alcotest.test_case "deterministic_explained: names the run" `Quick explained_names_the_run
  ; Alcotest.test_case "cross_scheduler: passes a clean program" `Slow cross_scheduler_ok
  ; Alcotest.test_case "cross_scheduler: stall becomes Timeout" `Quick cross_scheduler_timeout
  ]
