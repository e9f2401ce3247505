(* The cooperative effects-based scheduler: full API coverage on a single
   thread, deterministic merge_any, and interchangeability with the threaded
   scheduler. *)

open Test_support
module R = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace
module Mlist = Sm_mergeable.Mlist.Make (Str_elt)
module Mcounter = Sm_mergeable.Mcounter

let kl = Mlist.key ~name:"coop-list"
let kc = Mcounter.key ~name:"coop-counter"

let listing1_coop () =
  let result =
    R.Coop.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kl [ "1"; "2"; "3" ];
        let t = R.spawn ctx (fun child -> Mlist.append (R.workspace child) kl "5") in
        Mlist.append ws kl "4";
        R.merge_all_from_set ctx [ t ];
        Mlist.get ws kl)
  in
  Alcotest.(check (list string)) "listing 1 cooperatively" [ "1"; "2"; "3"; "4"; "5" ] result

let sync_rounds_coop () =
  let result =
    R.Coop.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kc 0;
        for _ = 1 to 3 do
          ignore
            (R.spawn ctx (fun child ->
                 for _ = 1 to 2 do
                   Mcounter.incr (R.workspace child) kc;
                   ignore (R.sync child)
                 done))
        done;
        while R.has_children ctx do
          R.merge_all ctx
        done;
        Mcounter.get ws kc)
  in
  Alcotest.(check int) "3 tasks x 2 rounds" 6 result

(* merge_any picks by readiness order, which the FIFO schedule fixes: the
   sequence of merged children is identical on every cooperative run. *)
let merge_any_is_deterministic () =
  let one_run () =
    R.Coop.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kl [];
        for i = 0 to 5 do
          ignore
            (R.spawn ctx (fun child -> Mlist.append (R.workspace child) kl (string_of_int i)))
        done;
        let rec drain () = match R.merge_any ctx with Some _ -> drain () | None -> () in
        drain ();
        Mlist.get ws kl)
  in
  let a = one_run () and b = one_run () and c = one_run () in
  Alcotest.(check (list string)) "run 2 = run 1" a b;
  Alcotest.(check (list string)) "run 3 = run 1" a c;
  Alcotest.(check int) "all merged" 6 (List.length a)

let abort_validate_coop () =
  R.Coop.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      let bad = R.spawn ctx (fun c -> Mcounter.add (R.workspace c) kc 100) in
      let good = R.spawn ctx (fun c -> Mcounter.incr (R.workspace c) kc) in
      R.abort ctx bad;
      R.merge_all ~validate:(fun w -> Mcounter.get w kc <= 50) ctx;
      Alcotest.(check int) "aborted discarded, good kept" 1 (Mcounter.get ws kc);
      check_bool "statuses" (R.status bad = R.Retired && R.status good = R.Retired))

let failures_coop () =
  R.Coop.run (fun ctx ->
      let ws = R.workspace ctx in
      Ws.init ws kc 0;
      let h =
        R.spawn ctx (fun c ->
            Mcounter.add (R.workspace c) kc 9;
            failwith "coop boom")
      in
      R.merge_all ctx;
      Alcotest.(check int) "discarded" 0 (Mcounter.get ws kc);
      check_bool "error kept" (match R.error h with Some (Failure m) -> m = "coop boom" | _ -> false))

let grandchildren_coop () =
  let total =
    R.Coop.run (fun ctx ->
        let ws = R.workspace ctx in
        Ws.init ws kc 0;
        ignore
          (R.spawn ctx (fun child ->
               Mcounter.incr (R.workspace child) kc;
               ignore (R.spawn child (fun g -> Mcounter.add (R.workspace g) kc 10))));
        R.merge_all ctx;
        Mcounter.get ws kc)
  in
  Alcotest.(check int) "subtree merged" 11 total

let par_on_coop () =
  let result =
    R.Coop.run (fun ctx -> Sm_core.Par.reduce ~chunks:3 ctx ~map:(fun x -> x * x) ~combine:( + ) ~init:0 (List.init 10 Fun.id))
  in
  Alcotest.(check int) "Par works cooperatively" 285 result

(* the same program gives the same digest on both schedulers *)
let schedulers_agree () =
  let program ctx =
    let ws = R.workspace ctx in
    Ws.init ws kl [];
    Ws.init ws kc 0;
    for i = 0 to 4 do
      ignore
        (R.spawn ctx (fun c ->
             Mlist.append (R.workspace c) kl (string_of_int i);
             Mcounter.add (R.workspace c) kc i))
    done;
    R.merge_all ctx;
    Ws.digest ws
  in
  let threaded = R.run program in
  let coop = R.Coop.run program in
  Alcotest.(check string) "identical digests" threaded coop

let record_replay_coop () =
  (* record cooperatively, replay cooperatively: identity *)
  let trace = R.Trace.create () in
  let program ctx =
    let ws = R.workspace ctx in
    Ws.init ws kl [];
    for i = 0 to 3 do
      ignore (R.spawn ctx (fun c -> Mlist.append (R.workspace c) kl (string_of_int i)))
    done;
    let rec drain () = match R.merge_any ctx with Some _ -> drain () | None -> () in
    drain ();
    Mlist.get ws kl
  in
  let recorded = R.Coop.run ~record:trace program in
  Alcotest.(check int) "4 choices" 4 (R.Trace.length trace);
  let replayed = R.Coop.run ~replay:trace program in
  Alcotest.(check (list string)) "replay matches" recorded replayed

let coop_livelock_detected () =
  (* a root body that returns while a child is parked in sync and never
     merged again is impossible (implicit merges run) — but a child that
     syncs forever keeps the cooperative loop alive; we only check that a
     well-formed empty program terminates instantly *)
  Alcotest.(check int) "empty program" 7 (R.Coop.run (fun _ -> 7))

(* A parked task waits in its own slot until an edge wakes it.  On the
   ledger self-check's Listing-4 network every sync parks exactly once (its
   only waker is the merge that answers it), and the root's merge parks,
   like everything on the FIFO schedule, repeat run to run. *)
let listing4_park_counts () =
  let module M = Sm_obs.Metrics in
  let cfg =
    { Sm_sim.Workload.hosts = 6
    ; messages = 12
    ; ttl = 9
    ; load = 0
    ; mode = Sm_sim.Workload.Ring_destination
    ; topology = Sm_sim.Workload.Full
    ; seed = 3L
    }
  in
  let counts () =
    M.reset ();
    M.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        M.set_enabled false;
        M.reset ())
      (fun () ->
        ignore (Sm_sim.Sim_spawnmerge.run_cooperative cfg);
        let v name = M.value (M.counter name) in
        (v "runtime.syncs", v "runtime.sync_parks", v "runtime.merge_parks"))
  in
  let syncs, sync_parks, merge_parks = counts () in
  check_bool "syncs happened" (syncs > 0);
  Alcotest.(check int) "sync parks = syncs" syncs sync_parks;
  (* one per MergeAll round: the root parks until the last host syncs *)
  Alcotest.(check int) "merge parks" 21 merge_parks;
  check_bool "counts repeat" (counts () = (syncs, sync_parks, merge_parks))

let suite =
  [ Alcotest.test_case "listing 1" `Quick listing1_coop
  ; Alcotest.test_case "sync rounds" `Quick sync_rounds_coop
  ; Alcotest.test_case "merge_any deterministic under FIFO" `Quick merge_any_is_deterministic
  ; Alcotest.test_case "abort + validate" `Quick abort_validate_coop
  ; Alcotest.test_case "failures discarded" `Quick failures_coop
  ; Alcotest.test_case "grandchildren" `Quick grandchildren_coop
  ; Alcotest.test_case "Par on the cooperative scheduler" `Quick par_on_coop
  ; Alcotest.test_case "threaded and coop digests agree" `Quick schedulers_agree
  ; Alcotest.test_case "record/replay cooperatively" `Quick record_replay_coop
  ; Alcotest.test_case "trivial program" `Quick coop_livelock_detected
  ; Alcotest.test_case "listing 4: one park per sync, pinned merge parks" `Quick
      listing4_park_counts
  ]
