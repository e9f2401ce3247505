(** lib/fuzz: generator/codec laws, oracle cleanliness on clean seeds, the
    seeded-mutation acceptance criterion (catch + shrink to <= 6 steps),
    byte-for-byte replay, and the two runtime corner cases this PR pins:
    queue push order across schedulers and [?validate] refusing a
    [merge_any_from_set]. *)

open Test_support
module P = Sm_ir.Program
module Rt = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace
module Np = Sm_sim.Netpipe

let seeds_of n = List.init n (fun i -> Int64.of_int (i + 1))

(* --- program codec + generator ----------------------------------------------- *)

let codec_round_trip () =
  List.iter
    (fun profile ->
      List.iter
        (fun seed ->
          let p = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth:3 ~profile in
          let p' = P.of_string (P.to_string p) in
          check_bool
            (Printf.sprintf "codec round-trips seed %Ld" seed)
            (p = p' && P.to_string p = P.to_string p'))
        (seeds_of 20))
    [ P.det_profile; P.full_profile ]

let generator_deterministic () =
  List.iter
    (fun seed ->
      let gen () = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth:3 ~profile:P.full_profile in
      check_bool "same seed, same program" (gen () = gen ()))
    (seeds_of 10);
  let p1 = Sm_fuzz.Fuzzer.program_of_seed ~seed:1L ~depth:3 ~profile:P.det_profile in
  let p2 = Sm_fuzz.Fuzzer.program_of_seed ~seed:2L ~depth:3 ~profile:P.det_profile in
  check_bool "different seeds diverge" (p1 <> p2)

let generator_respects_profile () =
  List.iter
    (fun seed ->
      let p = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth:4 ~profile:P.det_profile in
      check_bool "det profile: no any-merges" (not (P.uses_any_merge p));
      check_bool "det profile: no clones" (not (P.uses_clone p));
      check_bool "root spawns"
        (List.exists (function P.Spawn _ -> true | _ -> false) p.P.scripts.(0)))
    (seeds_of 20)

let profile_round_trip () =
  List.iter
    (fun p ->
      match P.profile_of_string (P.profile_to_string p) with
      | Some p' -> check_bool ("profile round-trips: " ^ P.profile_to_string p) (p = p')
      | None -> Alcotest.fail ("profile_of_string rejected " ^ P.profile_to_string p))
    [ P.det_profile; P.full_profile ];
  check_bool "unknown flag rejected" (P.profile_of_string "validate,warp" = None);
  check_bool "det preset" (P.profile_of_string "det" = Some P.det_profile);
  check_bool "full preset" (P.profile_of_string "full" = Some P.full_profile)

(* --- oracles ----------------------------------------------------------------- *)

let clean_seeds_pass () =
  Sm_fuzz.Oracle.with_env (fun env ->
      List.iter
        (fun (profile, name) ->
          List.iter
            (fun seed ->
              let p = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth:2 ~profile in
              match Sm_fuzz.Oracle.check ~runs:2 env p with
              | Ok () -> ()
              | Error f ->
                Alcotest.failf "seed %Ld (%s): [%s] %s" seed name f.Sm_fuzz.Oracle.oracle
                  f.Sm_fuzz.Oracle.detail)
            (seeds_of 5))
        [ (P.det_profile, "det"); (P.full_profile, "full") ])

(* The acceptance criterion: every PR-3 [Mutate] kind seeded into the data
   plane is caught by the differential oracle and shrinks to a program of at
   most 6 steps.  Driven through the corpus so the pinned entries and the
   test can never drift apart. *)
let corpus_catches_and_shrinks () =
  Sm_fuzz.Oracle.with_env (fun env ->
      List.iter
        (fun e ->
          match Sm_fuzz.Corpus.check ~runs:2 env e with
          | Error msg -> Alcotest.fail msg
          | Ok Sm_fuzz.Fuzzer.Passed ->
            check_bool (e.Sm_fuzz.Corpus.name ^ ": clean entry passes") (e.Sm_fuzz.Corpus.expect = None)
          | Ok (Sm_fuzz.Fuzzer.Failed r) ->
            let size = P.size r.Sm_fuzz.Fuzzer.shrunk in
            if size > 6 then
              Alcotest.failf "%s: shrunk to %d steps, want <= 6" e.Sm_fuzz.Corpus.name size;
            check_bool
              (e.Sm_fuzz.Corpus.name ^ ": shrunk program still fails differential")
              (Sm_fuzz.Oracle.check ~focus:"differential" ~runs:2
                 ?mutate:e.Sm_fuzz.Corpus.mutate env r.Sm_fuzz.Fuzzer.shrunk
              <> Ok ()))
        Sm_fuzz.Corpus.all)

let replay_byte_identical () =
  Sm_fuzz.Oracle.with_env (fun env ->
      let e =
        match Sm_fuzz.Corpus.find "catches-tie-bias" with
        | Some e -> e
        | None -> Alcotest.fail "corpus entry catches-tie-bias missing"
      in
      let once () =
        match
          Sm_fuzz.Fuzzer.fuzz_one ?mutate:e.Sm_fuzz.Corpus.mutate ~runs:2 env
            ~seed:e.Sm_fuzz.Corpus.seed ~depth:e.Sm_fuzz.Corpus.depth
            ~profile:e.Sm_fuzz.Corpus.profile ()
        with
        | Sm_fuzz.Fuzzer.Failed r -> Sm_fuzz.Fuzzer.report_to_string r
        | Sm_fuzz.Fuzzer.Passed -> Alcotest.fail "expected a failure to replay"
      in
      let a = once () in
      let b = once () in
      Alcotest.(check string) "replay reproduces the report byte-for-byte" a b)

(* --- satellite: queue push order pins merge serialization order --------------- *)

(* Op_queue's transform is the identity, so concurrent pushes land in merge
   *serialization* order — which for [merge_all] is child *creation* order.
   This is the [queue-push-order] known issue: pin it on both schedulers so
   any change to serialization order is caught as a digest break, not folk
   knowledge. *)
let queue_push_order () =
  let prog =
    P.of_string
      (String.concat "\n"
         [ "program v1"
         ; "task 0"
         ; "  spawn 0"  (* -> task 1, per target = idx + 1 + (j mod (n-idx-1)) *)
         ; "  spawn 1"  (* -> task 2 *)
         ; "  merge all 0 0"
         ; "task 1"
         ; "  op queue 0 3 0"  (* push 3 *)
         ; "task 2"
         ; "  op queue 0 7 0"  (* push 7 *)
         ; "end"
         ])
  in
  let keys = Sm_fuzz.Interp.Keyset.default () in
  let final ctx =
    Sm_fuzz.Interp.run keys prog ctx;
    Sm_fuzz.Interp.Keyset.queue_value (Rt.workspace ctx) keys
  in
  let coop = Rt.Coop.run final in
  Alcotest.(check (list int)) "coop: first-spawned child's push is first" [ 3; 7 ] coop;
  List.iter
    (fun domains ->
      let threaded = with_executor ~domains (fun executor -> Rt.run ~executor final) in
      Alcotest.(check (list int))
        (Printf.sprintf "threaded (%d domains) agrees with coop" domains)
        coop threaded)
    [ 1; 2 ]

(* --- satellite: ?validate refusing a merge_any_from_set ----------------------- *)

(* Refusal semantics for a sync-parked child (runtime.ml merge_child_locked):
   the child's pre-sync ops are rolled back, its [sync] returns
   [Error Validation_failed], and it *remains a running child* — the parent
   workspace is untouched.  Each child here does +1 / sync / +10; the refused
   child loses its +1 and later contributes only +10, the other contributes
   +1 then +10, so the final counter is exactly 21. *)
let validate_refuses_any_from_set () =
  let counter = Ws.create_key (module Sm_mergeable.Mcounter.Data) ~name:"t.counter" in
  let outcomes = Rt.Coop.run (fun ctx ->
      let ws = Rt.workspace ctx in
      Ws.init ws counter 0;
      let outcomes = ref [] in
      let child ctx =
        let ws = Rt.workspace ctx in
        Sm_mergeable.Mcounter.add ws counter 1;
        let r = Rt.sync ctx in
        outcomes := r :: !outcomes;
        Sm_mergeable.Mcounter.add ws counter 10
      in
      let h1 = Rt.spawn ctx child in
      let h2 = Rt.spawn ctx child in
      let before = Ws.digest ws in
      (match Rt.merge_any_from_set ~validate:(fun _ -> false) ctx [ h1; h2 ] with
      | Some _ -> ()
      | None -> Alcotest.fail "merge_any_from_set returned no handle");
      check_bool "refusal leaves the parent digest unchanged" (Ws.digest ws = before);
      check_bool "refused child is not retired"
        (Rt.status h1 <> Rt.Retired && Rt.status h2 <> Rt.Retired);
      check_bool "both children still pending" (Rt.has_children ctx);
      while Rt.has_children ctx do
        Rt.merge_all ctx
      done;
      Alcotest.(check int) "refused +1 lost, both +10s and one +1 land" 21
        (Sm_mergeable.Mcounter.get ws counter);
      !outcomes)
  in
  let errs =
    List.length (List.filter (function Error Rt.Validation_failed -> true | _ -> false) outcomes)
  in
  let oks = List.length (List.filter (function Ok () -> true | _ -> false) outcomes) in
  check_bool "exactly one sync was refused, one granted" (errs = 1 && oks = 1)

(* --- satellite: netpipe closed-connection sends are observable ---------------- *)

let netpipe_closed_send_observable () =
  Np.reset_stats ();
  let dropped = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Np.on_dropped_send None;
      Np.set_faults None;
      Np.reset_stats ())
    (fun () ->
      Np.on_dropped_send (Some (fun payload -> dropped := payload :: !dropped));
      let l = Np.listen () in
      let client = Np.connect l in
      let server = match Np.accept l with Some c -> c | None -> Alcotest.fail "accept" in
      Np.send client "alive";
      Alcotest.(check (option string)) "pre-close delivery" (Some "alive") (Np.recv server);
      Np.close client;
      Np.send client "lost-1";
      Np.send client "lost-2";
      Np.shutdown l;
      let st = Np.stats () in
      Alcotest.(check int) "dropped_closed counts both sends" 2 st.Np.dropped_closed;
      Alcotest.(check int) "delivered counts only the live send" 1 st.Np.delivered;
      Alcotest.(check (list string))
        "hook saw each dropped payload, in order" [ "lost-1"; "lost-2" ] (List.rev !dropped))

let netpipe_conservation () =
  List.iter
    (fun seed ->
      match Sm_fuzz.Net_target.check ~faults:Sm_fuzz.Net_target.default_faults ~seed () with
      | Ok _ -> ()
      | Error detail -> Alcotest.failf "seed %Ld: %s" seed detail)
    (seeds_of 8)

let netpipe_deterministic () =
  List.iter
    (fun seed ->
      match Sm_fuzz.Net_target.target.check ~seed with
      | Ok () -> ()
      | Error f -> Alcotest.failf "seed %Ld: [%s] %s" seed f.oracle f.detail)
    (seeds_of 4)

let netpipe_lossless_fifo () =
  List.iter
    (fun seed ->
      match Sm_fuzz.Net_target.check ~faults:Sm_fuzz.Net_target.no_faults ~seed () with
      | Ok _ -> ()
      | Error detail -> Alcotest.failf "seed %Ld: %s" seed detail)
    (seeds_of 4)

(* --- dist chaos invariance ---------------------------------------------------- *)

let dist_chaos_invariant () =
  List.iter
    (fun seed ->
      match Sm_fuzz.Dist_target.target.check ~seed with
      | Ok () -> ()
      | Error f -> Alcotest.failf "seed %Ld: [%s] %s" seed f.oracle f.detail)
    (seeds_of 2)

(* --- the shared target shape -------------------------------------------------- *)

module Target = Sm_fuzz.Target

(* A target that fails on chosen seeds, expectedly or not. *)
let fake ~failing ~expected =
  let check ~seed =
    if List.mem seed failing then
      Error
        { Target.oracle = "fake"
        ; detail = Printf.sprintf "seed %Ld" seed
        ; expected
        ; report = ""
        ; flight = []
        }
    else Ok ()
  in
  { Target.name = "fake"; check }

let sweep_and_exit_rule () =
  let failing = [ 7L; 2L; 12L; 3L ] in
  let seen = ref [] in
  let failures =
    Target.sweep
      ~on_failure:(fun seed _ -> seen := seed :: !seen)
      (fake ~failing ~expected:true) ~seed_base:2L ~seeds:10
  in
  Alcotest.(check (list int64)) "failing seeds in seed order, base included, end excluded"
    [ 2L; 3L; 7L ] (List.map fst failures);
  Alcotest.(check (list int64)) "on_failure saw the same seeds" [ 2L; 3L; 7L ] (List.rev !seen);
  Alcotest.(check int) "no failures: 0" 0 (Target.exit_code []);
  Alcotest.(check int) "all expected: 3" 3 (Target.exit_code (List.map snd failures));
  let unexpected =
    Target.sweep (fake ~failing ~expected:false) ~seed_base:12L ~seeds:1 |> List.map snd
  in
  Alcotest.(check int) "one unexpected among expected: 1" 1
    (Target.exit_code (List.map snd failures @ unexpected))

let shard_target_sweep () =
  match Target.sweep Sm_fuzz.Shard_target.target ~seed_base:1L ~seeds:3 with
  | [] -> ()
  | (seed, f) :: _ -> Alcotest.failf "seed %Ld: [%s] %s" seed f.oracle f.detail

let suite =
  [ Alcotest.test_case "program: codec round-trip" `Quick codec_round_trip
  ; Alcotest.test_case "program: generator is seed-deterministic" `Quick generator_deterministic
  ; Alcotest.test_case "program: generator respects profile" `Quick generator_respects_profile
  ; Alcotest.test_case "program: profile string round-trip" `Quick profile_round_trip
  ; Alcotest.test_case "oracle: clean seeds pass everything" `Slow clean_seeds_pass
  ; Alcotest.test_case "corpus: seeded mutations caught, shrunk <= 6" `Slow
      corpus_catches_and_shrinks
  ; Alcotest.test_case "fuzz_one: failure report replays byte-for-byte" `Slow
      replay_byte_identical
  ; Alcotest.test_case "runtime: queue push order = spawn order, both schedulers" `Quick
      queue_push_order
  ; Alcotest.test_case "runtime: validate refusing merge_any_from_set" `Quick
      validate_refuses_any_from_set
  ; Alcotest.test_case "netpipe: closed-conn sends hit stats and hook" `Quick
      netpipe_closed_send_observable
  ; Alcotest.test_case "netpipe: conservation law under faults" `Quick netpipe_conservation
  ; Alcotest.test_case "netpipe: fault decisions are seed-deterministic" `Quick
      netpipe_deterministic
  ; Alcotest.test_case "netpipe: lossless runs deliver exact FIFO" `Quick netpipe_lossless_fifo
  ; Alcotest.test_case "dist: digest invariant under chaos relay" `Slow dist_chaos_invariant
  ; Alcotest.test_case "target: sweep keeps failing seeds in order; exit rule" `Quick
      sweep_and_exit_rule
  ; Alcotest.test_case "shard: seeds 1-3 pass through sweep" `Quick shard_target_sweep
  ]
