(** lib/ir + lib/lint: codec totality over generated programs (incl. the
    fixture-only [mint] step), shrinker well-formedness, the static twin of
    every DetSan hazard class, the pinned queue-order finding, matrix
    derivation, the static/dynamic agreement contract, and the Netpipe
    closed-connection accounting regression. *)

open Test_support
module P = Sm_ir.Program
module L = Sm_lint
module F = Sm_fuzz
module Np = Sm_sim.Netpipe

let seeds_of n = List.init n (fun i -> Int64.of_int (i + 1))

(* --- codec ------------------------------------------------------------------- *)

(* 500 generated programs (250 seeds x both profiles): decode o encode = id,
   and the sample actually exercises the vocabulary it claims to cover. *)
let codec_round_trip_500 () =
  let merge_kinds = Hashtbl.create 8 in
  let saw_validate = ref false in
  List.iter
    (fun profile ->
      List.iter
        (fun seed ->
          let p = F.Fuzzer.program_of_seed ~seed ~depth:3 ~profile in
          Array.iter
            (List.iter (function
              | P.Merge { kind; validate; _ } ->
                Hashtbl.replace merge_kinds (P.merge_kind_name kind) ();
                if validate > 0 then saw_validate := true
              | _ -> ()))
            p.P.scripts;
          let p' = P.of_string (P.to_string p) in
          check_bool (Printf.sprintf "round-trip seed %Ld" seed) (p = p');
          check_bool "well-formed" (P.well_formed p = Ok ()))
        (seeds_of 250))
    [ P.det_profile; P.full_profile ];
  List.iter
    (fun k -> check_bool ("sample covers merge " ^ k) (Hashtbl.mem merge_kinds k))
    [ "all"; "all-set"; "any"; "any-set" ];
  check_bool "sample covers ?validate > 0" !saw_validate

let mint_program =
  "program v1\ntask 0\n  spawn 0\n  mint 1\n  merge all 0 0\ntask 1\n  op counter 0 1 0\nend\n"

let codec_mint_and_well_formed () =
  let p = P.of_string mint_program in
  check_bool "mint parses" (P.uses_mint p);
  check_bool "mint round-trips" (P.of_string (P.to_string p) = p);
  check_bool "mint program well-formed" (P.well_formed p = Ok ());
  (match P.well_formed { P.scripts = [||] } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty program accepted");
  match P.well_formed { P.scripts = [| [ P.Spawn (-1) ] |] } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative payload accepted"

let shrinker_preserves_well_formedness () =
  List.iter
    (fun seed ->
      let p = F.Fuzzer.program_of_seed ~seed ~depth:3 ~profile:P.full_profile in
      Array.iteri
        (fun si script ->
          List.iteri
            (fun i step ->
              List.iter
                (fun step' ->
                  let script' = List.mapi (fun j s -> if j = i then step' else s) script in
                  let scripts = Array.copy p.P.scripts in
                  scripts.(si) <- script';
                  match P.well_formed { P.scripts } with
                  | Ok () -> ()
                  | Error msg ->
                    Alcotest.failf "seed %Ld task %d step %d: shrink candidate ill-formed: %s"
                      seed si i msg)
                (P.shrink_step step))
            script)
        p.P.scripts)
    (seeds_of 50)

(* --- static twins of the DetSan hazard classes -------------------------------- *)

let fixture_for_tag = function
  | "nondet-merge" ->
    "program v1\ntask 0\n  spawn 0\n  spawn 0\n  merge any 0 0\n  merge all 0 0\ntask 1\n  op counter 0 1 0\nend\n"
  | "key-in-task" -> mint_program
  | "unmerged-children" ->
    "program v1\ntask 0\n  op counter 0 1 0\n  spawn 0\ntask 1\n  op counter 0 2 0\nend\n"
  | "op-after-digest" ->
    "program v1\ntask 0\n  spawn 0\n  abort 0\ntask 1\n  op register 1 3 0\nend\n"
  | tag -> Alcotest.failf "no minimal fixture for hazard tag %s" tag

(* Every dynamic hazard class has a static twin, and the twin actually fires
   on a minimal program — the completeness half of the agreement contract,
   checked at the class level (the harness checks it per executed program). *)
let every_hazard_has_firing_twin () =
  List.iter
    (fun tag ->
      check_bool
        (Printf.sprintf "some finding class twins %s" tag)
        (List.exists (fun (_, _, twin, _) -> twin = Some tag) L.Finding.classes);
      let report = L.Lint.analyze (P.of_string (fixture_for_tag tag)) in
      check_bool
        (Printf.sprintf "twin of %s fires on its minimal fixture" tag)
        (L.Finding.covers_hazard report.L.Lint.findings ~tag))
    Sm_check.Detsan.hazard_tags

let queue_order_pinned () =
  let p =
    P.of_string
      "program v1\ntask 0\n  spawn 0\n  spawn 1\n  merge all-set 0 0\ntask 1\n  op queue 0 3 0\ntask 2\n  op queue 0 5 0\nend\n"
  in
  let report = L.Lint.analyze p in
  let mo =
    List.filter (fun (f : L.Finding.t) -> f.cls = "merge-order") report.L.Lint.findings
  in
  check_bool "merge-order finding fires" (mo <> []);
  List.iter
    (fun (f : L.Finding.t) ->
      check_bool "pinned by queue-push-order" (f.pinned = Some "queue-push-order");
      check_bool "warning severity under set merge" (f.severity = L.Finding.Warning))
    mo;
  check_bool "verdict is clean-except-pinned"
    (L.Lint.verdict report = L.Finding.Pinned_only);
  Alcotest.(check int) "exit code 3" 3 (L.Finding.verdict_exit_code (L.Lint.verdict report))

(* With an ordered merge_all the fold order is programmed, not incidental:
   the same write-sets downgrade to an advisory note. *)
let ordered_merge_downgrades () =
  let p =
    P.of_string
      "program v1\ntask 0\n  spawn 0\n  spawn 1\n  merge all 0 0\ntask 1\n  op queue 0 3 0\ntask 2\n  op queue 0 5 0\nend\n"
  in
  let report = L.Lint.analyze p in
  List.iter
    (fun (f : L.Finding.t) ->
      if f.cls = "merge-order" then
        check_bool "note severity under ordered merge" (f.severity = L.Finding.Note))
    report.L.Lint.findings;
  check_bool "ordered-merge program is clean" (L.Lint.verdict report = L.Finding.Clean)

let verdict_exit_codes () =
  Alcotest.(check int) "clean" 0 (L.Finding.verdict_exit_code L.Finding.Clean);
  Alcotest.(check int) "pinned-only" 3 (L.Finding.verdict_exit_code L.Finding.Pinned_only);
  Alcotest.(check int) "dirty" 1 (L.Finding.verdict_exit_code L.Finding.Dirty);
  let note = L.Finding.make ~cls:"conflict" ~task:0 ~step:0 "n" in
  let err = L.Finding.make ~cls:"nondet-merge" ~task:0 ~step:0 "e" in
  check_bool "notes never gate" (L.Finding.verdict [ note ] = L.Finding.Clean);
  check_bool "errors gate" (L.Finding.verdict [ note; err ] = L.Finding.Dirty);
  check_bool "clean report guarantees detsan-clean" (L.Finding.guarantees_detsan_clean [ note ]);
  check_bool "error with twin voids the guarantee"
    (not (L.Finding.guarantees_detsan_clean [ err ]))

let matrix_derivation () =
  (match L.Matrix.for_name "queue" with
  | None -> Alcotest.fail "no matrix for queue"
  | Some m ->
    check_bool "queue matrix is order-sensitive" (L.Matrix.order_sensitive m <> []);
    check_bool "queue matrix pinned" (m.L.Matrix.pinned = Some "queue-push-order"));
  match L.Matrix.for_name "counter" with
  | None -> Alcotest.fail "no matrix for counter"
  | Some m ->
    check_bool "counter ops all commute" (L.Matrix.all_commute m);
    check_bool "counter matrix not order-sensitive" (L.Matrix.order_sensitive m = [])

(* --- static/dynamic agreement -------------------------------------------------

   The contract the CI gate runs at scale, sampled here: statically-clean
   programs run DetSan-clean, every dynamic hazard is covered by a twin
   finding, and observed transform calls stay under the static bound. *)

let agreement_sampled () =
  F.Oracle.with_env (fun env ->
      List.iter
        (fun profile ->
          let outcomes =
            F.Agree.run_seeds env ~seed_base:1L ~seeds:25 ~depth:3 ~profile ()
          in
          List.iter
            (fun (o : F.Agree.outcome) ->
              if o.violations <> [] then
                Alcotest.failf "%s: %s" o.name (String.concat "; " o.violations))
            outcomes)
        [ P.det_profile; P.full_profile ];
      List.iter
        (fun (o : F.Agree.outcome) ->
          if o.violations <> [] then
            Alcotest.failf "corpus %s: %s" o.name (String.concat "; " o.violations))
        (F.Agree.corpus_outcomes env))

let lint_rides_in_fuzz_report () =
  F.Oracle.with_env (fun env ->
      match
        F.Fuzzer.fuzz_one ~mutate:Sm_check.Mutate.Tie_bias ~lint:true env ~seed:5L ~depth:3
          ~profile:P.det_profile ()
      with
      | F.Fuzzer.Passed -> Alcotest.fail "mutated corpus seed unexpectedly passed"
      | F.Fuzzer.Failed r ->
        (match r.F.Fuzzer.lint with
        | None -> Alcotest.fail "no lint summary in report despite ~lint:true"
        | Some s -> check_bool "summary mentions a verdict" (String.length s > 0));
        check_bool "report text carries the static section"
          (let text = F.Fuzzer.report_to_string r in
           let needle = "-- static analysis --" in
           let n = String.length needle in
           let found = ref false in
           for i = 0 to String.length text - n do
             if (not !found) && String.sub text i n = needle then found := true
           done;
           !found))

(* --- netpipe closed-connection accounting (regression) ----------------------- *)

(* A send on a closed connection must never consume a fault decision: with a
   100% drop plane, the drop still books as dropped_closed (hook fired),
   never as dropped_fault. *)
let netpipe_closed_send_under_faults () =
  Np.reset_stats ();
  let hook = ref 0 in
  Np.on_dropped_send (Some (fun _ -> incr hook));
  Np.set_faults (Some (Np.Faults.make ~drop:1.0 ~seed:7L ()));
  Fun.protect
    ~finally:(fun () ->
      Np.set_faults None;
      Np.on_dropped_send None)
    (fun () ->
      let l = Np.listen () in
      let client = Np.connect l in
      (match Np.accept l with Some _ -> () | None -> Alcotest.fail "accept failed");
      Np.close client;
      Np.send client "lost";
      let s = Np.stats () in
      Alcotest.(check int) "dropped_closed" 1 s.Np.dropped_closed;
      Alcotest.(check int) "hook fired once" 1 !hook;
      Alcotest.(check int) "no fault drop booked" 0 s.Np.dropped_fault;
      Np.shutdown l)

let suite =
  [ Alcotest.test_case "ir: codec round-trips 500 generated programs" `Quick codec_round_trip_500
  ; Alcotest.test_case "ir: mint step codec + well-formedness" `Quick codec_mint_and_well_formed
  ; Alcotest.test_case "ir: shrink candidates stay well-formed" `Quick
      shrinker_preserves_well_formedness
  ; Alcotest.test_case "lint: every detsan hazard has a firing static twin" `Quick
      every_hazard_has_firing_twin
  ; Alcotest.test_case "lint: queue-order warning pinned, exit 3" `Quick queue_order_pinned
  ; Alcotest.test_case "lint: ordered merge downgrades merge-order to note" `Quick
      ordered_merge_downgrades
  ; Alcotest.test_case "lint: verdicts, exit codes, detsan guarantee" `Quick verdict_exit_codes
  ; Alcotest.test_case "lint: matrix derivation (queue pinned, counter commutes)" `Quick
      matrix_derivation
  ; Alcotest.test_case "agree: contracts hold on 50 seeds + corpus" `Slow agreement_sampled
  ; Alcotest.test_case "fuzz: --lint verdict rides in the failure report" `Slow
      lint_rides_in_fuzz_report
  ; Alcotest.test_case "netpipe: closed send never consumes a fault decision" `Quick
      netpipe_closed_send_under_faults
  ]
