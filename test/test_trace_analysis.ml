(* The trace-analysis subsystem behind the sm-trace CLI: JSONL decode
   error paths, non-finite float round-trips, streaming folds, the trace
   model, critical-path tiling, structural diffing, the Prometheus
   exposition, and histogram retention. *)

module Obs = Sm_obs
module E = Sm_obs.Event
module R = Sm_core.Runtime

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int msg a b = Alcotest.(check int) msg a b

let with_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level Obs.Off;
      Obs.reset_sink ();
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    f

let with_temp_file f =
  let path = Filename.temp_file "sm_trace_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let write_events path events =
  write_lines path (List.map Obs.Trace_jsonl.event_to_line events)

(* --- float_repr: nan/inf must stay valid JSON ------------------------------ *)

let float_json f = Obs.Json.to_string (Obs.Json.Float f)

let float_repr_finite () =
  Alcotest.(check string) "integer-valued keeps the dot" "1.0" (float_json 1.0);
  Alcotest.(check string) "negative" "-2.5" (float_json (-2.5));
  check_bool "pi round-trips" (Float.equal Float.pi (float_of_string (float_json Float.pi)))

let float_repr_non_finite () =
  (* JSON has no nan/inf literals: nan serializes as null, infinities as
     1e999 (a valid numeral that reads back as infinity). *)
  Alcotest.(check string) "nan is null" "null" (float_json Float.nan);
  Alcotest.(check string) "inf" "1e999" (float_json Float.infinity);
  Alcotest.(check string) "-inf" "-1e999" (float_json Float.neg_infinity);
  check_bool "1e999 parses to inf" (float_of_string "1e999" = Float.infinity);
  (* The whole document must be parseable, not just the fragment. *)
  List.iter
    (fun f ->
      let doc = Obs.Json.to_string (Obs.Json.List [ Obs.Json.Float f ]) in
      match Obs.Json.of_string doc with
      | _ -> ()
      | exception Obs.Json.Parse_error e ->
        Alcotest.failf "emitted unparseable JSON %S: %s" doc e)
    [ Float.nan; Float.infinity; Float.neg_infinity; 1.5; 0.0 ]

let float_arg_round_trip () =
  let ev f = E.make ~args:[ ("x", E.F f) ] ~task:"t" ~task_id:1 E.Note in
  List.iter
    (fun f ->
      let back = Obs.Trace_jsonl.event_of_line (Obs.Trace_jsonl.event_to_line (ev f)) in
      match List.assoc "x" back.E.args with
      | E.F g ->
        (* Float.equal nan nan = true, so this also covers the nan case. *)
        check_bool (Printf.sprintf "round-trips %h" f) (Float.equal f g)
      | _ -> Alcotest.fail "arg decoded to a non-float")
    [ Float.nan; Float.infinity; Float.neg_infinity; 3.25; -0.0 ]

(* --- JSONL decode error paths ---------------------------------------------- *)

let expect_decode_error name thunk =
  match thunk () with
  | _ -> Alcotest.failf "%s: expected Decode_error" name
  | exception Obs.Trace_jsonl.Decode_error _ -> ()

let decode_errors () =
  expect_decode_error "malformed JSON" (fun () ->
      Obs.Trace_jsonl.event_of_line "{not json at all");
  expect_decode_error "non-object line" (fun () -> Obs.Trace_jsonl.event_of_line "[1,2,3]");
  expect_decode_error "unknown kind" (fun () ->
      Obs.Trace_jsonl.event_of_line
        {|{"seq":1,"ts_ns":2,"kind":"teleport","task":"root","task_id":0,"args":{}}|});
  expect_decode_error "ill-typed seq" (fun () ->
      Obs.Trace_jsonl.event_of_line
        {|{"seq":"one","ts_ns":2,"kind":"note","task":"root","task_id":0,"args":{}}|});
  expect_decode_error "missing task" (fun () ->
      Obs.Trace_jsonl.event_of_line {|{"seq":1,"ts_ns":2,"kind":"note","task_id":0,"args":{}}|});
  expect_decode_error "nested arg value" (fun () ->
      Obs.Trace_jsonl.event_of_line
        {|{"seq":1,"ts_ns":2,"kind":"note","task":"root","task_id":0,"args":{"k":[1]}}|});
  expect_decode_error "arg_of_json on object" (fun () ->
      Obs.Trace_jsonl.arg_of_json (Obs.Json.Obj [ ("a", Obs.Json.Int 1) ]))

let decode_errors_in_files () =
  (* A bad line poisons every streaming reader the same way. *)
  let good = Obs.Trace_jsonl.event_to_line (E.make ~task:"root" ~task_id:1 E.Task_start) in
  with_temp_file (fun path ->
      write_lines path [ good; "{broken"; good ];
      expect_decode_error "load" (fun () -> Obs.Trace_jsonl.load path);
      expect_decode_error "fold" (fun () ->
          Obs.Trace_jsonl.fold path ~init:0 ~f:(fun n _ -> n + 1));
      expect_decode_error "of_file" (fun () -> Obs.Trace_model.of_file path);
      with_temp_file (fun other ->
          write_lines other [ good; good ];
          expect_decode_error "compare_files left" (fun () ->
              Obs.Trace_diff.compare_files path other);
          expect_decode_error "compare_files right" (fun () ->
              Obs.Trace_diff.compare_files other path)))

(* --- streaming fold -------------------------------------------------------- *)

let fold_streams () =
  let events =
    List.init 50 (fun i -> E.make ~args:[ ("i", E.I i) ] ~task:"t" ~task_id:1 E.Note)
  in
  with_temp_file (fun path ->
      (* Blank lines are allowed and skipped. *)
      let lines = List.concat_map (fun e -> [ Obs.Trace_jsonl.event_to_line e; "" ]) events in
      write_lines path lines;
      check_int "fold visits every event" 50
        (Obs.Trace_jsonl.fold path ~init:0 ~f:(fun n _ -> n + 1));
      let folded = List.rev (Obs.Trace_jsonl.fold path ~init:[] ~f:(fun acc e -> e :: acc)) in
      let loaded = Obs.Trace_jsonl.load path in
      check_int "fold and load agree" (List.length loaded) (List.length folded);
      List.iter2
        (fun a b -> check_bool "same structure" (E.equal_structure a b))
        folded loaded)

(* --- structural diff ------------------------------------------------------- *)

let mk ?args kind = E.make ?args ~task:"root" ~task_id:7 kind

let diff_equal () =
  let a = [ mk E.Task_start; mk E.Sync_begin; mk E.Sync_end; mk E.Task_end ] in
  (* Re-stamp the same structure: fresh seq/ts/task_id must not matter. *)
  let b =
    [ E.make ~task:"root" ~task_id:99 E.Task_start
    ; mk E.Sync_begin
    ; mk E.Sync_end
    ; mk E.Task_end
    ]
  in
  (match Obs.Trace_diff.compare_events a b with
  | Obs.Trace_diff.Equal n -> check_int "counts both" 4 n
  | Obs.Trace_diff.Diverged _ -> Alcotest.fail "structurally equal traces diverged");
  check_bool "equal_result" (Obs.Trace_diff.equal_result (Obs.Trace_diff.compare_events a b))

let diff_divergent () =
  let a = [ mk E.Task_start; mk E.Sync_begin; mk E.Task_end ] in
  let b = [ mk E.Task_start; mk E.Abort; mk E.Task_end ] in
  (match Obs.Trace_diff.compare_events a b with
  | Obs.Trace_diff.Equal _ -> Alcotest.fail "divergent traces compared equal"
  | Obs.Trace_diff.Diverged d ->
    check_int "diverges at the first mismatch" 1 d.Obs.Trace_diff.index;
    (match (d.Obs.Trace_diff.left, d.Obs.Trace_diff.right) with
    | Some l, Some r ->
      check_bool "left is the sync" (l.E.kind = E.Sync_begin);
      check_bool "right is the abort" (r.E.kind = E.Abort)
    | _ -> Alcotest.fail "both sides should be present"));
  (* Same kind, different args diverges too. *)
  let a = [ mk ~args:[ ("status", E.S "ok") ] E.Task_end ] in
  let b = [ mk ~args:[ ("status", E.S "failed") ] E.Task_end ] in
  check_bool "arg mismatch diverges"
    (not (Obs.Trace_diff.equal_result (Obs.Trace_diff.compare_events a b)))

let diff_length_mismatch () =
  let a = [ mk E.Task_start ] in
  let b = [ mk E.Task_start; mk E.Task_end ] in
  match Obs.Trace_diff.compare_events a b with
  | Obs.Trace_diff.Equal _ -> Alcotest.fail "prefix trace compared equal"
  | Obs.Trace_diff.Diverged d ->
    check_int "diverges where the short trace ends" 1 d.Obs.Trace_diff.index;
    check_bool "left ended" (d.Obs.Trace_diff.left = None);
    check_bool "right still has events" (d.Obs.Trace_diff.right <> None)

let diff_files () =
  let base = [ mk E.Task_start; mk E.Sync_begin; mk E.Sync_end; mk E.Task_end ] in
  let perturbed = [ mk E.Task_start; mk E.Sync_begin; mk E.Abort; mk E.Task_end ] in
  with_temp_file (fun pa ->
      with_temp_file (fun pb ->
          write_events pa base;
          write_events pb base;
          check_bool "identical files compare equal"
            (Obs.Trace_diff.equal_result (Obs.Trace_diff.compare_files pa pb));
          write_events pb perturbed;
          match Obs.Trace_diff.compare_files pa pb with
          | Obs.Trace_diff.Equal _ -> Alcotest.fail "perturbed file compared equal"
          | Obs.Trace_diff.Diverged d -> check_int "named event" 2 d.Obs.Trace_diff.index))

(* --- trace model + analyses on a real cooperative run ---------------------- *)

let counter = Sm_mergeable.Mcounter.key ~name:"trace-analysis-counter"

let traced_program ctx =
  let ws = R.workspace ctx in
  Sm_mergeable.Workspace.init ws counter 0;
  let hs =
    List.init 3 (fun _ ->
        R.spawn ctx (fun c ->
            Sm_mergeable.Mcounter.incr (R.workspace c) counter;
            ignore (R.sync c);
            Sm_mergeable.Mcounter.incr (R.workspace c) counter))
  in
  R.merge_all_from_set ctx hs

let capture_coop () =
  let sink, read = Obs.Sink.collecting () in
  Obs.set_sink sink;
  R.Coop.run traced_program;
  Obs.set_sink Obs.Sink.null;
  read ()

let model_from_coop_run () =
  with_obs (fun () ->
      Obs.set_level Obs.Debug;
      let events = capture_coop () in
      let m = Obs.Trace_model.of_events events in
      check_int "event count" (List.length events) (Obs.Trace_model.event_count m);
      check_int "one root" 1 (List.length (Obs.Trace_model.roots m));
      check_int "root + 3 workers" 4 (Obs.Trace_model.task_count m);
      let root = Option.get (Obs.Trace_model.main_root m) in
      Alcotest.(check string) "root name" "root" root.Obs.Trace_model.name;
      check_bool "root started and ended"
        (root.Obs.Trace_model.started && root.Obs.Trace_model.ended);
      Alcotest.(check (option string)) "root ok" (Some "ok") root.Obs.Trace_model.status;
      check_int "three spawn edges" 3 (List.length root.Obs.Trace_model.children);
      (* Each worker is folded twice: once when its sync publishes the
         journal, once at completion inside merge_all. *)
      let recs = Obs.Trace_model.merge_records root in
      check_int "two folds per worker" 6 (List.length recs);
      List.iter
        (fun (r : Obs.Trace_model.merge_record) ->
          check_bool "outcome merged" (r.Obs.Trace_model.mc_outcome = Obs.Trace_model.Merged);
          check_bool "child id resolved" (r.Obs.Trace_model.mc_child <> None))
        recs;
      List.iter
        (fun cid ->
          let c = Option.get (Obs.Trace_model.task m cid) in
          check_bool "worker synced" (List.length c.Obs.Trace_model.syncs >= 1);
          check_bool "span covers blocked+self"
            (Obs.Trace_model.self_ns c + Obs.Trace_model.blocked_ns c
            <= Obs.Trace_model.span_ns c))
        root.Obs.Trace_model.children)

let model_streaming_matches_in_memory () =
  with_obs (fun () ->
      Obs.set_level Obs.Debug;
      let events = capture_coop () in
      with_temp_file (fun path ->
          write_events path events;
          let a = Obs.Trace_model.of_events events in
          let b = Obs.Trace_model.of_file path in
          check_int "same tasks" (Obs.Trace_model.task_count a) (Obs.Trace_model.task_count b);
          check_int "same events" (Obs.Trace_model.event_count a)
            (Obs.Trace_model.event_count b);
          check_int "same duration" (Obs.Trace_model.duration_ns a)
            (Obs.Trace_model.duration_ns b)))

let critical_path_tiles () =
  with_obs (fun () ->
      Obs.set_level Obs.Debug;
      let m = Obs.Trace_model.of_events (capture_coop ()) in
      let cp = Option.get (Obs.Critical_path.compute m) in
      check_bool "has segments" (cp.Obs.Critical_path.segments <> []);
      (* The backward walk tiles the root span exactly: contiguous,
         chronological, summing to wall-clock. *)
      let root = cp.Obs.Critical_path.root in
      let rec contiguous prev_end = function
        | [] -> prev_end = root.Obs.Trace_model.end_ts
        | (s : Obs.Critical_path.segment) :: rest ->
          s.Obs.Critical_path.seg_begin = prev_end
          && s.Obs.Critical_path.seg_end > s.Obs.Critical_path.seg_begin
          && contiguous s.Obs.Critical_path.seg_end rest
      in
      check_bool "segments tile the span"
        (contiguous root.Obs.Trace_model.start_ts cp.Obs.Critical_path.segments);
      check_int "total equals wall-clock" cp.Obs.Critical_path.wall_ns
        cp.Obs.Critical_path.total_ns;
      check_bool "coverage ~100%"
        (Float.abs (Obs.Critical_path.coverage_pct cp -. 100.0) < 0.5);
      check_bool "by_task is non-empty" (Obs.Critical_path.by_task cp <> []))

let critical_path_info_level () =
  with_obs (fun () ->
      (* Info traces have no merge spans: the path degrades to one compute
         segment covering the whole root span. *)
      Obs.set_level Obs.Info;
      let m = Obs.Trace_model.of_events (capture_coop ()) in
      let cp = Option.get (Obs.Critical_path.compute m) in
      check_bool "still tiles"
        (Float.abs (Obs.Critical_path.coverage_pct cp -. 100.0) < 0.5);
      List.iter
        (fun (s : Obs.Critical_path.segment) ->
          check_bool "all compute" (s.Obs.Critical_path.seg_kind = Obs.Critical_path.Compute))
        cp.Obs.Critical_path.segments)

let attribution_totals () =
  with_obs (fun () ->
      Obs.set_level Obs.Debug;
      let m = Obs.Trace_model.of_events (capture_coop ()) in
      let rows = Obs.Attribution.of_model m in
      check_int "one row per started task" (Obs.Trace_model.task_count m) (List.length rows);
      let t = Obs.Attribution.totals rows in
      check_int "spawns" 3 t.Obs.Attribution.spawns;
      (* Two folds per worker: the sync-time fold and the completion fold. *)
      check_int "children merged" 6 t.Obs.Attribution.children_merged;
      check_int "all merged ok" 6 t.Obs.Attribution.merged_ok;
      check_int "no aborts" 0 t.Obs.Attribution.aborted;
      (* Each worker: incr, sync (journal flushed), incr, final merge
         carries one op; 3 workers x >=1 op. *)
      check_bool "ops were folded" (t.Obs.Attribution.ops_folded >= 3);
      let view = Obs.Attribution.metric_view rows in
      check_int "metric view agrees on spawns" 3 (List.assoc "runtime.spawns" view);
      check_int "metric view agrees on merged children" 6
        (List.assoc "runtime.merged_children" view))

(* --- trace run determinism through the whole pipeline ---------------------- *)

let coop_runs_diff_clean () =
  with_obs (fun () ->
      Obs.set_level Obs.Debug;
      let a = capture_coop () in
      let b = capture_coop () in
      match Obs.Trace_diff.compare_events a b with
      | Obs.Trace_diff.Equal n -> check_bool "non-trivial trace" (n > 10)
      | Obs.Trace_diff.Diverged d ->
        Alcotest.failf "deterministic runs diverged at %d" d.Obs.Trace_diff.index)

(* --- Prometheus exposition ------------------------------------------------- *)

let expo_sanitize () =
  Alcotest.(check string) "dots to underscores" "sm_runtime_merge_ns"
    (Obs.Expo.sanitize "runtime.merge_ns");
  Alcotest.(check string) "odd chars" "sm_a_b_c" (Obs.Expo.sanitize "a-b c")

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let expo_render () =
  let text =
    Obs.Expo.render
      ~counters:[ ("runtime.spawns", 5) ]
      ~histograms:[ ("runtime.merge_ns", [ 1.0; 2.0; 3.0; 4.0; Float.nan ]) ]
  in
  List.iter
    (fun needle -> check_bool ("exposition has " ^ needle) (contains ~needle text))
    [ "# TYPE sm_runtime_spawns counter"
    ; "sm_runtime_spawns 5"
    ; "# TYPE sm_runtime_merge_ns summary"
    ; {|sm_runtime_merge_ns{quantile="0.5"}|}
    ; "sm_runtime_merge_ns_sum 10"
    ; (* the nan sample is filtered, not counted *)
      "sm_runtime_merge_ns_count 4"
    ]

let expo_live_registry () =
  with_obs (fun () ->
      Obs.Metrics.set_enabled true;
      Obs.Metrics.add (Obs.Metrics.counter "expo.test.counter") 7;
      Obs.Metrics.observe (Obs.Metrics.histogram "expo.test.hist") 2.5;
      let text = Obs.Expo.text () in
      check_bool "counter present" (contains ~needle:"sm_expo_test_counter 7" text);
      check_bool "histogram present" (contains ~needle:"sm_expo_test_hist_count 1" text))

let expo_reporter () =
  with_obs (fun () ->
      Obs.Metrics.set_enabled true;
      Obs.Metrics.incr (Obs.Metrics.counter "expo.reporter.ticks");
      let got = Atomic.make 0 in
      let r = Obs.Expo.start ~period_s:0.02 (fun _ -> Atomic.incr got) in
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get got = 0 && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      Obs.Expo.stop r;
      check_bool "reporter fired" (Atomic.get got > 0);
      let after = Atomic.get got in
      Thread.delay 0.06;
      check_int "reporter stopped" after (Atomic.get got);
      match Obs.Expo.start ~period_s:0.0 (fun _ -> ()) with
      | _ -> Alcotest.fail "non-positive period accepted"
      | exception Invalid_argument _ -> ())

(* --- histograms ------------------------------------------------------------- *)

let metrics_uncapped_keeps_all () =
  with_obs (fun () ->
      Obs.Metrics.set_enabled true;
      let h = Obs.Metrics.histogram "test.uncapped" in
      for i = 1 to 500 do
        Obs.Metrics.observe h (float_of_int i)
      done;
      check_int "keeps every sample" 500 (List.length (Obs.Metrics.samples h)))

let suite =
  [ Alcotest.test_case "float_repr: finite" `Quick float_repr_finite
  ; Alcotest.test_case "float_repr: nan/inf are valid JSON" `Quick float_repr_non_finite
  ; Alcotest.test_case "float args round-trip through JSONL" `Quick float_arg_round_trip
  ; Alcotest.test_case "decode errors: malformed lines" `Quick decode_errors
  ; Alcotest.test_case "decode errors: poisoned files" `Quick decode_errors_in_files
  ; Alcotest.test_case "fold streams a trace file" `Quick fold_streams
  ; Alcotest.test_case "diff: structural equality" `Quick diff_equal
  ; Alcotest.test_case "diff: names first divergence" `Quick diff_divergent
  ; Alcotest.test_case "diff: length mismatch" `Quick diff_length_mismatch
  ; Alcotest.test_case "diff: streaming over files" `Quick diff_files
  ; Alcotest.test_case "model: coop run reconstructed" `Quick model_from_coop_run
  ; Alcotest.test_case "model: of_file matches of_events" `Quick model_streaming_matches_in_memory
  ; Alcotest.test_case "critical path: tiles the root span" `Quick critical_path_tiles
  ; Alcotest.test_case "critical path: info-level degrades" `Quick critical_path_info_level
  ; Alcotest.test_case "attribution: totals match the program" `Quick attribution_totals
  ; Alcotest.test_case "pipeline: coop runs diff clean" `Quick coop_runs_diff_clean
  ; Alcotest.test_case "expo: sanitize" `Quick expo_sanitize
  ; Alcotest.test_case "expo: render format" `Quick expo_render
  ; Alcotest.test_case "expo: live registry" `Quick expo_live_registry
  ; Alcotest.test_case "expo: periodic reporter" `Quick expo_reporter
  ; Alcotest.test_case "metrics: uncapped keeps all" `Quick metrics_uncapped_keeps_all
  ]
