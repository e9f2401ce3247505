(* The observability subsystem: verbosity gating, metrics, event codecs,
   sinks, the Chrome exporter, and the trace-determinism guarantee (a
   cooperative run's lifecycle event sequence is a pure function of the
   program). *)

module Obs = Sm_obs
module E = Sm_obs.Event
module R = Sm_core.Runtime

let check_bool msg b = Alcotest.(check bool) msg true b

(* Every test that touches the global level/sink/metrics restores them, so
   the rest of the binary keeps running untraced. *)
let with_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level Obs.Off;
      Obs.reset_sink ();
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    f

(* --- verbosity ------------------------------------------------------------- *)

let verbosity_gating () =
  with_obs (fun () ->
      Obs.set_level Obs.Off;
      check_bool "off blocks error" (not (Obs.on Obs.Error));
      Obs.set_level Obs.Info;
      check_bool "info admits error" (Obs.on Obs.Error);
      check_bool "info admits info" (Obs.on Obs.Info);
      check_bool "info blocks debug" (not (Obs.on Obs.Debug));
      check_bool "info blocks trace" (not (Obs.on Obs.Trace));
      Obs.set_level Obs.Trace;
      check_bool "trace admits debug" (Obs.on Obs.Debug);
      check_bool "off is never enabled" (not (Obs.on Obs.Off)))

let verbosity_strings () =
  List.iter
    (fun l ->
      Alcotest.(check (option string))
        (Obs.Verbosity.to_string l)
        (Some (Obs.Verbosity.to_string l))
        (Option.map Obs.Verbosity.to_string (Obs.Verbosity.of_string (Obs.Verbosity.to_string l))))
    [ Obs.Off; Obs.Error; Obs.Info; Obs.Debug; Obs.Trace ];
  check_bool "unknown name" (Obs.Verbosity.of_string "chatty" = None)

let clock_monotonic () =
  let ts = List.init 1000 (fun _ -> Obs.Clock.now_ns ()) in
  let rec strictly = function
    | a :: (b :: _ as rest) -> a < b && strictly rest
    | _ -> true
  in
  check_bool "strictly increasing" (strictly ts)

(* --- metrics --------------------------------------------------------------- *)

let metrics_gating () =
  with_obs (fun () ->
      let c = Obs.Metrics.counter "test.gated" in
      Obs.Metrics.incr c;
      Alcotest.(check int) "disabled incr is dropped" 0 (Obs.Metrics.value c);
      Obs.Metrics.set_enabled true;
      Obs.Metrics.incr c;
      Obs.Metrics.add c 4;
      Alcotest.(check int) "enabled counts" 5 (Obs.Metrics.value c);
      check_bool "same name, same cell" (Obs.Metrics.value (Obs.Metrics.counter "test.gated") = 5);
      Obs.Metrics.reset ();
      Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.value c))

let metrics_histogram () =
  with_obs (fun () ->
      let h = Obs.Metrics.histogram "test.hist" in
      Obs.Metrics.observe h 1.0;
      check_bool "disabled observe is dropped" (Obs.Metrics.samples h = []);
      Obs.Metrics.set_enabled true;
      List.iter (Obs.Metrics.observe h) [ 10.0; 30.0; 20.0 ];
      Alcotest.(check int) "3 samples" 3 (List.length (Obs.Metrics.samples h));
      (match Obs.Metrics.summary h with
      | None -> Alcotest.fail "summary expected"
      | Some s ->
        Alcotest.(check (float 1e-9)) "mean" 20.0 s.Sm_util.Stats.mean;
        Alcotest.(check (float 1e-9)) "median" 20.0 s.Sm_util.Stats.median);
      Alcotest.(check (option (float 1e-9))) "p100" (Some 30.0)
        (Obs.Metrics.percentile h ~p:100.0);
      let x = Obs.Metrics.time h (fun () -> 42) in
      Alcotest.(check int) "time passes result through" 42 x;
      Alcotest.(check int) "time recorded a sample" 4 (List.length (Obs.Metrics.samples h));
      check_bool "registry lists it" (List.mem_assoc "test.hist" (Obs.Metrics.histograms ())))

let metrics_name_clash () =
  with_obs (fun () ->
      ignore (Obs.Metrics.counter "test.clash");
      check_bool "histogram over a counter name raises"
        (match Obs.Metrics.histogram "test.clash" with
        | exception Invalid_argument _ -> true
        | _ -> false))

(* --- event serialization --------------------------------------------------- *)

let sample_event () =
  E.make
    ~args:
      [ ("child", E.S "root/0")
      ; ("ops", E.I 7)
      ; ("ratio", E.F 1.5)
      ; ("whole", E.F 2.0) (* integral float: the JSON round-trip must keep it a float *)
      ; ("ok", E.B true)
      ; ("quoted", E.S "a\"b\\c\nd")
      ]
    ~task:"root" ~task_id:3 E.Merge_child

let event_jsonl_every_kind () =
  List.iter
    (fun kind ->
      let e = E.make ~args:[ ("k", E.S "v") ] ~task:"t" ~task_id:1 kind in
      let e' = Obs.Trace_jsonl.event_of_line (Obs.Trace_jsonl.event_to_line e) in
      check_bool (E.kind_to_string kind) (e = e'))
    E.all_kinds

let jsonl_roundtrip () =
  let e = sample_event () in
  let e' = Obs.Trace_jsonl.event_of_line (Obs.Trace_jsonl.event_to_line e) in
  check_bool "full record equality" (e = e');
  check_bool "single line" (not (String.contains (Obs.Trace_jsonl.event_to_line e) '\n'))

let jsonl_file_roundtrip () =
  with_obs (fun () ->
      let path = Filename.temp_file "sm_obs_test" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let sink = Obs.Trace_jsonl.file_sink path in
          Obs.set_level Obs.Debug;
          Obs.set_sink sink;
          let emitted =
            List.init 5 (fun i ->
                let e = E.make ~args:[ ("i", E.I i) ] ~task:"writer" ~task_id:9 E.Note in
                Obs.emit e;
                e)
          in
          Obs.reset_sink ();
          let loaded = Obs.Trace_jsonl.load path in
          check_bool "all lines parse back" (loaded = emitted)))

let json_parser () =
  let module J = Obs.Json in
  let doc = J.Obj [ ("a", J.Int 1); ("b", J.Float 2.0); ("s", J.String "x\"y"); ("l", J.List [ J.Bool true; J.Null ]) ] in
  check_bool "print/parse round-trip" (J.of_string (J.to_string doc) = doc);
  check_bool "integral float stays float" (J.of_string (J.to_string (J.Float 3.0)) = J.Float 3.0);
  check_bool "int stays int" (J.of_string "17" = J.Int 17);
  check_bool "trailing garbage rejected"
    (match J.of_string "{} x" with exception J.Parse_error _ -> true | _ -> false)

(* --- sinks and spans ------------------------------------------------------- *)

let sink_collect_and_tee () =
  with_obs (fun () ->
      let a, read_a = Obs.Sink.collecting () in
      let b, read_b = Obs.Sink.collecting () in
      Obs.set_level Obs.Info;
      Obs.set_sink (Obs.Sink.tee a b);
      Obs.emit (E.make ~task:"x" ~task_id:1 E.Task_start);
      Obs.emit (E.make ~task:"x" ~task_id:1 E.Task_end);
      Alcotest.(check int) "both sinks saw both" 2 (List.length (read_a ()));
      check_bool "tee delivers identically" (read_a () = read_b ()))

let span_exception_safe () =
  with_obs (fun () ->
      let sink, read = Obs.Sink.collecting () in
      Obs.set_level Obs.Debug;
      Obs.set_sink sink;
      (try Obs.Span.with_ ~task:"t" ~task_id:1 "doomed" (fun () -> failwith "boom")
       with Failure _ -> ());
      match read () with
      | [ b; e ] ->
        check_bool "begin" (b.E.kind = E.Phase_begin);
        check_bool "end still emitted" (e.E.kind = E.Phase_end)
      | evs -> Alcotest.failf "expected begin+end, got %d events" (List.length evs))

(* --- the exporters against a real run -------------------------------------- *)

let counter = Sm_mergeable.Mcounter.key ~name:"obs-test-counter"

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

let chrome_trace_valid () =
  with_obs (fun () ->
      let sink, collected = Obs.Sink.collecting () in
      Obs.set_level Obs.Debug;
      Obs.set_sink sink;
      R.run traced_program;
      Obs.reset_sink ();
      let module J = Obs.Json in
      let evs = collected () in
      (* the exporter orders events itself: any input order, one document *)
      check_bool "input order is irrelevant"
        (Obs.Trace_chrome.to_json (List.rev evs) = Obs.Trace_chrome.to_json evs);
      (* the document must be valid JSON that survives our own parser *)
      let doc = J.of_string (J.to_string (Obs.Trace_chrome.to_json evs)) in
      let events = Option.get (J.to_list (Option.get (J.member "traceEvents" doc))) in
      let x_slices =
        List.filter_map
          (fun ev ->
            match (J.member "ph" ev, J.member "name" ev) with
            | Some (J.String "X"), Some (J.String name) -> Some name
            | _ -> None)
          events
      in
      (* one complete task slice per spawn plus the root's own *)
      let task_slices = List.filter (fun n -> String.length n >= 5 && String.sub n 0 5 = "task ") x_slices in
      Alcotest.(check int) "a slice per spawned task + root" 4 (List.length task_slices);
      check_bool "merge slices present" (List.exists (fun n -> n = "merge:merge_all_from_set") x_slices);
      check_bool "sync slices present" (List.exists (fun n -> n = "sync") x_slices);
      check_bool "durations are non-negative"
        (List.for_all
           (fun ev ->
             match J.member "dur" ev with
             | Some d -> Option.get (J.to_float d) >= 0.0
             | None -> true)
           events))

let trace_deterministic () =
  with_obs (fun () ->
      Obs.set_level Obs.Debug;
      let capture () =
        let sink, read = Obs.Sink.collecting () in
        Obs.set_sink sink;
        R.Coop.run traced_program;
        Obs.set_sink Obs.Sink.null;
        read ()
      in
      let a = capture () in
      let b = capture () in
      Alcotest.(check int) "same event count" (List.length a) (List.length b);
      check_bool "non-trivial trace" (List.length a > 10);
      List.iteri
        (fun i (ea, eb) ->
          if not (E.equal_structure ea eb) then
            Alcotest.failf "event %d differs: %a vs %a" i E.pp ea E.pp eb)
        (List.combine a b))

(* --- trace contexts ---------------------------------------------------------- *)

let trace_ctx_derivation () =
  let r = Obs.Trace_ctx.root "demo/seed1" in
  check_bool "root is deterministic" (Obs.Trace_ctx.equal r (Obs.Trace_ctx.root "demo/seed1"));
  check_bool "different label, different trace"
    (not (Obs.Trace_ctx.equal r (Obs.Trace_ctx.root "demo/seed2")));
  Alcotest.(check int) "roots have no parent" 0 r.Obs.Trace_ctx.parent;
  let c = Obs.Trace_ctx.child r "shard0/edit/s0/r1" in
  Alcotest.(check int) "child keeps the trace id" r.Obs.Trace_ctx.trace c.Obs.Trace_ctx.trace;
  Alcotest.(check int) "child's parent is the root span" r.Obs.Trace_ctx.span
    c.Obs.Trace_ctx.parent;
  check_bool "same label derives the same span"
    (Obs.Trace_ctx.equal c (Obs.Trace_ctx.child r "shard0/edit/s0/r1"));
  check_bool "labels separate spans"
    (c.Obs.Trace_ctx.span <> (Obs.Trace_ctx.child r "shard0/edit/s0/r2").Obs.Trace_ctx.span);
  check_bool "ids fold to 62 bits"
    (r.Obs.Trace_ctx.trace >= 0 && r.Obs.Trace_ctx.span >= 0 && c.Obs.Trace_ctx.span >= 0)

let trace_ctx_roundtrips () =
  let c = Obs.Trace_ctx.child (Obs.Trace_ctx.root "req") "hop" in
  let c1 =
    Sm_util.Codec.decode Obs.Trace_ctx.codec (Sm_util.Codec.encode Obs.Trace_ctx.codec c)
  in
  check_bool "codec round-trip" (Obs.Trace_ctx.equal c c1);
  (match Obs.Trace_ctx.of_string (Obs.Trace_ctx.to_string c) with
  | Some c2 -> check_bool "string round-trip" (Obs.Trace_ctx.equal c c2)
  | None -> Alcotest.fail "to_string image must parse");
  (match Obs.Trace_ctx.of_args (Obs.Trace_ctx.args c) with
  | Some c3 -> check_bool "args round-trip" (Obs.Trace_ctx.equal c c3)
  | None -> Alcotest.fail "args image must parse");
  check_bool "ctx-free args give no context" (Obs.Trace_ctx.of_args [ ("ops", E.I 3) ] = None);
  let e = E.make ~task:"t" ~task_id:1 ~args:(("op", E.S "x") :: Obs.Trace_ctx.args c) E.Serve in
  (match Obs.Trace_ctx.of_event e with
  | Some c4 -> check_bool "of_event finds the embedded context" (Obs.Trace_ctx.equal c c4)
  | None -> Alcotest.fail "event carried a context")

(* --- flight recorder --------------------------------------------------------- *)

let flight_event i =
  E.make ~task:"ring" ~task_id:9 ~args:[ ("n", E.I i) ] E.Note

let flight_ring_eviction () =
  Fun.protect ~finally:(fun () -> Obs.Flight_recorder.reset ())
  @@ fun () ->
  Obs.Flight_recorder.reset ();
  let r = Obs.Flight_recorder.create ~capacity:4 "test_ring" in
  for i = 1 to 6 do
    Obs.Flight_recorder.record r (flight_event i)
  done;
  Alcotest.(check int) "length is capped" 4 (Obs.Flight_recorder.length r);
  Alcotest.(check int) "recorded counts evictions" 6 (Obs.Flight_recorder.recorded r);
  let ns =
    List.map
      (fun e -> match List.assoc "n" e.E.args with E.I n -> n | _ -> -1)
      (Obs.Flight_recorder.events r)
  in
  Alcotest.(check (list int)) "oldest evicted first, oldest-first order" [ 3; 4; 5; 6 ] ns;
  Obs.Flight_recorder.clear r;
  Alcotest.(check int) "clear empties the ring" 0 (Obs.Flight_recorder.length r);
  Obs.Flight_recorder.set_enabled false;
  Obs.Flight_recorder.record r (flight_event 7);
  Obs.Flight_recorder.set_enabled true;
  Alcotest.(check int) "disabled record is dropped" 0 (Obs.Flight_recorder.length r)

let flight_dump_structural () =
  Fun.protect ~finally:(fun () -> Obs.Flight_recorder.reset ())
  @@ fun () ->
  Obs.Flight_recorder.reset ();
  let dump_of () =
    let r = Obs.Flight_recorder.create ~capacity:8 "test_dump" in
    for i = 1 to 10 do
      Obs.Flight_recorder.record r (flight_event i)
    done;
    Obs.Flight_recorder.dump_lines r
  in
  let d1 = dump_of () in
  let d2 = dump_of () in
  check_bool "same sequence dumps byte-identically (no seq/ts in lines)" (d1 = d2);
  Alcotest.(check int) "one line per retained event" 8 (List.length d1);
  List.iter
    (fun line ->
      check_bool "line is valid JSON with the structural fields"
        (match Obs.Json.of_string line with
        | Obs.Json.Obj fields ->
          List.mem_assoc "kind" fields && List.mem_assoc "task" fields
          && List.mem_assoc "args" fields
        | _ -> false))
    d1

let flight_trigger () =
  Fun.protect ~finally:(fun () -> Obs.Flight_recorder.reset ())
  @@ fun () ->
  Obs.Flight_recorder.reset ();
  let r = Obs.Flight_recorder.create ~capacity:4 "test_trig" in
  Obs.Flight_recorder.record r (flight_event 1);
  check_bool "no trigger yet" (Obs.Flight_recorder.last_trigger () = None);
  Obs.Flight_recorder.trigger ~reason:"unit test";
  (match Obs.Flight_recorder.last_trigger () with
  | Some (reason, dumps) ->
    Alcotest.(check string) "reason kept" "unit test" reason;
    check_bool "snapshot has our lane" (List.mem_assoc "test_trig" dumps);
    Alcotest.(check int) "snapshot froze one event" 1
      (List.length (List.assoc "test_trig" dumps))
  | None -> Alcotest.fail "trigger must be retrievable");
  Obs.Flight_recorder.clear_trigger ();
  check_bool "clear_trigger forgets" (Obs.Flight_recorder.last_trigger () = None);
  check_bool "registry lists the ring" (List.mem_assoc "test_trig" (Obs.Flight_recorder.all ()));
  Obs.Flight_recorder.reset ();
  check_bool "reset empties the registry" (Obs.Flight_recorder.all () = [])

(* --- cross-lane stitching ---------------------------------------------------- *)

let stitch_tree_shape () =
  let root = Obs.Trace_ctx.root "action" in
  let hop1 = Obs.Trace_ctx.child root "hop1" in
  let hop2 = Obs.Trace_ctx.child hop1 "hop2" in
  let ev task ctx kind = E.make ~task ~task_id:1 ~args:(Obs.Trace_ctx.args ctx) kind in
  let lanes =
    [ ("cli", [ ev "cli" root E.Req_begin; ev "cli" root E.Req_end; E.make ~task:"cli" ~task_id:1 ~args:[] E.Note ])
    ; ("srv", [ ev "srv" hop1 E.Serve; ev "srv" hop2 E.Epoch_merge ])
    ]
  in
  (match Obs.Trace_stitch.stitch lanes with
  | [ tr ] ->
    Alcotest.(check int) "three spans" 3 tr.Obs.Trace_stitch.span_count;
    Alcotest.(check int) "ctx-free events are ignored" 4 tr.Obs.Trace_stitch.event_count;
    (match tr.Obs.Trace_stitch.roots with
    | [ r ] ->
      check_bool "root span is the action" (Obs.Trace_ctx.equal r.Obs.Trace_stitch.ctx root);
      check_bool "root is not dangling" (not r.Obs.Trace_stitch.dangling);
      (match r.Obs.Trace_stitch.children with
      | [ c1 ] -> (
        check_bool "hop1 under root" (Obs.Trace_ctx.equal c1.Obs.Trace_stitch.ctx hop1);
        match c1.Obs.Trace_stitch.children with
        | [ c2 ] -> check_bool "hop2 under hop1" (Obs.Trace_ctx.equal c2.Obs.Trace_stitch.ctx hop2)
        | l -> Alcotest.fail (Printf.sprintf "hop1 must have 1 child, got %d" (List.length l)))
      | l -> Alcotest.fail (Printf.sprintf "root must have 1 child, got %d" (List.length l)))
    | l -> Alcotest.fail (Printf.sprintf "one root expected, got %d" (List.length l)))
  | l -> Alcotest.fail (Printf.sprintf "one trace expected, got %d" (List.length l)));
  (* A hop whose parent span never appears stitches as a flagged root. *)
  let orphan = Obs.Trace_ctx.child (Obs.Trace_ctx.root "lost") "only-hop" in
  (match Obs.Trace_stitch.stitch [ ("srv", [ ev "srv" orphan E.Serve ]) ] with
  | [ tr ] -> (
    match tr.Obs.Trace_stitch.roots with
    | [ r ] -> check_bool "orphan flagged dangling" r.Obs.Trace_stitch.dangling
    | _ -> Alcotest.fail "orphan must surface as a root")
  | _ -> Alcotest.fail "one trace expected");
  (* The rendering is stable: same lanes, same bytes. *)
  check_bool "to_string deterministic"
    (Obs.Trace_stitch.to_string (Obs.Trace_stitch.stitch lanes)
    = Obs.Trace_stitch.to_string (Obs.Trace_stitch.stitch lanes))

(* --- non-finite floats: Json's 1e999 idiom vs Expo's filtering ---------------- *)

let json_nonfinite_roundtrip () =
  let open Obs.Json in
  Alcotest.(check string) "+inf prints as 1e999" "1e999" (to_string (Float infinity));
  Alcotest.(check string) "-inf prints as -1e999" "-1e999" (to_string (Float neg_infinity));
  Alcotest.(check string) "nan prints as null" "null" (to_string (Float nan));
  (match of_string "1e999" with
  | Float f -> check_bool "1e999 parses back to +inf" (f = infinity)
  | _ -> Alcotest.fail "expected a float");
  (match of_string "-1e999" with
  | Float f -> check_bool "-1e999 parses back to -inf" (f = neg_infinity)
  | _ -> Alcotest.fail "expected a float");
  (* the event-args layer closes the nan loop: null decodes as [F nan] *)
  (match Obs.Trace_jsonl.arg_of_json Null with
  | E.F f -> check_bool "null decodes as F nan" (Float.is_nan f)
  | _ -> Alcotest.fail "expected F nan")

let expo_nonfinite_filtered () =
  (* Prometheus text has no 1e999 idiom: non-finite samples are dropped
     before the quantile/_sum/_count math, so a histogram with an open
     [infinity] bound still renders finite numerals only. *)
  let out =
    Obs.Expo.render ~counters:[]
      ~histograms:[ ("test.open_bounds", [ infinity; 2.0; nan; 4.0; neg_infinity ]) ]
  in
  check_bool "renders the summary" (String.length out > 0);
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "count counts finite samples only" (contains "sm_test_open_bounds_count 2" out);
  check_bool "sum over finite samples" (contains "sm_test_open_bounds_sum 6" out);
  check_bool "no inf leaks" (not (contains "inf" out));
  check_bool "no nan leaks" (not (contains "nan" out));
  check_bool "no 1e999 leaks" (not (contains "1e999" out));
  (* all-non-finite histograms disappear entirely rather than render junk *)
  let out2 = Obs.Expo.render ~counters:[] ~histograms:[ ("test.all_inf", [ nan; infinity ]) ] in
  Alcotest.(check string) "all-non-finite histogram omitted" "" out2

let suite =
  [ Alcotest.test_case "verbosity: gating" `Quick verbosity_gating
  ; Alcotest.test_case "verbosity: string round-trip" `Quick verbosity_strings
  ; Alcotest.test_case "clock: strictly monotonic" `Quick clock_monotonic
  ; Alcotest.test_case "metrics: enable gate + counters" `Quick metrics_gating
  ; Alcotest.test_case "metrics: histograms" `Quick metrics_histogram
  ; Alcotest.test_case "metrics: kind clash rejected" `Quick metrics_name_clash
  ; Alcotest.test_case "event: all kinds via JSONL" `Quick event_jsonl_every_kind
  ; Alcotest.test_case "jsonl: line round-trip" `Quick jsonl_roundtrip
  ; Alcotest.test_case "jsonl: file sink round-trip" `Quick jsonl_file_roundtrip
  ; Alcotest.test_case "json: printer/parser" `Quick json_parser
  ; Alcotest.test_case "sink: collecting + tee" `Quick sink_collect_and_tee
  ; Alcotest.test_case "span: end survives exceptions" `Quick span_exception_safe
  ; Alcotest.test_case "chrome: complete slices from a run" `Quick chrome_trace_valid
  ; Alcotest.test_case "determinism: coop trace structure" `Quick trace_deterministic
  ; Alcotest.test_case "trace ctx: label-derived ids" `Quick trace_ctx_derivation
  ; Alcotest.test_case "trace ctx: codec/string/args round-trips" `Quick trace_ctx_roundtrips
  ; Alcotest.test_case "flight: ring eviction order" `Quick flight_ring_eviction
  ; Alcotest.test_case "flight: structural dumps" `Quick flight_dump_structural
  ; Alcotest.test_case "flight: trigger snapshot + reset" `Quick flight_trigger
  ; Alcotest.test_case "stitch: cross-lane request tree" `Quick stitch_tree_shape
  ; Alcotest.test_case "json: non-finite round-trip (1e999)" `Quick json_nonfinite_roundtrip
  ; Alcotest.test_case "expo: non-finite samples filtered" `Quick expo_nonfinite_filtered
  ]
