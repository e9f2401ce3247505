(* sm-trace — query recorded JSONL traces (bench --trace-jsonl FILE,
   examples/tracing.exe) instead of eyeballing them.

     sm-trace summary trace.jsonl          # tasks, spans, blocked time
     sm-trace critical-path trace.jsonl    # what bound wall-clock, segment by segment
     sm-trace attribute trace.jsonl        # per-task ops/transform/latency breakdown
     sm-trace diff a.jsonl b.jsonl         # determinism check: first diverging event
     sm-trace expo trace.jsonl             # Prometheus exposition of trace totals

   Every reader streams through Trace_jsonl.fold (or a pairwise channel
   walk for diff), so traces larger than memory are fine. *)

module Obs = Sm_obs

let die fmt = Format.kasprintf (fun msg -> prerr_endline ("sm-trace: " ^ msg); exit 2) fmt

let load_model path =
  if not (Sys.file_exists path) then die "no such trace: %s" path;
  match Obs.Trace_model.of_file path with
  | model -> model
  | exception Obs.Trace_jsonl.Decode_error msg -> die "%s: %s" path msg

let summary path =
  let model = load_model path in
  Format.printf "trace: %s@.@." path;
  Obs.Trace_model.pp_summary Format.std_formatter model

let critical_path path root =
  let model = load_model path in
  match Obs.Critical_path.compute ?root model with
  | None -> die "%s: no started root task in the trace (Info-level events missing?)" path
  | Some cp ->
    Obs.Critical_path.pp Format.std_formatter cp;
    (* The tiling self-check the acceptance gate scripts look at. *)
    let cover = Obs.Critical_path.coverage_pct cp in
    Format.printf "@.path total %a vs root wall-clock %a (%.1f%%)@." Obs.Trace_model.pp_ms
      cp.Obs.Critical_path.total_ns Obs.Trace_model.pp_ms cp.Obs.Critical_path.wall_ns cover;
    if Float.abs (cover -. 100.0) > 10.0 then begin
      Format.printf "WARNING: path does not tile the root span (incomplete trace?)@.";
      exit 1
    end

let attribute path json =
  let model = load_model path in
  let rows = Obs.Attribution.of_model model in
  let docs = Obs.Trace_model.doc_profiles model in
  if json then
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ ("tasks", Obs.Attribution.to_json rows)
            ; ("docs", Obs.Doc_profile.to_json docs)
            ]))
  else begin
    Obs.Attribution.pp Format.std_formatter rows;
    if docs <> [] then begin
      Format.printf "@.hot documents:@.";
      Obs.Doc_profile.pp Format.std_formatter docs
    end
  end

let diff path_a path_b =
  (match (Sys.file_exists path_a, Sys.file_exists path_b) with
  | true, true -> ()
  | false, _ -> die "no such trace: %s" path_a
  | _, false -> die "no such trace: %s" path_b);
  match Obs.Trace_diff.compare_files path_a path_b with
  | result ->
    Format.printf "%a@." Obs.Trace_diff.pp_result result;
    if not (Obs.Trace_diff.equal_result result) then begin
      (* CI pipelines routinely swallow stdout (tee to an artifact, > log);
         a determinism divergence must also land on stderr, next to the
         non-zero exit that fails the job. *)
      Format.eprintf "%a@." Obs.Trace_diff.pp_result result;
      exit 1
    end
  | exception Obs.Trace_jsonl.Decode_error msg -> die "%s" msg

let requests paths =
  List.iter (fun p -> if not (Sys.file_exists p) then die "no such trace: %s" p) paths;
  match Obs.Trace_stitch.of_files paths with
  | [] -> die "no trace contexts found in %s (trace at Info with contexts on?)" (String.concat ", " paths)
  | traces -> print_string (Obs.Trace_stitch.to_string traces)
  | exception Obs.Trace_jsonl.Decode_error msg -> die "%s" msg

let expo path =
  let model = load_model path in
  let rows = Obs.Attribution.of_model model in
  let totals = Obs.Attribution.totals rows in
  let merge_ns =
    List.concat_map
      (fun (t : Obs.Trace_model.task) ->
        List.map
          (fun (s : Obs.Trace_model.merge_span) ->
            float_of_int (max 0 (s.Obs.Trace_model.m_end - s.Obs.Trace_model.m_begin)))
          t.Obs.Trace_model.merges)
      (Obs.Trace_model.tasks model)
  in
  let sync_ns =
    List.concat_map
      (fun (t : Obs.Trace_model.task) ->
        List.map
          (fun (s : Obs.Trace_model.sync_span) ->
            float_of_int (max 0 (s.Obs.Trace_model.s_end - s.Obs.Trace_model.s_begin)))
          t.Obs.Trace_model.syncs)
      (Obs.Trace_model.tasks model)
  in
  let ops =
    List.concat_map
      (fun (t : Obs.Trace_model.task) ->
        List.map
          (fun (r : Obs.Trace_model.merge_record) -> float_of_int r.Obs.Trace_model.mc_ops)
          (Obs.Trace_model.merge_records t))
      (Obs.Trace_model.tasks model)
  in
  let counters =
    Obs.Attribution.metric_view rows
    @ [ ("trace.events", Obs.Trace_model.event_count model)
      ; ("trace.tasks", Obs.Trace_model.task_count model)
      ; ("trace.duration_ns", Obs.Trace_model.duration_ns model)
      ; ("trace.self_ns", totals.Obs.Attribution.self_ns)
      ]
  in
  let histograms =
    [ ("runtime.merge_ns", merge_ns)
    ; ("runtime.sync_wait_ns", sync_ns)
    ; ("trace.merge_child_ops", ops)
    ]
  in
  print_string (Obs.Expo.render ~counters ~histograms)

open Cmdliner

let trace_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"JSONL trace file.")

let summary_cmd =
  Cmd.v
    (Cmd.info "summary" ~doc:"Task tree, spans and blocked time of a trace.")
    Term.(const summary $ trace_arg)

let root_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "root" ] ~docv:"ID"
        ~doc:"Task id to end the path at (default: the longest-running root).")

let critical_path_cmd =
  Cmd.v
    (Cmd.info "critical-path"
       ~doc:"Longest weighted path through the spawn/merge DAG: which tasks and merges bound \
             wall-clock.")
    Term.(const critical_path $ trace_arg $ root_arg)

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let attribute_cmd =
  Cmd.v
    (Cmd.info "attribute"
       ~doc:"Per-task cost breakdown: ops folded, OT transforms, merge/sync latency, outcomes.")
    Term.(const attribute $ trace_arg $ json_flag)

let diff_cmd =
  let a = Arg.(required & pos 0 (some string) None & info [] ~docv:"LEFT" ~doc:"First trace.") in
  let b = Arg.(required & pos 1 (some string) None & info [] ~docv:"RIGHT" ~doc:"Second trace.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Structural determinism diff; exits 1 naming the first diverging event.")
    Term.(const diff $ a $ b)

let expo_cmd =
  Cmd.v
    (Cmd.info "expo"
       ~doc:"Prometheus-style text exposition of the trace's metric totals and latency \
             distributions.")
    Term.(const expo $ trace_arg)

let requests_cmd =
  let lanes_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"LANES" ~doc:"Per-process/per-rank JSONL trace lanes to stitch.")
  in
  Cmd.v
    (Cmd.info "requests"
       ~doc:"Stitch per-rank/per-process trace lanes into causal request trees: every event \
             carrying a trace context, grouped by trace id across lanes, linked by span/parent \
             edges.")
    Term.(const requests $ lanes_arg)

let cmd =
  let doc = "analyze Spawn/Merge JSONL traces" in
  Cmd.group
    (Cmd.info "sm-trace" ~version:"1.0" ~doc)
    [ summary_cmd; critical_path_cmd; attribute_cmd; diff_cmd; expo_cmd; requests_cmd ]

let () = exit (Cmd.eval cmd)
