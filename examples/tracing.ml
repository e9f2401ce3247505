(* Observability tour — capture a Chrome trace and a JSONL event log of a
   Spawn/Merge run.

   The program below builds a small task tree (a parent spawning workers
   that sync mid-flight, one nested respawn) purely to give the trace some
   shape.  Every lifecycle edge — spawn, task start/end, sync, each child's
   merge — is emitted through [Sm_obs] and recorded twice via a tee sink:

   - [tracing_trace.json]: Chrome trace_event format.  Open
     chrome://tracing or https://ui.perfetto.dev and load the file; every
     task is a swimlane, spawn→merge renders as one complete slice.
   - [tracing_events.jsonl]: one structured event per line, greppable and
     machine-parseable (schema in lib/obs/trace_jsonl.mli) — the input of
     the sm-trace CLI.

     dune exec examples/tracing.exe
     dune exec examples/tracing.exe -- --coop --prefix run1
     dune exec examples/tracing.exe -- --coop --prefix run2
     dune exec bin/sm_trace.exe -- diff run1_events.jsonl run2_events.jsonl

   Under --coop the program runs on the cooperative single-threaded
   scheduler, whose event structure is a pure function of the program: two
   runs produce structurally identical JSONL traces, which is exactly what
   `sm-trace diff` checks.  --prefix NAME redirects the two output files to
   NAME_trace.json / NAME_events.jsonl. *)

module R = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace
module Obs = Sm_obs

let counter = Sm_mergeable.Mcounter.key ~name:"work-done"

(* A worker bumps the shared counter a few times, syncing between bumps so
   the trace shows Sync_begin/Sync_end pairs nested inside the task slice. *)
let worker rounds ctx =
  for _ = 1 to rounds do
    Sm_mergeable.Mcounter.incr (R.workspace ctx) counter;
    match R.sync ctx with
    | Ok () -> ()
    | Error _ -> () (* refusals still leave us on fresh data *)
  done

(* One worker respawns a child of its own, so the trace shows a two-level
   tree: lanes for task ids 1..4 plus the nested task 5. *)
let forking_worker ctx =
  Sm_mergeable.Mcounter.incr (R.workspace ctx) counter;
  ignore (R.spawn ctx (worker 2));
  R.merge_all ctx

let () =
  let args = Array.to_list Sys.argv in
  let coop = List.mem "--coop" args in
  let prefix =
    let rec find = function
      | "--prefix" :: p :: _ -> p
      | _ :: rest -> find rest
      | [] -> "tracing"
    in
    find args
  in
  let trace_file = prefix ^ "_trace.json" and jsonl_file = prefix ^ "_events.jsonl" in
  (* Everything below Debug is emitted; metrics are on so the run also
     produces counters and latency histograms. *)
  Obs.set_level Obs.Debug;
  Obs.Metrics.set_enabled true;
  let collector, collected = Obs.Sink.collecting () in
  let jsonl = Obs.Trace_jsonl.file_sink jsonl_file in
  Obs.set_sink (Obs.Sink.tee collector jsonl);

  let program ctx =
    let ws = R.workspace ctx in
    Ws.init ws counter 0;
    let workers = List.init 3 (fun _ -> R.spawn ctx (worker 3)) in
    let forker = R.spawn ctx forking_worker in
    R.merge_all_from_set ctx (forker :: workers);
    Sm_mergeable.Mcounter.get ws counter
  in
  (* The cooperative scheduler makes the event *structure* a pure function
     of the program — two --coop runs diff clean under `sm-trace diff`. *)
  let total = if coop then R.Coop.run program else R.run program in
  Obs.flush ();
  Obs.reset_sink ();
  jsonl.Obs.Sink.close ();
  let events = collected () in
  Obs.Trace_chrome.write_file events trace_file;

  Format.printf "counter after merge: %d@." total;
  Format.printf "recorded %d events across the run (%s scheduler)@." (List.length events)
    (if coop then "cooperative" else "threaded");
  Format.printf "@.-- metrics --@.";
  Obs.Metrics.dump Format.std_formatter ();
  Format.printf "@.wrote %s   (open in chrome://tracing or ui.perfetto.dev)@." trace_file;
  Format.printf "wrote %s (one JSON event per line; try `sm-trace summary %s`)@." jsonl_file
    jsonl_file
