(* sm-shard — drive the sharded collaborative-document service.

     sm-shard demo --shards 2 --clients 8 --seed 1
     sm-shard demo --shards 4 --clients 100 --drop 0.05 --dup 0.05 --delay 0.1
     sm-shard demo --trace-dir lanes/ --flight-dir flight/   # leave lanes for sm-trace requests
     sm-shard stats --shards 4 --clients 100 --every 500     # sm-top over a seeded run
     sm-shard stats --expo metrics.prom                      # Prometheus textfile drop
     sm-shard route --shards 4 doc/readme doc/todo

   `demo` runs the seeded load generator to quiescence, twice, and checks
   both convergence (every client view digest equals its shard's digest)
   and reproducibility (the second run produces byte-identical digests).
   Exit 1 on either failure, so CI can use it as a smoke test. *)

module Load = Sm_shard.Load
module Router = Sm_shard.Router
module Shard_metrics = Sm_shard.Shard_metrics
module Service = Sm_shard.Service
module Obs = Sm_obs

let print_json (p : Load.profile) (r : Load.report) ~reproducible =
  let open Obs.Json in
  print_endline
    (to_string
       (Obj
          [ ("shards", Int p.shards)
          ; ("clients", Int p.clients)
          ; ("ops_per_client", Int p.ops_per_client)
          ; ("seed", Int (Int64.to_int p.seed))
          ; ("mode", String (match p.mode with `Delta -> "delta" | `Snapshot -> "snapshot"))
          ; ("converged", Bool r.converged)
          ; ("reproducible", Bool reproducible)
          ; ("ticks", Int r.ticks)
          ; ("ops_applied", Int r.ops_applied)
          ; ("edits_merged", Int r.edits_merged)
          ; ("epochs", Int r.epochs)
          ; ("delta_bytes", Int r.delta_bytes)
          ; ("snapshot_bytes", Int r.snapshot_bytes)
          ; ("retransmits", Int r.retransmits)
          ; ("resumes", Int r.resumes)
          ; ("shard_digests", List (List.map (fun d -> String d) r.shard_digests))
          ]))

let print_human (p : Load.profile) (r : Load.report) ~reproducible =
  Format.printf "%d shards, %d clients x %d ops, %s sync, epoch every %d ticks, seed %Ld@."
    p.shards p.clients p.ops_per_client
    (match p.mode with `Delta -> "delta" | `Snapshot -> "snapshot")
    p.epoch_ticks p.seed;
  (match p.faults with
  | None -> ()
  | Some f ->
    Format.printf "faults: drop %.2f dup %.2f delay %.2f reorder %.2f@." f.drop f.dup f.delay
      f.reorder);
  if p.disconnect_prob > 0. then
    Format.printf "chaos: disconnect %.2f/tick, resume after %d ticks@." p.disconnect_prob
      p.resume_after;
  Format.printf "%s in %d ticks: %d ops placed, %d edit batches merged, %d epochs@."
    (if r.converged then "converged" else "DID NOT CONVERGE")
    r.ticks r.ops_applied r.edits_merged r.epochs;
  Format.printf "bytes shipped: delta %d, snapshot %d@." r.delta_bytes r.snapshot_bytes;
  if r.retransmits > 0 || r.resumes > 0 then
    Format.printf "recovered: %d retransmits, %d session resumes@." r.retransmits r.resumes;
  List.iter (fun (who, why) -> Format.printf "FAILED %s: %s@." who why) r.failures;
  List.iteri (fun i d -> Format.printf "  shard%d %s@." i (Sm_util.Fnv.to_hex (Sm_util.Fnv.hash d)))
    r.shard_digests;
  Format.printf "reproducible (second run, same seed): %s@." (if reproducible then "yes" else "NO")

let make_profile ~shards ~clients ~ops ~seed ~mode ~epoch_ticks ~drop ~dup ~delay ~reorder
    ~disconnect =
  let faults =
    if drop > 0. || dup > 0. || delay > 0. || reorder > 0. then
      Some { Load.drop; dup; delay; reorder }
    else None
  in
  { Load.default with
    shards
  ; clients
  ; ops_per_client = ops
  ; seed
  ; mode = (if mode then `Snapshot else `Delta)
  ; epoch_ticks
  ; faults
  ; disconnect_prob = disconnect
  }

let demo shards clients ops seed mode epoch_ticks drop dup delay reorder disconnect json
    trace_dir flight_dir =
  let profile =
    make_profile ~shards ~clients ~ops ~seed ~mode ~epoch_ticks ~drop ~dup ~delay ~reorder
      ~disconnect
  in
  (* A trace dir turns on per-lane JSONL export at Debug (contexts mint at
     Info; Debug adds the Doc_merge profiling events), one file per lane —
     exactly the layout `sm-trace requests` stitches.  Traced only on the
     first run, so the reproducibility rerun measures the bare service. *)
  let demo_tid = 4_000_000 in
  let parent =
    match trace_dir with
    | None -> None
    | Some dir ->
      Obs.set_level Obs.Debug;
      Obs.set_sink (Obs.Trace_jsonl.dir_sink dir);
      let root = Obs.Trace_ctx.root (Printf.sprintf "demo/seed%Ld" seed) in
      (* The root span must itself appear in a lane, or every request
         stitches as an orphan of an id no file contains. *)
      Obs.emit
        (Obs.Event.make ~task:"demo" ~task_id:demo_tid
           ~args:(("op", Obs.Event.S "demo") :: Obs.Trace_ctx.args root)
           Obs.Event.Req_begin);
      Some root
  in
  match Load.run ?parent profile with
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2
  | r ->
    (match parent with
    | None -> ()
    | Some root ->
      Obs.emit
        (Obs.Event.make ~task:"demo" ~task_id:demo_tid
           ~args:(("status", Obs.Event.S "done") :: Obs.Trace_ctx.args root)
           Obs.Event.Req_end);
      Obs.flush ();
      Obs.reset_sink ();
      Obs.set_level Obs.Off);
    (match flight_dir with
    | None -> ()
    | Some dir -> Obs.Flight_recorder.write_dir dir);
    let r' = Load.run profile in
    let reproducible = r'.Load.shard_digests = r.Load.shard_digests && r'.Load.ticks = r.Load.ticks in
    if json then print_json profile r ~reproducible else print_human profile r ~reproducible;
    if r.Load.converged && reproducible then exit 0 else exit 1

let stats shards clients ops seed mode epoch_ticks drop dup delay reorder disconnect every limit
    expo_file =
  let profile =
    make_profile ~shards ~clients ~ops ~seed ~mode ~epoch_ticks ~drop ~dup ~delay ~reorder
      ~disconnect
  in
  Obs.Metrics.set_enabled true;
  let last_svc = ref None in
  let on_tick tick svc =
    last_svc := Some svc;
    if every > 0 && tick > 0 && tick mod every = 0 then begin
      Format.printf "--- tick %d ---@." tick;
      print_string (Service.stats_report ~limit svc)
    end
  in
  match Load.run ~on_tick profile with
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2
  | r ->
    (match !last_svc with
    | None -> prerr_endline "sm-shard stats: the run made no ticks"
    | Some svc ->
      Format.printf "--- final (%d ticks, %s) ---@." r.Load.ticks
        (if r.Load.converged then "converged" else "DID NOT CONVERGE");
      print_string (Service.stats_report ~limit svc);
      match expo_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Service.expo_text svc);
        close_out oc;
        Format.printf "wrote %s@." path);
    if r.Load.converged then exit 0 else exit 1

let route shards names =
  let names =
    if names <> [] then names
    else List.map Sm_shard.Service.spec_name Load.default.Load.specs
  in
  List.iter
    (fun name -> Format.printf "%-30s -> shard%d@." name (Router.shard_of ~shards name))
    names

open Cmdliner

let shards = Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc:"Coordinator shards.")
let clients = Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Simulated editors.")

let ops =
  Arg.(value & opt int 20 & info [ "ops" ] ~docv:"N" ~doc:"Operations each editor places.")

let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"S" ~doc:"Workload RNG seed.")

let snapshot_mode =
  Arg.(
    value & flag
    & info [ "snapshot" ] ~doc:"Ship full snapshots instead of delta journals (the baseline).")

let epoch_ticks =
  Arg.(value & opt int 4 & info [ "epoch-ticks" ] ~docv:"N" ~doc:"Ticks between epoch flushes.")

let fault name doc = Arg.(value & opt float 0. & info [ name ] ~docv:"P" ~doc)

let drop = fault "drop" "Netpipe per-send drop probability."
let dup = fault "dup" "Netpipe per-send duplication probability."
let delay = fault "delay" "Netpipe per-send delay probability."
let reorder = fault "reorder" "Netpipe per-send reorder probability."

let disconnect =
  fault "disconnect" "Per-tick probability an un-synced editor crashes (and later resumes)."

let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable one-line report.")

let trace_dir =
  Arg.(
    value & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:"Export the first run's events as per-lane JSONL files under DIR (one file per \
              client/shard lane) — feed them to $(b,sm-trace requests) to rebuild causal \
              request trees.")

let flight_dir =
  Arg.(
    value & opt (some string) None
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:"Dump every shard's flight-recorder ring to DIR/LANE.flight.jsonl after the \
              first run.")

let demo_cmd =
  let doc = "run a seeded editor fleet to quiescence and check convergence" in
  Cmd.v
    (Cmd.info "demo" ~doc)
    Term.(
      const demo $ shards $ clients $ ops $ seed $ snapshot_mode $ epoch_ticks $ drop $ dup
      $ delay $ reorder $ disconnect $ json $ trace_dir $ flight_dir)

let stats_cmd =
  let doc = "run a seeded fleet with live metrics on, reporting per-shard stats" in
  let every =
    Arg.(
      value & opt int 0
      & info [ "every" ] ~docv:"TICKS"
          ~doc:"Print the stats table every N simulation ticks (0: only the final report).")
  in
  let limit =
    Arg.(
      value & opt int 10
      & info [ "hot-docs" ] ~docv:"N" ~doc:"Rows in the hot-documents conflict table.")
  in
  let expo_file =
    Arg.(
      value & opt (some string) None
      & info [ "expo" ] ~docv:"FILE"
          ~doc:"Also write the final Prometheus exposition (live registry + per-shard + \
                fault-plane counters) to FILE.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(
      const stats $ shards $ clients $ ops $ seed $ snapshot_mode $ epoch_ticks $ drop $ dup
      $ delay $ reorder $ disconnect $ every $ limit $ expo_file)

let route_cmd =
  let doc = "show which shard owns each document name" in
  let names = Arg.(value & pos_all string [] & info [] ~docv:"NAME") in
  Cmd.v (Cmd.info "route" ~doc) Term.(const route $ shards $ names)

let cmd =
  let doc = "sharded collaborative-document service (deterministic OT sync)" in
  let man =
    [ `S Manpage.s_description
    ; `P
        "N coordinator shards each own the documents a deterministic hash router assigns \
         them; editors hold stop-and-wait sessions and sync via compacted delta journals \
         merged in epoch batches.  Runs are single-threaded discrete-event simulations: a \
         seed fully determines every digest, byte count and tick, even under the \
         $(b,--drop/--dup/--delay/--reorder) fault plane and $(b,--disconnect) crash chaos."
    ]
  in
  Cmd.group (Cmd.info "sm-shard" ~version:"1.0" ~doc ~man) [ demo_cmd; stats_cmd; route_cmd ]

let () = exit (Cmd.eval cmd)
