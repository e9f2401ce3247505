(* The layer ledger: five seeded workloads over the document service and the
   Spawn/Merge runtime, each run in its own process, timed to quiescence and
   checked outside the clock.

   Usage, from the directory holding BENCHMARK.json:
     ledger.exe <workload> [--seed N] [--seconds S] [--traced] [--append SET]
     ledger.exe --self-check
     ledger.exe compare A B

   A run repeats its workload until the next pass would overrun [--seconds]
   of timed work, and runs at least one.  Untraced, it reports the
   end-to-end metrics.  [--traced] alternates untraced and traced passes
   and reports the per-layer split; the tracing overhead is the ratio of
   the two pass walls.  Every metric of the catalog prints as
   [name value unit] (0 where a layer does not exist in the workload).  The
   run is also written as JSON to BENCH_ledger_<workload>.json and, with
   [--append SET], added to a set of runs for [compare].  Exits 1 when an
   output check fails or an op was never acknowledged. *)

module J = Sm_obs.Json
module M = Sm_obs.Metrics
module Load = Sm_shard.Load
module W = Sm_sim.Workload

let now_ns = Fleet.now_ns
let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6
let fsum = List.fold_left ( +. ) 0.
let isum = List.fold_left ( + ) 0
let ratio a b = if b = 0. then 0. else a /. b
let pct a b = 100. *. ratio a b
let median = Catalog.median

(* Nearest rank, as [Sm_util.Stats.percentile]. *)
let percentile xs p = if xs = [] then nan else Sm_util.Stats.percentile xs ~p

(* --- shared run mechanics ------------------------------------------------------- *)

type outcome =
  { values : (string * float) list  (* catalog entries this workload has *)
  ; info : (string * J.t) list  (* ticks, digests, pass counts: exact, not gated *)
  ; problems : string list  (* failed output checks *)
  ; attempted : int
  ; failed : int
  }

(* Set-up is timed on its own, after the passes and the peak-heap reading,
   so that none of them pays for its collections, its garbage or (fig3)
   the domains it starts.  It is reported as the median of its samples.  A
   sample is a batch of set-ups lasting at least 20 ms, started on a
   collected heap: hot-doc's and fig3's set-ups take tens of microseconds,
   too short to time one by one.  Sizing the batch also warms the set-up
   up.  Samples are taken for 0.5 s, and at least five. *)
let setup_median setup =
  let timed batch =
    let t0 = now_ns () in
    for _ = 1 to batch do
      setup ()
    done;
    now_ns () - t0
  in
  let rec calibrate batch = if timed batch >= 20_000_000 then batch else calibrate (2 * batch) in
  let batch = calibrate 1 in
  let rec go n spent acc =
    if n >= 5 && spent >= 500_000_000 then acc
    else begin
      Gc.full_major ();
      let dt = timed batch in
      go (n + 1) (spent + dt) ((s_of_ns dt /. float_of_int batch) :: acc)
    end
  in
  median (go 0 0 [])

(* Run passes while the next one, at the mean pass time so far, fits the
   budget; at least [min_passes].  [pass i] returns its timed nanoseconds.
   Traced runs alternate: odd passes are traced, and there are at least
   three, so the overhead baseline can leave out pass 0 (see
   [overhead_pct]).  Each pass starts on a collected heap, so it does not
   pay for the previous one's garbage. *)
let budget_loop ~seconds ~traced pass =
  let budget = int_of_float (seconds *. 1e9) in
  let min_passes = if traced then 3 else 1 in
  let rec go i spent =
    if i >= min_passes && spent + (spent / i) > budget then ()
    else begin
      Gc.full_major ();
      go (i + 1) (spent + pass i ~trace:(traced && i mod 2 = 1))
    end
  in
  go 0 0

(* Metrics are enabled only inside a traced pass; [read] runs before they
   are switched off again. *)
let metered ~trace f read =
  M.reset ();
  M.set_enabled trace;
  Fun.protect ~finally:(fun () -> M.set_enabled false) (fun () ->
      let r = f () in
      (r, if trace then read r else []))

let counters names = List.map (fun n -> (n, float_of_int (M.value (M.counter n)))) names
let histogram_s name = fsum (M.samples (M.histogram name)) /. 1e9

let gc_counts ((g0 : Gc.stat), (g1 : Gc.stat)) =
  [ ("gc.minor_mb", (g1.minor_words -. g0.minor_words) *. 8. /. 1e6)
  ; ("gc.promoted_mb", (g1.promoted_words -. g0.promoted_words) *. 8. /. 1e6)
  ; ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections))
  ]

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).top_heap_words * 8) /. 1e6

(* Runs alternate untraced/traced; split them. *)
let split passes =
  ( List.filter_map (fun (t, p, _) -> if t then None else Some p) passes
  , List.filter_map (fun (t, p, c) -> if t then Some (p, c) else None) passes )

(* Median traced pass against median untraced pass.  The first pass of a
   process also grows the heap from nothing, so the baseline leaves it out. *)
let overhead_pct ~traced_walls ~untraced_walls =
  100. *. (ratio (median traced_walls) (median (List.tl untraced_walls)) -. 1.)

(* --- workloads ---------------------------------------------------------------- *)

type kind =
  | Fleet of (seed:int64 -> Load.profile)
  | Fig3

type workload =
  { name : string
  ; default_seed : int64
  ; kind : kind
  ; pin : string list  (* digests the default seed must reproduce *)
  }

(* fleet-delta and fleet-snapshot end in the same states. *)
let fleet_pin =
  [ "b78b6cde34ac9c6d"; "c083fa2a14999e32"; "336bd7c0c291c006"; "1669a06bde3d8527" ]

let workloads =
  [ { name = "fleet-delta"
    ; default_seed = 42L
    ; kind = Fleet (fun ~seed -> Fleet.fleet ~seed `Delta)
    ; pin = fleet_pin
    }
  ; { name = "fleet-snapshot"
    ; default_seed = 42L
    ; kind = Fleet (fun ~seed -> Fleet.fleet ~seed `Snapshot)
    ; pin = fleet_pin
    }
  ; { name = "fleet-chaos"
    ; default_seed = 42L
    ; kind = Fleet Fleet.chaos
    ; pin = [ "538d8f112676907f"; "94f8537b9630c9c2"; "228f42a635f1bfbc"; "f00f56c55670b0ff" ]
    }
  ; { name = "hot-doc"; default_seed = 7L; kind = Fleet Fleet.hot_doc; pin = [ "6406662f8be99856" ] }
  ; { name = "fig3-l0"; default_seed = 5L; kind = Fig3; pin = [ "620dbacb9c902140" ] }
  ]

let check_pin w ~seed got =
  if seed = w.default_seed && got <> w.pin then
    [ Printf.sprintf "digests %s do not match the pin %s" (String.concat "," got)
        (String.concat "," w.pin)
    ]
  else []

(* --- service workloads -------------------------------------------------------- *)

let run_fleet w (profile : Load.profile) ~seed ~seconds ~traced =
  let passes = ref [] in
  budget_loop ~seconds ~traced (fun _ ~trace ->
      let d = Fleet.setup profile in
      let pass, counts =
        metered ~trace
          (fun () -> Fleet.run ~traced:trace d)
          (fun (pass : Fleet.pass) ->
            let np = Sm_sim.Netpipe.stats () in
            ( "shard.server.merge_s"
            , fsum
                (List.init profile.shards (fun k ->
                     histogram_s (Printf.sprintf "shard%d.merge_ns" k))) )
            :: ("netpipe.sends", float_of_int np.sends)
            :: ("netpipe.delivered", float_of_int np.delivered)
            :: ("netpipe.dropped_fault", float_of_int np.dropped_fault)
            :: gc_counts pass.gc
            @ counters
                [ "ot.transform_calls"; "ot.compact_in"; "ot.compact_out"; "shard.epochs"
                ; "shard.epoch_edits"; "shard.delta_bytes"; "shard.snapshot_bytes"
                ; "shard.replayed_replies"; "shard.rejected_frames"; "shard.nacks"
                ; "registry.applied_delta_ops"; "ws.cow_hits"; "ws.copy_bytes"
                ])
      in
      passes := (trace, pass, counts) :: !passes;
      pass.wall_ns);
  let passes = List.rev !passes in
  let all = List.map (fun (_, p, _) -> p) passes in
  let untraced, traced_passes = split passes in
  let (first : Fleet.pass) = List.hd all in
  let r = first.report in
  (* Outputs: converged, and every pass — traced or not — identical; the
     default seed must also reproduce its pinned digests. *)
  let problems =
    List.concat
      (List.mapi
         (fun i (p : Fleet.pass) ->
           (if p.report.converged then [] else [ Printf.sprintf "pass %d did not converge" i ])
           @ if p.report = r then [] else [ Printf.sprintf "pass %d differs from pass 0" i ])
         all)
    @ check_pin w ~seed r.shard_digests
  in
  let placed = isum (List.map (fun (p : Fleet.pass) -> p.report.ops_applied) all) in
  let unacked = isum (List.map (fun (p : Fleet.pass) -> p.unacked) all) in
  let per_op = float_of_int r.ops_applied in
  let values =
    if not traced then
      let ack_ms = List.concat_map (fun (p : Fleet.pass) -> List.map ms_of_ns p.ack_ns) untraced in
      let wall = s_of_ns (isum (List.map (fun (p : Fleet.pass) -> p.wall_ns) untraced)) in
      let placed_untraced = isum (List.map (fun (p : Fleet.pass) -> p.report.ops_applied) untraced) in
      let peak_heap_mb = peak_heap_mb () in
      let setup_s =
        setup_median (fun () ->
            ignore (Fleet.setup profile);
            Sm_sim.Netpipe.set_faults None)
      in
      [ ("throughput_ops_s", float_of_int placed_untraced /. wall)
      ; ("latency_p50_ms", percentile ack_ms 50.)
      ; ("latency_p95_ms", percentile ack_ms 95.)
      ; ("peak_heap_mb", peak_heap_mb)
      ; ("setup_s", setup_s)
      ; ("latency_samples", float_of_int (List.length ack_ms))
      ; ("failed_ratio", ratio (float_of_int unacked) (float_of_int placed))
      ; ("bytes_per_op", ratio (float_of_int (r.delta_bytes + r.snapshot_bytes)) per_op)
      ; ("check_s", median (List.map (fun (p : Fleet.pass) -> s_of_ns p.check_ns) all))
      ]
    else begin
      let n = float_of_int (List.length traced_passes) in
      let wall = s_of_ns (isum (List.map (fun ((p : Fleet.pass), _) -> p.wall_ns) traced_passes)) /. n in
      let layer l = s_of_ns (isum (List.map (fun ((p : Fleet.pass), _) -> p.layer_ns.(l)) traced_passes)) /. n in
      let counts = snd (List.hd traced_passes) in
      let count name = List.assoc name counts in
      let merge = fsum (List.map (fun (_, c) -> List.assoc "shard.server.merge_s" c) traced_passes) /. n in
      let epoch = layer Fleet.l_epoch in
      let tiled = fsum (List.init Fleet.n_layers layer) in
      let wall_of (p : Fleet.pass) = float_of_int p.wall_ns in
      let ack_ticks = List.map float_of_int (fst (List.hd traced_passes)).ack_ticks in
      let share s = pct s wall in
      [ ("client.replay_pct", share (layer Fleet.l_replay))
      ; ("client.edit_pct", share (layer Fleet.l_edit))
      ; ("client.flush_pct", share (layer Fleet.l_flush))
      ; ("client.poll_pct", share (layer Fleet.l_poll))
      ; ("client.idle_tick_pct", share (layer Fleet.l_idle))
      ; ("client.chaos_pct", share (layer Fleet.l_chaos))
      ; ("server.intake_pct", share (layer Fleet.l_intake))
      ; ("server.merge_pct", share merge)
      ; ("server.reply_pct", share (epoch -. merge))
      ; ("coverage_pct", share tiled)
      ; ( "trace_overhead_pct"
        , overhead_pct
            ~traced_walls:(List.map (fun (p, _) -> wall_of p) traced_passes)
            ~untraced_walls:(List.map wall_of untraced) )
      ; ("merge_us_per_op", ratio (merge *. 1e6) per_op)
      ; ("replay_us_per_op", ratio (layer Fleet.l_replay *. 1e6) (count "registry.applied_delta_ops"))
      ; ("shard.client.replay_s", layer Fleet.l_replay)
      ; ("shard.client.edit_s", layer Fleet.l_edit)
      ; ("shard.client.flush_s", layer Fleet.l_flush)
      ; ("shard.client.poll_s", layer Fleet.l_poll)
      ; ("shard.client.idle_tick_s", layer Fleet.l_idle)
      ; ("shard.client.chaos_s", layer Fleet.l_chaos)
      ; ("shard.server.intake_s", layer Fleet.l_intake)
      ; ("shard.server.epoch_s", epoch)
      ; ("shard.server.merge_s", merge)
      ; ("shard.server.reply_s", epoch -. merge)
      ; ("load.loop_s", wall -. tiled)
      ; ("traced_wall_s", wall)
      ; ("ot.transforms_per_merged_op", ratio (count "ot.transform_calls") per_op)
      ; ("shard.edits_per_epoch", ratio (count "shard.epoch_edits") (count "shard.epochs"))
      ; ("ack_ticks_p50", percentile ack_ticks 50.)
      ; ("ack_ticks_p95", percentile ack_ticks 95.)
      ; ("client.acks", float_of_int (List.length first.ack_ns))
      ; ("client.retransmits", float_of_int r.retransmits)
      ; ("client.resumes", float_of_int r.resumes)
      ]
      @ List.remove_assoc "shard.server.merge_s" counts
    end
  in
  let info =
    [ ("passes", J.Int (List.length all))
    ; ("ticks", J.Int r.ticks)
    ; ("epochs", J.Int r.epochs)
    ; ("edits_merged", J.Int r.edits_merged)
    ; ("ops_placed", J.Int r.ops_applied)
    ; ("delta_bytes", J.Int r.delta_bytes)
    ; ("snapshot_bytes", J.Int r.snapshot_bytes)
    ; ("retransmits", J.Int r.retransmits)
    ; ("resumes", J.Int r.resumes)
    ; ("shard_digests", J.List (List.map (fun d -> J.String d) r.shard_digests))
    ]
  in
  { values; info; problems; attempted = placed; failed = unacked }

(* --- fig3-l0 ------------------------------------------------------------------- *)

let run_fig3 w ~seed ~seconds ~traced =
  let cfg = Fig3.config ~seed in
  let executor = Fig3.setup () in
  let reps = ref [] in
  Fun.protect ~finally:(fun () -> Sm_core.Executor.shutdown executor) (fun () ->
    budget_loop ~seconds ~traced (fun _ ~trace ->
        let t0 = now_ns () in
        let (rep : Fig3.rep), counts =
          metered ~trace
            (fun () -> Fig3.run executor cfg)
            (fun (rep : Fig3.rep) ->
              ("runtime.sync_wait_s", histogram_s "runtime.sync_wait_ns")
              :: ("runtime.ws_copy_s", histogram_s "runtime.ws_copy_ns")
              :: gc_counts rep.gc
              @ counters
                  [ "runtime.spawns"; "runtime.syncs"; "runtime.merged_children"; "runtime.ops_merged"
                  ; "executor.job_threads"; "ot.transform_calls"; "ot.compact_in"; "ot.compact_out"
                  ; "ws.cow_hits"; "ws.copy_bytes"
                  ])
        in
        (* the harness's own time between repetitions, for coverage *)
        let window = now_ns () - t0 in
        reps := (trace, rep, ("window_s", s_of_ns window) :: counts) :: !reps;
        rep.wall_ns));
  let peak_heap_mb = peak_heap_mb () in
  let reps = List.rev !reps in
  let untraced, traced_reps = split reps in
  (* Outside the clock: the cooperative scheduler's run is the reference
     every repetition must reproduce. *)
  let c0 = now_ns () in
  let reference = Sm_sim.Sim_spawnmerge.run_cooperative cfg in
  let check_s = s_of_ns (now_ns () - c0) in
  let expected = W.total_hops cfg in
  let problems =
    List.concat
      (List.mapi
         (fun i (_, (rep : Fig3.rep), _) ->
           if
             rep.report.order_digest = reference.order_digest
             && rep.report.event_digest = reference.event_digest
           then []
           else
             [ Printf.sprintf "repetition %d: digests %s/%s, reference %s/%s" i rep.report.order_digest
                 rep.report.event_digest reference.order_digest reference.event_digest
             ])
         reps)
    @ check_pin w ~seed [ reference.order_digest ]
  in
  let hops = isum (List.map (fun (_, (r : Fig3.rep), _) -> r.report.hops) reps) in
  let attempted = expected * List.length reps in
  let (first : Fig3.rep) = (fun (_, r, _) -> r) (List.hd reps) in
  let cycles = List.length first.rounds_ns in
  let values =
    if not traced then
      let round_ms = List.concat_map (fun (r : Fig3.rep) -> List.map ms_of_ns r.rounds_ns) untraced in
      let wall = s_of_ns (isum (List.map (fun (r : Fig3.rep) -> r.wall_ns) untraced)) in
      (* with the repetitions' executor shut down: a live one triples it *)
      let setup_s = setup_median (fun () -> Sm_core.Executor.shutdown (Fig3.setup ())) in
      [ ("throughput_ops_s", float_of_int (expected * List.length untraced) /. wall)
      ; ("latency_p50_ms", percentile round_ms 50.)
      ; ("latency_p95_ms", percentile round_ms 95.)
      ; ("peak_heap_mb", peak_heap_mb)
      ; ("setup_s", setup_s)
      ; ("latency_samples", float_of_int (List.length round_ms))
      ; ("failed_ratio", 1. -. ratio (float_of_int hops) (float_of_int attempted))
      ; ("check_s", check_s)
      ]
    else begin
      let n = float_of_int (List.length traced_reps) in
      let per_rep f = fsum (List.map f traced_reps) /. n in
      let window = per_rep (fun (_, c) -> List.assoc "window_s" c) in
      let spawn = per_rep (fun ((r : Fig3.rep), _) -> s_of_ns r.spawn_ns) in
      let merge = per_rep (fun ((r : Fig3.rep), _) -> s_of_ns (isum r.rounds_ns)) in
      let exit = per_rep (fun ((r : Fig3.rep), _) -> s_of_ns (r.wall_ns - r.spawn_ns - isum r.rounds_ns)) in
      let counts = snd (List.hd traced_reps) in
      let count name = List.assoc name counts in
      let wall_of (r : Fig3.rep) = float_of_int r.wall_ns in
      let share s = pct s window in
      [ ("runtime.spawn_pct", share spawn)
      ; ("runtime.merge_pct", share merge)
      ; ("runtime.exit_pct", share exit)
      ; ("coverage_pct", share (spawn +. merge +. exit))
      ; ( "trace_overhead_pct"
        , overhead_pct
            ~traced_walls:(List.map (fun (r, _) -> wall_of r) traced_reps)
            ~untraced_walls:(List.map wall_of untraced) )
      ; ("merge_us_per_op", ratio (merge *. 1e6) (count "runtime.ops_merged"))
      ; ("runtime.spawn_s", spawn)
      ; ("runtime.merge_s", merge)
      ; ("runtime.exit_s", exit)
      ; ("runtime.merge_us_per_child", ratio (merge *. 1e6) (count "runtime.merged_children"))
      ; ("traced_wall_s", window)
      ; ( "ot.transforms_per_merged_op"
        , ratio (count "ot.transform_calls") (count "runtime.ops_merged") )
      ; ("sim.cycles", float_of_int cycles)
      ]
      @ List.filter (fun (n, _) -> n <> "window_s") counts
    end
  in
  let info =
    [ ("passes", J.Int (List.length reps))
    ; ("hops_per_repetition", J.Int expected)
    ; ("cycles", J.Int cycles)
    ; ("order_digest", J.String reference.order_digest)
    ; ("event_digest", J.String reference.event_digest)
    ]
  in
  { values; info; problems; attempted; failed = attempted - hops }

(* --- output ------------------------------------------------------------------- *)

let run_workload w (catalog : Catalog.metric list) ~seed ~seconds ~traced ~append_to =
  let o =
    match w.kind with
    | Fleet profile -> run_fleet w (profile ~seed) ~seed ~seconds ~traced
    | Fig3 -> run_fig3 w ~seed ~seconds ~traced
  in
  let metrics =
    List.map
      (fun (m : Catalog.metric) ->
        (m.name, Option.value ~default:0. (List.assoc_opt m.name o.values), m.unit))
      catalog
  in
  List.iter (fun (n, v, u) -> Printf.printf "%s %.17g %s\n" n v u) metrics;
  List.iter (fun (n, j) -> Printf.printf "# %s %s\n" n (J.to_string j)) o.info;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) o.problems;
  if o.failed > 0 then Printf.printf "FAILED: %d of %d ops never acknowledged\n" o.failed o.attempted;
  let run =
    J.Obj
      [ ("workload", J.String w.name)
      ; ("seed", J.String (Int64.to_string seed))
      ; ("seconds", J.Float seconds)
      ; ("traced", J.Bool traced)
      ; ("correct", J.Bool (o.problems = []))
      ; ("attempted", J.Int o.attempted)
      ; ("failed", J.Int o.failed)
      ; ( "metrics"
        , J.Obj
            (List.map
               (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
               metrics) )
      ; ("info", J.Obj o.info)
      ]
  in
  let out = Printf.sprintf "BENCH_ledger_%s.json" w.name in
  Catalog.write_file out (J.to_string run);
  Option.iter (fun path -> Catalog.append path run) append_to;
  Printf.printf "wrote %s\n%!" out;
  if o.problems = [] && o.failed = 0 then 0 else 1

(* --- command line --------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: ledger.exe <workload> [--seed N] [--seconds S] [--traced] [--append SET]\n\
    \       ledger.exe --self-check\n\
    \       ledger.exe compare A B";
  prerr_endline
    ("workloads (default seed): "
    ^ String.concat ", " (List.map (fun w -> Printf.sprintf "%s (%Ld)" w.name w.default_seed) workloads));
  2

(* BENCHMARK.json, missing from the current directory, or a malformed file. *)
let file_error e =
  prerr_endline ("ledger.exe: " ^ e);
  2

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--self-check" ] ->
      let fleet = Fleet.self_check () in
      if Fig3.self_check () && fleet then 0 else 1
    | "compare" :: rest -> (
      try Compare.main rest with Sys_error e | Failure e | J.Parse_error e -> file_error e)
    | name :: rest -> (
      let rec parse ((seed, seconds, traced, append_to) as acc) = function
        | [] -> Some acc
        | "--seed" :: n :: r ->
          Option.bind (Int64.of_string_opt n) (fun s -> parse (s, seconds, traced, append_to) r)
        | "--seconds" :: s :: r ->
          Option.bind (float_of_string_opt s) (fun s -> parse (seed, s, traced, append_to) r)
        | "--traced" :: r -> parse (seed, seconds, true, append_to) r
        | "--append" :: f :: r -> parse (seed, seconds, traced, Some f) r
        | _ -> None
      in
      match List.find_opt (fun w -> w.name = name) workloads with
      | None -> usage ()
      | Some w -> (
        match parse (w.default_seed, 10., false, None) rest with
        | None -> usage ()
        | Some (seed, seconds, traced, append_to) -> (
          match if traced then Catalog.per_layer () else Catalog.end_to_end () with
          | exception (Sys_error e | Failure e | J.Parse_error e) -> file_error e
          | catalog -> run_workload w catalog ~seed ~seconds ~traced ~append_to)))
    | [] -> usage ()
  in
  exit code
