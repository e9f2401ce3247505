(* The benchmark harness: regenerates every figure of the paper's evaluation
   and adds ablation microbenchmarks for the design choices DESIGN.md calls
   out.

   Usage:
     dune exec bench/main.exe                 # everything, CI-friendly scale
     dune exec bench/main.exe fig1            # Figure 1 (divergence without OT)
     dune exec bench/main.exe fig2            # Figure 2 (convergence with OT)
     dune exec bench/main.exe fig3 [--full]   # Figure 3 (4 setups vs workload l)
     dune exec bench/main.exe overhead        # Section III constant-overhead study
     dune exec bench/main.exe scale           # time vs host count (Section VI)
     dune exec bench/main.exe copy            # persistent vs deep copy ablation
     dune exec bench/main.exe spawn [--gate]  # O(cells) COW spawn vs deep copy, size sweep
     dune exec bench/main.exe dist            # distributed-runtime overhead
     dune exec bench/main.exe coop            # threaded vs cooperative scheduler
     dune exec bench/main.exe topology        # network shapes (full/ring/star/grid)
     dune exec bench/main.exe semaphore       # Section IV.A expressiveness cost
     dune exec bench/main.exe journal [--gate]  # journal compaction payoff on MergeAll
     dune exec bench/main.exe service [--gate]  # shard service: delta sync vs snapshots
     dune exec bench/main.exe obs [--gate]    # observability overhead (recorder/tracing)
     dune exec bench/main.exe text [--gate]   # chunked-rope Mtext vs flat strings, wire bytes
     dune exec bench/main.exe micro           # bechamel component microbenches
     dune exec bench/main.exe fuzz            # sm-fuzz seeds/second (CI budget sizing)

   Flags (after the subcommand):
     --json         write BENCH_<name>.json (per-series n/mean/stddev/median/p95);
                    implied by --gate so gated runs always leave their artifact
     --obs          enable Sm_obs metrics and dump counters/histograms at exit
     --trace FILE   capture a Chrome trace_event file of the run (sets the
                    verbosity to Debug unless something already raised it)
     --trace-jsonl FILE   capture the structured event stream as JSONL —
                    the input format of `sm-trace` (summary / critical-path /
                    attribute / diff / expo); combinable with --trace

   Absolute times differ from the paper's i7-3520M testbed; the *shapes* are
   what EXPERIMENTS.md compares: linearity in l, a workload-independent
   Spawn/Merge overhead whose relative cost shrinks with l, and the
   deterministic variant running at or below the non-deterministic one. *)

module W = Sm_sim.Workload

let section title =
  Format.printf "@.=== %s ===@." title;
  Format.print_flush ()

(* --- machine-readable output and observability flags ----------------------- *)

(* `--json` collects every timed sample and writes BENCH_<name>.json; the
   series key identifies the measurement ("l=1000/Spawn Merge (determ.)"). *)
let json_mode = ref false
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16

let record name ms =
  if !json_mode then
    Hashtbl.replace samples name (ms :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let series_json xs =
  let s = Sm_util.Stats.summarize xs in
  Sm_obs.Json.Obj
    [ ("n", Sm_obs.Json.Int s.Sm_util.Stats.n)
    ; ("mean_ms", Sm_obs.Json.Float s.Sm_util.Stats.mean)
    ; ("stddev_ms", Sm_obs.Json.Float s.Sm_util.Stats.stddev)
    ; ("median_ms", Sm_obs.Json.Float s.Sm_util.Stats.median)
    ; ("p95_ms", Sm_obs.Json.Float (Sm_util.Stats.percentile xs ~p:95.0))
    ; ("min_ms", Sm_obs.Json.Float s.Sm_util.Stats.min)
    ; ("max_ms", Sm_obs.Json.Float s.Sm_util.Stats.max)
    ]

let write_json bench_name =
  if !json_mode && Hashtbl.length samples > 0 then begin
    let series =
      List.sort compare
        (Hashtbl.fold (fun name xs acc -> (name, series_json (List.rev xs)) :: acc) samples [])
    in
    let doc = Sm_obs.Json.Obj [ ("bench", Sm_obs.Json.String bench_name); ("series", Sm_obs.Json.Obj series) ] in
    let path = Printf.sprintf "BENCH_%s.json" bench_name in
    let oc = open_out path in
    output_string oc (Sm_obs.Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Hashtbl.reset samples;
    Format.printf "@.wrote %s@." path
  end

(* --- Figures 1 and 2 ------------------------------------------------------ *)

module Fig_list = Sm_ot.Op_list.Make (struct
  type t = string

  let equal = String.equal
  let pp ppf s = Format.fprintf ppf "%s" s
end)

let pp_slist ppf l =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Format.pp_print_string)
    l

let fig1 () =
  section "figure 1: concurrent del(2) and ins(0,d) WITHOUT transformation";
  let base = [ "a"; "b"; "c" ] in
  let op_a = Fig_list.del 2 and op_b = Fig_list.ins 0 "d" in
  let site_a = Fig_list.apply (Fig_list.apply base op_a) op_b in
  let site_b = Fig_list.apply (Fig_list.apply base op_b) op_a in
  Format.printf "site A applies del(2) then ins(0,d): %a@." pp_slist site_a;
  Format.printf "site B applies ins(0,d) then del(2): %a@." pp_slist site_b;
  Format.printf "paper: sites diverge ([d,a,b] vs [d,a,c]) -> %s@."
    (if site_a <> site_b then "reproduced" else "NOT reproduced")

let fig2 () =
  section "figure 2: the same operations WITH operational transformation";
  let base = [ "a"; "b"; "c" ] in
  let op_a = Fig_list.del 2 and op_b = Fig_list.ins 0 "d" in
  let open Sm_ot in
  let a' = Fig_list.transform op_a ~against:op_b ~tie:(Side.uniform Side.Applied) in
  let b' = Fig_list.transform op_b ~against:op_a ~tie:(Side.uniform Side.Incoming) in
  let site_a = List.fold_left Fig_list.apply (Fig_list.apply base op_a) b' in
  let site_b = List.fold_left Fig_list.apply (Fig_list.apply base op_b) a' in
  Format.printf "A's del(2) transformed against ins(0,d): %a@."
    (Format.pp_print_list Fig_list.pp_op) a';
  Format.printf "site A: %a,  site B: %a@." pp_slist site_a pp_slist site_b;
  Format.printf "paper: both converge to [d,a,b] -> %s@."
    (if site_a = site_b && site_a = [ "d"; "a"; "b" ] then "reproduced" else "NOT reproduced")

(* --- Figure 3 -------------------------------------------------------------- *)

type setup =
  { label : string
  ; run : W.config -> W.report
  ; mode : W.mode
  }

(* One long-lived executor for every Spawn/Merge run in this process, so
   measurements exclude the fixed ~50 ms domain-teardown artifact (see
   Runtime.run) and reflect the algorithmic overhead the paper discusses. *)
let executor = lazy (Sm_core.Executor.create ())

let sm_run c = Sm_sim.Sim_spawnmerge.run ~executor:(Lazy.force executor) c

let setups =
  [ { label = "Conventional (non-determ.)"; run = Sm_sim.Sim_conventional.run; mode = W.Hash_destination }
  ; { label = "Conventional (determ.)"; run = Sm_sim.Sim_conventional.run; mode = W.Ring_destination }
  ; { label = "Spawn Merge (non-determ.)"; run = sm_run; mode = W.Hash_destination }
  ; { label = "Spawn Merge (determ.)"; run = sm_run; mode = W.Ring_destination }
  ]

(* Least-squares fit of time(ms) against load, for the shape analysis. *)
let linear_fit points =
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if denom = 0.0 then (0.0, sy /. n)
  else
    let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
    let intercept = (sy -. (slope *. sx)) /. n in
    (slope, intercept)

let fig3 ?(reps = 2) ~full () =
  let base, loads =
    if full then
      ( { W.default with W.messages = 100; ttl = 100; hosts = 20 }
      , [ 0; 1000; 2500; 5000; 7500; 10000 ] )
    else
      ({ W.default with W.messages = 20; ttl = 20; hosts = 20 }, [ 0; 1000; 2000; 3000; 4000; 5000 ])
  in
  section
    (Printf.sprintf
       "figure 3: simulation time vs host workload l  (%d hosts, %d messages, ttl %d%s)"
       base.W.hosts base.W.messages base.W.ttl
       (if full then ", PAPER SCALE" else ", scaled down; use `fig3 --full` for paper scale"));
  Format.printf "@.%-10s" "load l";
  List.iter (fun s -> Format.printf "%28s" s.label) setups;
  Format.printf "@.";
  let series = Hashtbl.create 4 in
  List.iter
    (fun load ->
      Format.printf "%-10d" load;
      List.iter
        (fun s ->
          let cfg = { base with W.load; mode = s.mode } in
          let rep_ms =
            List.init (max 1 reps) (fun _ -> (s.run cfg).W.elapsed_s *. 1000.0)
          in
          List.iter (record (Printf.sprintf "l=%d/%s" load s.label)) rep_ms;
          (* min of [reps] runs: scheduling noise only ever adds time *)
          let ms = List.fold_left Float.min infinity rep_ms in
          let prev = Option.value ~default:[] (Hashtbl.find_opt series s.label) in
          Hashtbl.replace series s.label ((float_of_int load, ms) :: prev);
          Format.printf "%26.1fms" ms;
          Format.print_flush ())
        setups;
      Format.printf "@.")
    loads;
  (* shape analysis vs the paper's claims *)
  Format.printf "@.-- shape analysis (paper expectations in brackets) --@.";
  let fits =
    List.map
      (fun s ->
        let slope, intercept = linear_fit (Hashtbl.find series s.label) in
        Format.printf "%-28s time ~ %.4f ms/kiter * l + %.1f ms@." s.label (slope *. 1000.0)
          intercept;
        (s.label, slope, intercept))
      setups
  in
  let find l = List.find (fun (lbl, _, _) -> lbl = l) fits in
  let _, s_cn, i_cn = find "Conventional (non-determ.)" in
  let _, _s_cd, _i_cd = find "Conventional (determ.)" in
  let _, s_sn, i_sn = find "Spawn Merge (non-determ.)" in
  let _, s_sd, i_sd = find "Spawn Merge (determ.)" in
  Format.printf "@.[all rise linearly in l]                 slopes: %s@."
    (if List.for_all (fun (_, s, _) -> s > 0.0) fits then "all positive, linear fit above" else "UNEXPECTED");
  Format.printf "[Spawn/Merge pays a ~constant overhead]  intercept gap SM - conventional: %+.1f ms (non-det), slope ratio %.2fx@."
    (i_sn -. i_cn) (s_sn /. s_cn);
  let at l = List.map (fun (lbl, s, i) -> (lbl, (s *. l) +. i)) fits in
  let rel l =
    let v = at l in
    let get lbl = List.assoc lbl v in
    (get "Spawn Merge (non-determ.)" -. get "Conventional (non-determ.)")
    /. get "Conventional (non-determ.)"
    *. 100.0
  in
  let lo = float_of_int (List.nth loads 1) and hi = float_of_int (List.nth loads (List.length loads - 1)) in
  Format.printf "[overhead %% shrinks as l grows (38%% -> 7%%)] overhead at l=%.0f: %+.0f%%, at l=%.0f: %+.0f%%@."
    lo (rel lo) hi (rel hi);
  Format.printf "[SM determ. <= SM non-determ. (1-4%% gap)]  measured gap: %+.1f%% (fitted, at l=%.0f)@."
    (let v = at hi in
     (List.assoc "Spawn Merge (non-determ.)" v -. List.assoc "Spawn Merge (determ.)" v)
     /. List.assoc "Spawn Merge (non-determ.)" v *. 100.0)
    hi;
  ignore (s_sd, i_sd)

(* --- Section III: the constant overhead, dissected ------------------------ *)

let overhead () =
  section "overhead: Spawn/Merge cost at zero workload (Section III's ~400 ms analysis)";
  Format.printf "@.The paper attributes the constant gap to per-spawn copying (20 tasks x 20@.";
  Format.printf "queues).  Our copies are persistent (copy-on-write for free, the paper's@.";
  Format.printf "future-work optimization), so the residual overhead is per-cycle merge@.";
  Format.printf "bookkeeping over every cell; queue pushes commute, so no transform runs.@.@.";
  Format.printf "%-8s %-18s %-18s %-12s %s@." "hosts" "conventional" "spawn-merge" "gap" "(l = 0, messages = hosts, ttl = 10)";
  List.iter
    (fun hosts ->
      let cfg =
        { W.hosts; messages = hosts; ttl = 10; load = 0; mode = W.Hash_destination; topology = W.Full; seed = 5L }
      in
      let conv = (Sm_sim.Sim_conventional.run cfg).W.elapsed_s *. 1000.0 in
      let sm = (sm_run cfg).W.elapsed_s *. 1000.0 in
      record (Printf.sprintf "hosts=%d/conventional" hosts) conv;
      record (Printf.sprintf "hosts=%d/spawn-merge" hosts) sm;
      Format.printf "%-8d %15.1f ms %15.1f ms %+9.1f ms@." hosts conv sm (sm -. conv);
      Format.print_flush ())
    [ 5; 10; 20; 40 ];
  Format.printf "@.%-8s %-18s %-18s %-12s %s@." "load l" "conventional" "spawn-merge" "gap" "(20 hosts: the gap is ~independent of l)";
  List.iter
    (fun load ->
      let cfg = { W.hosts = 20; messages = 20; ttl = 10; load; mode = W.Hash_destination; topology = W.Full; seed = 5L } in
      let conv = (Sm_sim.Sim_conventional.run cfg).W.elapsed_s *. 1000.0 in
      let sm = (sm_run cfg).W.elapsed_s *. 1000.0 in
      record (Printf.sprintf "load=%d/conventional" load) conv;
      record (Printf.sprintf "load=%d/spawn-merge" load) sm;
      Format.printf "%-8d %15.1f ms %15.1f ms %+9.1f ms@." load conv sm (sm -. conv);
      Format.print_flush ())
    [ 0; 1500; 3000 ]

(* --- Section IV.A: what the semaphore construction costs ------------------- *)

let semaphore_bench () =
  section "semaphore: Spawn/Merge semaphore vs native mutex (Section IV.A: \"inefficient and cumbersome\", but equivalent)";
  let rounds = 50 in
  let workers = 3 in
  let t0 = Unix.gettimeofday () in
  let worker (ops : Sm_core.Semaphore.ops) =
    for _ = 1 to rounds do
      ops.acquire 0;
      ops.release 0
    done
  in
  (match Sm_core.Semaphore.run_system ~executor:(Lazy.force executor) ~values:[| 1 |] (List.init workers (fun _ -> worker)) with
  | Sm_core.Semaphore.Completed -> ()
  | Sm_core.Semaphore.All_blocked -> failwith "unexpected block");
  let sm_s = Unix.gettimeofday () -. t0 in
  let m = Mutex.create () in
  let t0 = Unix.gettimeofday () in
  let native () =
    for _ = 1 to rounds do
      Mutex.lock m;
      Mutex.unlock m
    done
  in
  let threads = List.init workers (fun _ -> Thread.create native ()) in
  List.iter Thread.join threads;
  let native_s = Unix.gettimeofday () -. t0 in
  let total = rounds * workers in
  Format.printf "%d acquire/release pairs across %d workers:@." total workers;
  Format.printf "  spawn-merge semaphore: %8.1f ms  (%7.0f pairs/s)@." (sm_s *. 1000.0)
    (float_of_int total /. sm_s);
  Format.printf "  native mutex:          %8.3f ms  (%7.0f pairs/s)@." (native_s *. 1000.0)
    (float_of_int total /. native_s);
  Format.printf "equivalence costs ~%.0fx -- the construction is a proof, not a fast path.@."
    (sm_s /. native_s)

(* --- scalability: time vs host count (Section VI future work) -------------- *)

let scale () =
  section "scale: simulation time vs host count at fixed per-host workload";
  Format.printf "@.%-8s %-10s %-18s %-18s %-10s@." "hosts" "hops" "conventional" "spawn-merge" "SM/conv";
  List.iter
    (fun hosts ->
      (* keep work per host constant: messages = hosts, so hops = hosts*ttl *)
      let cfg =
        { W.hosts; messages = hosts; ttl = 15; load = 400; mode = W.Hash_destination; topology = W.Full; seed = 11L }
      in
      let conv = (Sm_sim.Sim_conventional.run cfg).W.elapsed_s *. 1000.0 in
      let sm = (sm_run cfg).W.elapsed_s *. 1000.0 in
      record (Printf.sprintf "hosts=%d/conventional" hosts) conv;
      record (Printf.sprintf "hosts=%d/spawn-merge" hosts) sm;
      Format.printf "%-8d %-10d %15.1f ms %15.1f ms %8.2fx@." hosts (W.total_hops cfg) conv sm
        (sm /. conv);
      Format.print_flush ())
    [ 4; 8; 16; 32; 64 ];
  Format.printf "@.(per-cycle merge bookkeeping is O(hosts x cells) = O(hosts^2) with no@.";
  Format.printf " transform call, since queue pushes commute; at load 400 the useful work@.";
  Format.printf " dominates, and the ratio moves less with hosts than between runs)@."

(* --- ablation: persistent copy vs the paper's deep copy -------------------- *)

let copy_ablation () =
  section "ablation: workspace copy cost, persistent (ours) vs deep (paper's PoC)";
  let module Mq = Sm_mergeable.Mqueue.Make (struct
    type t = string

    let equal = String.equal
    let pp ppf s = Format.fprintf ppf "%S" s
  end) in
  Format.printf "@.%-28s %-16s %-16s %-10s@." "workspace" "persistent copy" "deep copy" "ratio";
  List.iter
    (fun (n_queues, n_items) ->
      let ws = Sm_mergeable.Workspace.create () in
      let payloads = List.init n_items (fun i -> String.make 40 (Char.chr (65 + (i mod 26)))) in
      for i = 0 to n_queues - 1 do
        Sm_mergeable.Workspace.init ws (Mq.key ~name:(Printf.sprintf "q%d" i)) payloads
      done;
      let time_n n f =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to n do
          ignore (Sys.opaque_identity (f ()))
        done;
        (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e6
      in
      let persistent = time_n 2000 (fun () -> Sm_mergeable.Workspace.copy ws) in
      (* what the paper's unoptimized framework did: structural deep copy of
         every value (simulated via marshalling, a faithful full copy) *)
      let deep =
        time_n 200 (fun () ->
            (Marshal.from_string (Marshal.to_string payloads []) 0 : string list))
        *. float_of_int n_queues
      in
      Format.printf "%2d queues x %3d msgs         %10.1f us    %10.1f us  %8.0fx@." n_queues
        n_items persistent deep (deep /. persistent);
      Format.print_flush ())
    [ (5, 20); (20, 20); (20, 100); (40, 100) ];
  Format.printf "@.(the paper measured ~400 ms constant overhead from 20 tasks each deep-@.";
  Format.printf " copying 20 queues; persistent states make the same copy O(#values),@.";
  Format.printf " which is why our Figure-3 intercept is an order of magnitude smaller)@."

(* --- distributed runtime overhead (Section VI future work) ----------------- *)

let dist_registry = lazy (
  let registry = Sm_dist.Registry.create () in
  let k = Sm_dist.Registry.value registry ~name:"bench-counter" (module Sm_dist.Codable.Counter) in
  let t_add =
    Sm_dist.Registry.task registry ~name:"add" (fun ctx ->
        Sm_dist.Registry.update ctx k (Sm_ot.Op_counter.add 1))
  in
  let t_sync =
    Sm_dist.Registry.task registry ~name:"sync-n" (fun ctx ->
        for _ = 1 to int_of_string (Sm_dist.Registry.argument ctx) do
          Sm_dist.Registry.update ctx k (Sm_ot.Op_counter.add 1);
          ignore (Sm_dist.Registry.sync ctx)
        done)
  in
  (registry, k, t_add, t_sync))

let dist_bench () =
  section "dist: remote (simulated MPI) spawn/merge overhead vs local runtime";
  let registry, k, t_add, t_sync = Lazy.force dist_registry in
  let kc = Sm_mergeable.Mcounter.key ~name:"local-bench-counter" in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let tasks = 100 in
  let local_ms =
    time (fun () ->
        let v =
          Sm_core.Runtime.run ~executor:(Lazy.force executor) (fun ctx ->
              Sm_mergeable.Workspace.init (Sm_core.Runtime.workspace ctx) kc 0;
              for _ = 1 to tasks do
                ignore
                  (Sm_core.Runtime.spawn ctx (fun c ->
                       Sm_mergeable.Mcounter.incr (Sm_core.Runtime.workspace c) kc))
              done;
              Sm_core.Runtime.merge_all ctx;
              Sm_mergeable.Mcounter.get (Sm_core.Runtime.workspace ctx) kc)
        in
        assert (v = tasks))
  in
  let cluster = Sm_dist.Coordinator.cluster ~nodes:2 registry in
  let remote_ms =
    time (fun () ->
        let v =
          Sm_dist.Coordinator.run cluster (fun ctx ->
              let ws = Sm_dist.Coordinator.workspace ctx in
              Sm_mergeable.Workspace.init ws (Sm_dist.Registry.workspace_key k) 0;
              for _ = 1 to tasks do
                ignore (Sm_dist.Coordinator.spawn ctx t_add ~argument:"")
              done;
              Sm_dist.Coordinator.merge_all ctx;
              Sm_mergeable.Workspace.read ws (Sm_dist.Registry.workspace_key k))
        in
        assert (v = tasks))
  in
  let rounds = 200 in
  let sync_ms =
    time (fun () ->
        Sm_dist.Coordinator.run cluster (fun ctx ->
            let ws = Sm_dist.Coordinator.workspace ctx in
            Sm_mergeable.Workspace.init ws (Sm_dist.Registry.workspace_key k) 0;
            ignore (Sm_dist.Coordinator.spawn ctx t_sync ~argument:(string_of_int rounds));
            let rec drain () =
              if Sm_dist.Coordinator.live_tasks ctx > 0 then begin
                Sm_dist.Coordinator.merge_all ctx;
                drain ()
              end
            in
            drain ()))
  in
  Sm_dist.Coordinator.shutdown cluster;
  record "local" local_ms;
  record "remote" remote_ms;
  record "sync-roundtrips" sync_ms;
  Format.printf "%d one-shot tasks, local runtime:     %8.1f ms  (%6.0f us/task)@." tasks local_ms
    (local_ms *. 1000.0 /. float_of_int tasks);
  Format.printf "%d one-shot tasks, 2-node cluster:    %8.1f ms  (%6.0f us/task)@." tasks remote_ms
    (remote_ms *. 1000.0 /. float_of_int tasks);
  Format.printf "%d sync roundtrips over the wire:     %8.1f ms  (%6.0f us/sync)@." rounds sync_ms
    (sync_ms *. 1000.0 /. float_of_int rounds);
  Format.printf "(the gap is serialization + channel hops -- the cost of rank isolation)@."

(* --- topologies: the workload under different network shapes --------------- *)

let topology_bench () =
  section "topology: the simulation across network shapes (16 hosts, load 500)";
  Format.printf "@.%-8s %-18s %-18s %-18s@." "shape" "conventional" "spawn-merge" "order digest";
  List.iter
    (fun (name, topology) ->
      let cfg =
        { W.hosts = 16; messages = 16; ttl = 12; load = 500; mode = W.Hash_destination; topology
        ; seed = 9L }
      in
      let conv = Sm_sim.Sim_conventional.run cfg in
      let sm = sm_run cfg in
      Format.printf "%-8s %15.1f ms %15.1f ms   %s%s@." name (conv.W.elapsed_s *. 1000.0)
        (sm.W.elapsed_s *. 1000.0) sm.W.order_digest
        (if conv.W.event_digest = sm.W.event_digest then "" else "  TRAJECTORY MISMATCH");
      Format.print_flush ())
    [ ("full", W.Full); ("ring", W.Ring_topology); ("star", W.Star); ("grid", W.Grid) ]

(* --- schedulers: threaded vs cooperative on the same simulation ------------ *)

let coop_bench () =
  section "coop: the Listing-4 simulation under both schedulers";
  Format.printf "@.%-8s %-18s %-18s %-12s@." "load l" "threaded" "cooperative" "digests";
  List.iter
    (fun load ->
      let cfg = { W.hosts = 20; messages = 20; ttl = 15; load; mode = W.Hash_destination; topology = W.Full; seed = 3L } in
      let threaded = sm_run cfg in
      let coop = Sm_sim.Sim_spawnmerge.run_cooperative cfg in
      record (Printf.sprintf "l=%d/threaded" load) (threaded.W.elapsed_s *. 1000.0);
      record (Printf.sprintf "l=%d/cooperative" load) (coop.W.elapsed_s *. 1000.0);
      Format.printf "%-8d %15.1f ms %15.1f ms %-12s@." load (threaded.W.elapsed_s *. 1000.0)
        (coop.W.elapsed_s *. 1000.0)
        (if threaded.W.order_digest = coop.W.order_digest then "identical" else "DIFFER!");
      Format.print_flush ())
    [ 0; 1000; 2500 ];
  Format.printf "@.(same results byte for byte; at l=0 each sync parks one OS thread and@.";
  Format.printf " wakes another on the threaded scheduler, where the cooperative one@.";
  Format.printf " performs an effect and queues a continuation)@."

(* --- component microbenches (bechamel), one Test.make per component -------- *)

let micro ~quick () =
  section "micro: component costs (bechamel, OLS ns/run)";
  let open Bechamel in
  let module Mq = Sm_mergeable.Mqueue.Make (struct
    type t = int

    let equal = Int.equal
    let pp = Format.pp_print_int
  end) in
  let module L = Fig_list in
  let module C = Sm_ot.Control.Make (L) in
  let ws_with_queues n_queues n_items =
    let ws = Sm_mergeable.Workspace.create () in
    let keys =
      Array.init n_queues (fun i ->
          let k = Mq.key ~name:(Printf.sprintf "q%d" i) in
          Sm_mergeable.Workspace.init ws k (List.init n_items (fun j -> j));
          k)
    in
    (ws, keys)
  in
  let ws20, keys20 = ws_with_queues 20 20 in
  let seq_a = List.init 20 (fun i -> L.ins i "x") in
  let seq_b = List.init 20 (fun i -> if i mod 2 = 0 then L.ins i "y" else L.del 0) in
  let payload = String.make 20 'p' in
  let tests =
    Test.make_grouped ~name:"components"
      [ Test.make ~name:"sha1 digest (20B)" (Staged.stage (fun () -> ignore (Sm_util.Sha1.digest payload)))
      ; Test.make ~name:"list IT (one pair)"
          (Staged.stage (fun () ->
               ignore
                 (L.transform (L.ins 3 "a") ~against:(L.del 1)
                    ~tie:Sm_ot.Side.serialization)))
      ; Test.make ~name:"control cross (20x20 ops)"
          (Staged.stage (fun () ->
               ignore (C.cross ~incoming:seq_a ~applied:seq_b ~tie:Sm_ot.Side.serialization)))
      ; Test.make ~name:"workspace copy (20 queues x 20)"
          (Staged.stage (fun () -> ignore (Sm_mergeable.Workspace.copy ws20)))
      ; Test.make ~name:"merge_child (5 ops vs 5 ops)"
          (Staged.stage (fun () ->
               let child = Sm_mergeable.Workspace.copy ws20 in
               for i = 0 to 4 do
                 Mq.push child keys20.(i) 99
               done;
               Sm_mergeable.Workspace.merge_child ~parent:ws20 ~child))
      ; Test.make ~name:"spawn+merge roundtrip (fresh executor)"
          (Staged.stage (fun () ->
               Sm_core.Runtime.run (fun ctx ->
                   ignore (Sm_core.Runtime.spawn ctx (fun _ -> ()));
                   Sm_core.Runtime.merge_all ctx)))
      ; Test.make ~name:"spawn+merge roundtrip (reused executor)"
          (Staged.stage (fun () ->
               Sm_core.Runtime.run ~executor:(Lazy.force executor) (fun ctx ->
                   ignore (Sm_core.Runtime.spawn ctx (fun _ -> ()));
                   Sm_core.Runtime.merge_all ctx)))
      ; Test.make ~name:"spawn+merge roundtrip (cooperative)"
          (Staged.stage (fun () ->
               Sm_core.Runtime.Coop.run (fun ctx ->
                   ignore (Sm_core.Runtime.spawn ctx (fun _ -> ()));
                   Sm_core.Runtime.merge_all ctx)))
      ]
  in
  let quota = if quick then 0.25 else 1.0 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      let ns = match Analyze.OLS.estimates est with Some (e :: _) -> e | _ -> nan in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square est) in
      Format.printf "%-45s %12.1f ns/run   (r2 %.3f)@." name ns r2)
    (List.sort compare rows)

(* --- journal: compaction payoff on a journal-heavy MergeAll ----------------- *)

module J_str = struct
  type t = string

  let equal = String.equal
  let compare = String.compare
  let pp ppf s = Format.fprintf ppf "%s" s
end

module J_int = struct
  type t = int

  let equal = Int.equal
  let pp = Format.pp_print_int
end

module J_map = Sm_mergeable.Mmap.Make (J_str) (J_int)
module J_reg = Sm_mergeable.Mregister.Make (J_str)

type journal_keys =
  { text : Sm_mergeable.Mtext.handle
  ; map : J_map.handle
  ; reg : J_reg.handle
  ; counter : Sm_mergeable.Mcounter.handle
  }

(* The journal keys, compacting or raw ({!Sm_check.Uncompacted}) under the
   same names.  Minted in sequence with [let ... in], never inside the
   record literal: record fields evaluate right to left, and key ids set the
   digest's fold order, so both sets must mint in the same order. *)
let journal_keys ~compaction =
  let key data ~name =
    Sm_mergeable.Workspace.create_key
      (if compaction then data else Sm_check.Uncompacted.wrap data)
      ~name
  in
  let text = key (module Sm_mergeable.Mtext.Data) ~name:"journal.text" in
  let map = key (module J_map.Data) ~name:"journal.map" in
  let reg = key (module J_reg.Data) ~name:"journal.reg" in
  let counter = key (module Sm_mergeable.Mcounter.Data) ~name:"journal.counter" in
  { text; map; reg; counter }

let jk_on = journal_keys ~compaction:true
let jk_off = journal_keys ~compaction:false

(* One child's journal: long compactable runs that still conflict *across*
   children — text appends race for the same positions, map puts collide on
   the same 8 keys, register assigns disagree — so the merge cannot take the
   commutes fast path and every surviving op really is transformed. *)
let journal_child_ops jk ws ~child ~ops_per_child =
  let n_text = ops_per_child * 5 / 8 in
  let n_map = ops_per_child / 4 in
  let n_scalar = ops_per_child / 16 in
  for _ = 1 to n_text do
    Sm_mergeable.Mtext.append ws jk.text (String.make 1 (Char.chr (97 + (child mod 26))))
  done;
  for i = 1 to n_map do
    J_map.put ws jk.map (Printf.sprintf "k%d" (i mod 8)) ((child * 1000) + i)
  done;
  for i = 1 to n_scalar do
    J_reg.set ws jk.reg (Printf.sprintf "c%d-%d" child i)
  done;
  for _ = 1 to n_scalar do
    Sm_mergeable.Mcounter.incr ws jk.counter
  done

type journal_run =
  { j_ms : float
  ; j_transforms : int
  ; j_compact_in : int
  ; j_compact_out : int
  ; j_digest : string
  }

let journal_run ~children ~ops_per_child ~compaction =
  let module Ws = Sm_mergeable.Workspace in
  let module M = Sm_obs.Metrics in
  let saved_m = M.is_enabled () in
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled saved_m) @@ fun () ->
  let jk = if compaction then jk_on else jk_off in
  let parent = Ws.create () in
  Sm_mergeable.Mtext.init parent jk.text "";
  Ws.init parent jk.map J_map.Op.Key_map.empty;
  Ws.init parent jk.reg "-";
  Ws.init parent jk.counter 0;
  let kids =
    List.init children (fun i ->
        let ws = Ws.copy parent in
        journal_child_ops jk ws ~child:i ~ops_per_child;
        ws)
  in
  let t0c = M.value Sm_ot.Control.transform_calls in
  let ci0 = M.value Sm_ot.Control.compact_in in
  let co0 = M.value Sm_ot.Control.compact_out in
  let t0 = Unix.gettimeofday () in
  List.iter (fun child -> Ws.merge_child ~parent ~child) kids;
  let j_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  { j_ms
  ; j_transforms = M.value Sm_ot.Control.transform_calls - t0c
  ; j_compact_in = M.value Sm_ot.Control.compact_in - ci0
  ; j_compact_out = M.value Sm_ot.Control.compact_out - co0
  ; j_digest = Ws.digest parent
  }

(* Returns whether the >= 2x transform-call reduction held with identical
   digests; the driver turns that into the exit code *after* writing the
   JSON artifact, so a failing gate still uploads its evidence. *)
let journal_bench () =
  section "journal: compaction payoff on a journal-heavy MergeAll";
  let children = 8 and ops_per_child = 160 and reps = 3 in
  Format.printf "%d children x %d journal ops (appends / map puts / assigns / incrs),@."
    children ops_per_child;
  Format.printf "merged into one parent through raw keys (compaction off), then compacting@.";
  Format.printf "keys (on):@.@.";
  let measure ~compaction =
    let label = if compaction then "on" else "off" in
    let runs =
      List.init reps (fun _ ->
          let r = journal_run ~children ~ops_per_child ~compaction in
          record (Printf.sprintf "merge-all/compaction=%s" label) r.j_ms;
          record (Printf.sprintf "transform_calls/compaction=%s" label)
            (float_of_int r.j_transforms);
          r)
    in
    (* the op accounting is deterministic across reps; only wall time varies *)
    let best = List.fold_left (fun a r -> if r.j_ms < a.j_ms then r else a) (List.hd runs) runs in
    best
  in
  let off = measure ~compaction:false in
  let on = measure ~compaction:true in
  Format.printf "%-16s %14s %18s %22s@." "compaction" "merge wall" "transform calls" "journal ops";
  let row label (r : journal_run) =
    Format.printf "%-16s %11.2f ms %18d %14d -> %-6d@." label r.j_ms r.j_transforms r.j_compact_in
      r.j_compact_out
  in
  row "off" off;
  row "on" on;
  let ratio = float_of_int off.j_transforms /. float_of_int (max 1 on.j_transforms) in
  Format.printf "@.transform calls cut %.0fx (%d -> %d), wall time %.2fx@." ratio off.j_transforms
    on.j_transforms (off.j_ms /. on.j_ms);
  let digests_equal = String.equal off.j_digest on.j_digest in
  Format.printf "digests %s (%s)@."
    (if digests_equal then "identical" else "DIFFER — COMPACTION CHANGED THE MERGE")
    on.j_digest;
  let ok = digests_equal && off.j_transforms >= 2 * on.j_transforms in
  Format.printf "gate: %s (>= 2x transform-call reduction with equal digests)@."
    (if ok then "ok" else "FAILED");
  ok

(* --- spawn: O(cells) copy-on-write sharing vs a deep copy ------------------- *)

(* Workspaces for the spawn sweep: one text cell carrying the bulk state
   (1k -> 1M chars) plus a counter, so every spawn shares exactly two cells.
   Module-level keys: one mint site, reused across every size. *)
let sk_text = Sm_mergeable.Mtext.key ~name:"spawn.text"
let sk_counter = Sm_mergeable.Mcounter.key ~name:"spawn.counter"

let spawn_ws ~chars =
  let ws = Sm_mergeable.Workspace.create () in
  Sm_mergeable.Mtext.init ws sk_text (String.make chars 'x');
  Sm_mergeable.Workspace.init ws sk_counter 0;
  ws

(* Per-call wall time of [copy]: [reps] batches of [iters] calls each,
   min-of-batches, in us.  Min is the right statistic here — noise (GC,
   scheduler) only ever adds time, and the gate asks about the cost of the
   operation, not the weather. *)
let time_spawn_copy copy ~iters ~reps =
  let batch () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (copy ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e6
  in
  List.fold_left (fun acc _ -> Float.min acc (batch ())) (batch ()) (List.init (reps - 1) Fun.id)

(* A real spawn/merge program over the same keys, for the cow-hit count and
   the depth/width sweep: a [width]-ary spawn tree [depth]
   levels deep; every task appends a marker and bumps the counter, every
   parent merge-alls its children. *)
let rec spawn_tree ctx ~depth ~width =
  let ws = Sm_core.Runtime.workspace ctx in
  Sm_mergeable.Mtext.append ws sk_text "m";
  Sm_mergeable.Mcounter.incr ws sk_counter;
  if depth > 0 then begin
    for _ = 1 to width do
      ignore (Sm_core.Runtime.spawn ctx (fun ctx -> spawn_tree ctx ~depth:(depth - 1) ~width))
    done;
    Sm_core.Runtime.merge_all ctx
  end

let spawn_tree_run ~chars ~depth ~width =
  let module Rt = Sm_core.Runtime in
  Rt.Coop.run (fun ctx ->
      let ws = Rt.workspace ctx in
      Sm_mergeable.Mtext.init ws sk_text (String.make chars 'x');
      Sm_mergeable.Workspace.init ws sk_counter 0;
      spawn_tree ctx ~depth ~width;
      Sm_mergeable.Workspace.digest ws)

let pp_chars chars =
  if chars >= 1_000_000 then Printf.sprintf "%dM" (chars / 1_000_000)
  else Printf.sprintf "%dk" (chars / 1_000)

(* Copy-on-first-write events of the depth-3 x width-4 spawn tree: one per
   cell per sharing window, fixed by the tree's shape. *)
let tree_cow_hits = 170

(* Gates: (a) COW spawn cost is flat in state size — the 1M-char per-copy
   time within 5x of the 1k-char one; (b) >= 10x cheaper than a deep copy of
   the same two cells at 1M chars; (c) the depth-3 x width-4 spawn tree takes
   exactly [tree_cow_hits] cow hits.  Returns whether all held; the driver
   turns that into the exit code after writing BENCH_spawn.json. *)
let spawn_bench () =
  section "spawn: copy-on-write workspace sharing vs a deep copy";
  let module Ws = Sm_mergeable.Workspace in
  let module M = Sm_obs.Metrics in
  let saved_m = M.is_enabled () in
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled saved_m) @@ fun () ->
  let sizes = [ 1_000; 10_000; 100_000; 1_000_000 ] in
  (* The deep column copies the two forced cell states outright — the
     paper's copy-per-spawn model (simulated via marshalling, a faithful
     full copy, as in [copy_ablation]). *)
  let deep_copy ws () =
    let cells = (Ws.read ws sk_text, Ws.read ws sk_counter) in
    (Marshal.from_string (Marshal.to_string cells []) 0 : Sm_ot.Op_text.state * int)
  in
  (* warm up allocator/code paths so the first (smallest) row isn't penalized *)
  let warm = spawn_ws ~chars:1_000 in
  ignore (time_spawn_copy (fun () -> Ws.copy warm) ~iters:200 ~reps:2);
  Format.printf "@.per-spawn workspace copy (2 cells), min over batches:@.@.";
  Format.printf "%-12s %14s %14s %10s@." "state" "cow copy" "deep copy" "ratio";
  let rows =
    List.map
      (fun chars ->
        let ws = spawn_ws ~chars in
        let cow_us = time_spawn_copy (fun () -> Ws.copy ws) ~iters:1000 ~reps:5 in
        (* deep copies of 1M chars are ~4 orders slower; fewer iters suffice *)
        let deep_us =
          time_spawn_copy (deep_copy ws) ~iters:(if chars >= 100_000 then 50 else 500) ~reps:5
        in
        record (Printf.sprintf "copy/cow/chars=%d" chars) (cow_us /. 1000.0);
        record (Printf.sprintf "copy/deep/chars=%d" chars) (deep_us /. 1000.0);
        Format.printf "%-12s %11.2f us %11.2f us %9.0fx@." (pp_chars chars ^ " chars") cow_us
          deep_us (deep_us /. cow_us);
        Format.print_flush ();
        (chars, cow_us, deep_us))
      sizes
  in
  (* spawn trees under the real runtime: per-spawn wall must not grow with
     the state the tasks never touch (they append 1 char to a 10k..1M doc) *)
  (* per-task wall includes each task's O(state) text edit — the point of the
     sweep is that the *spawn* adds nothing as state grows, which shows up as
     the 10k and 1M columns converging once edit cost is subtracted *)
  Format.printf "@.spawn trees (every task edits; parents merge-all):@.@.";
  Format.printf "%-12s %8s %8s %12s %14s@." "state" "depth" "width" "tasks" "per-task";
  List.iter
    (fun (depth, width) ->
      List.iter
        (fun chars ->
          (* nodes of the width-ary tree, minus the root *)
          let tasks =
            let rec total d = if d = 0 then 1 else 1 + (width * total (d - 1)) in
            total depth - 1
          in
          let t0 = Unix.gettimeofday () in
          let (_ : string) = spawn_tree_run ~chars ~depth ~width in
          let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          record (Printf.sprintf "tree/d=%d/w=%d/chars=%d" depth width chars) ms;
          Format.printf "%-12s %8d %8d %12d %11.1f us@." (pp_chars chars ^ " chars") depth width tasks
            (ms *. 1000.0 /. float_of_int tasks);
          Format.print_flush ())
        [ 10_000; 1_000_000 ])
    [ (3, 4); (64, 1) ];
  (* copy-on-first-write accounting on one tree *)
  let hits0 = M.value Ws.cow_hits in
  let (_ : string) = spawn_tree_run ~chars:10_000 ~depth:3 ~width:4 in
  let cow_hits = M.value Ws.cow_hits - hits0 in
  Format.printf "@.accounting: depth-3 x width-4 tree took %d cow_hits@." cow_hits;
  let chars_of (c, _, _) = c in
  let cow_of (_, c, _) = c and deep_of (_, _, d) = d in
  let at n = List.find (fun r -> chars_of r = n) rows in
  let flat_ok = cow_of (at 1_000_000) <= 5.0 *. cow_of (at 1_000) in
  let ratio = deep_of (at 1_000_000) /. cow_of (at 1_000_000) in
  let ratio_ok = ratio >= 10.0 in
  let hits_ok = cow_hits = tree_cow_hits in
  let ok = flat_ok && ratio_ok && hits_ok in
  Format.printf
    "@.gate: %s (flat: 1M/1k cow ratio %.1fx <= 5x: %s; 1M deep/cow %.0fx >= 10x: %s; %d cow_hits \
     = %d: %s)@."
    (if ok then "ok" else "FAILED")
    (cow_of (at 1_000_000) /. cow_of (at 1_000))
    (if flat_ok then "ok" else "FAIL")
    ratio
    (if ratio_ok then "ok" else "FAIL")
    cow_hits tree_cow_hits
    (if hits_ok then "ok" else "FAIL");
  ok

(* --- service: the shard service under an editor fleet ----------------------- *)

(* One module-level document set for every service run in this process: the
   registry must be minted at a single construction site (wire ids are
   registration indices), and runs under a live Runtime would otherwise trip
   DetSan's key-minting hazard.  32 documents spread the 1000-editor fleet the
   way a real deployment would — per-document contention, not one hotspot —
   and each text document starts with ~1 KB of content, as served documents
   do: snapshot cost is dominated by existing state, delta cost by the edits. *)
let service_seed_text =
  String.concat ""
    (List.init 16 (fun k ->
         Printf.sprintf "line %02d: the quick brown fox jumps over the lazy dog.\n" k))

let service_specs =
  List.init 32 (fun i ->
      if i mod 8 = 7 then `Tree (Printf.sprintf "doc/tree%02d" i, [])
      else `Text (Printf.sprintf "doc/text%02d" i, service_seed_text))

let service_docs = lazy (Sm_shard.Service.make_docs service_specs)

(* The paper-style service gate: a 4-shard deployment under 1000 editors with
   50-op sessions must (a) converge on every replica, (b) ship deltas at most
   20% the bytes a snapshot-per-reply protocol ships for the same final
   digests, and (c) be seed-reproducible — byte-identical per-shard digests
   across the threaded and cooperative executors.  Returns whether every gate
   held; the driver turns that into the exit code after writing the JSON. *)
let service_bench () =
  section "service: 4-shard deployment, 1000 editors x 50-op sessions (delta vs snapshot sync)";
  let module Load = Sm_shard.Load in
  let docs = Lazy.force service_docs in
  let profile =
    { Load.default with
      Load.seed = 42L
    ; shards = 4
    ; clients = 1000
    ; ops_per_client = 50
    ; specs = service_specs
    }
  in
  let module M = Sm_obs.Metrics in
  let saved_m = M.is_enabled () in
  M.set_enabled true;
  M.reset ();
  Fun.protect ~finally:(fun () -> M.set_enabled saved_m)
  @@ fun () ->
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  (* Same seed under each executor: the tick loop never consults the
     scheduler, so the digests must be byte-identical — that is the
     cross-executor reproducibility the determinism claim rests on. *)
  let delta_thr, dt_ms =
    time (fun () ->
        Sm_core.Runtime.run ~executor:(Lazy.force executor) (fun _ -> Load.run ~docs profile))
  in
  (* p95 merge latency per shard, from the first (measured) run only *)
  let merge_p95 =
    List.init profile.Load.shards (fun k ->
        Option.value ~default:nan
          (M.percentile (M.histogram (Printf.sprintf "shard%d.merge_ns" k)) ~p:95.0))
  in
  let delta_coop, dc_ms =
    time (fun () -> Sm_core.Runtime.Coop.run (fun _ -> Load.run ~docs profile))
  in
  let snap, s_ms = time (fun () -> Load.run ~docs { profile with Load.mode = `Snapshot }) in
  let ratio =
    float_of_int delta_thr.Load.delta_bytes /. float_of_int (max 1 snap.Load.snapshot_bytes)
  in
  Format.printf "%-34s %14s %12s %10s %8s@." "run" "sync bytes" "epochs" "ticks" "wall";
  let row label bytes (r : Load.report) ms =
    Format.printf "%-34s %14d %12d %10d %6.0fms@." label bytes r.Load.epochs r.Load.ticks ms
  in
  row "delta (threaded executor)" delta_thr.Load.delta_bytes delta_thr dt_ms;
  row "delta (cooperative executor)" delta_coop.Load.delta_bytes delta_coop dc_ms;
  row "snapshot (plain)" snap.Load.snapshot_bytes snap s_ms;
  Format.printf "@.p95 merge latency per shard:";
  List.iteri (fun k p -> Format.printf "  shard%d %.1f us" k (p /. 1e3)) merge_p95;
  Format.printf "@.delta/snapshot byte ratio: %.1f%%  (%d / %d bytes)@." (ratio *. 100.0)
    delta_thr.Load.delta_bytes snap.Load.snapshot_bytes;
  record "service/delta_bytes" (float_of_int delta_thr.Load.delta_bytes);
  record "service/snapshot_bytes" (float_of_int snap.Load.snapshot_bytes);
  record "service/byte_ratio" ratio;
  record "service/delta_wall" dt_ms;
  record "service/snapshot_wall" s_ms;
  List.iteri (fun k p -> record (Printf.sprintf "service/shard%d_merge_p95_ns" k) p) merge_p95;
  let converged =
    delta_thr.Load.converged && delta_coop.Load.converged && snap.Load.converged
  in
  let reproducible =
    delta_thr.Load.shard_digests = delta_coop.Load.shard_digests
    && delta_thr.Load.ticks = delta_coop.Load.ticks
  in
  let same_state = delta_thr.Load.shard_digests = snap.Load.shard_digests in
  let compact = ratio <= 0.20 in
  let verdict ok = if ok then "ok" else "FAILED" in
  Format.printf "@.gates:@.";
  Format.printf "  every replica converged:                 %s@." (verdict converged);
  Format.printf "  digests reproducible across executors:   %s@." (verdict reproducible);
  Format.printf "  snapshot mode reaches the same digests:  %s@." (verdict same_state);
  Format.printf "  delta <= 20%% of snapshot bytes:          %s@." (verdict compact);
  converged && reproducible && same_state && compact

(* --- obs: observability overhead over the shard service ---------------------- *)

(* The overhead contract, measured in-process so it holds on any machine:
   (a) the default configuration — flight recorder on, tracing and metrics
   off — allocates at most [recorder_words_per_event] minor words per
   recorded flight-ring event more than the everything-off configuration,
   which is code-path-identical to the pre-observability service (context
   minting is gated on the Info level; sealing without a context leaves the
   frame's context slot empty); (b) the full paper-scale 4-shard/1000-editor
   run completes under full Debug tracing with digests identical to its
   untraced baseline — observation must never change the computation.

   (a) counts allocation rather than wall time because a count is a
   property of the code: each side repeats it exactly, so the bound needs no
   headroom for host noise and sits less than one word above the measured
   cost (15.00 words per event).  The wall ratio of the two configurations
   is still printed and recorded, but on a shared host its run-to-run
   spread is wider than any useful bound. *)
let recorder_words_per_event = 15.5

let obs_bench () =
  section "obs: observability overhead (flight recorder on vs off; full tracing at scale)";
  let module Load = Sm_shard.Load in
  let module FR = Sm_obs.Flight_recorder in
  let docs = Lazy.force service_docs in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let saved_m = Sm_obs.Metrics.is_enabled () in
  let saved_level = Sm_obs.level () in
  Fun.protect ~finally:(fun () ->
      FR.set_enabled true;
      Sm_obs.Metrics.set_enabled saved_m;
      Sm_obs.set_level saved_level)
  @@ fun () ->
  Sm_obs.set_level Sm_obs.Off;
  Sm_obs.Metrics.set_enabled false;
  let small =
    { Load.default with
      Load.seed = 7L
    ; shards = 4
    ; clients = 200
    ; ops_per_client = 20
    ; specs = service_specs
    }
  in
  (* Warm-up: one-time initialization is paid before anything is counted
     or timed. *)
  ignore (Load.run ~docs small);
  (* Minor words over one untimed run from a collected heap, and the events
     the run's rings recorded (a reset registry holds only its recorders). *)
  let count flag =
    FR.set_enabled flag;
    FR.reset ();
    Gc.full_major ();
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Load.run ~docs small));
    let words = Gc.minor_words () -. before in
    (words, List.fold_left (fun n (_, r) -> n + FR.recorded r) 0 (FR.all ()))
  in
  let off_words, _ = count false in
  let on_words, recorded = count true in
  let words_per_event = (on_words -. off_words) /. float_of_int (max 1 recorded) in
  (* Alternate off/on pairs and compare minima: alternation spreads
     allocator/GC drift over both sides, and noise only ever adds wall
     time, so min-of-N is the intrinsic cost of each configuration. *)
  let measure flag =
    FR.set_enabled flag;
    let _, ms = time (fun () -> Load.run ~docs small) in
    ms
  in
  let pairs = List.init 5 (fun _ -> (measure false, measure true)) in
  let minimum l = List.fold_left Float.min Float.infinity l in
  let off_ms = minimum (List.map fst pairs) in
  let on_ms = minimum (List.map snd pairs) in
  let ratio = on_ms /. off_ms in
  Format.printf "%-44s %12.0f words %8.0fms@." "recorder off (pre-observability code path)"
    off_words off_ms;
  Format.printf "%-44s %12.0f words %8.0fms  (%+.1f%%)@." "recorder on (the default)" on_words
    on_ms ((ratio -. 1.0) *. 100.0);
  Format.printf "%-44s %12d events, %.2f words/event@." "recorded by the flight rings" recorded
    words_per_event;
  (* Full scale: the service gate's 4-shard/1000-editor deployment, once
     bare and once under full Debug tracing into a counting sink. *)
  let big =
    { Load.default with
      Load.seed = 42L
    ; shards = 4
    ; clients = 1000
    ; ops_per_client = 50
    ; specs = service_specs
    }
  in
  FR.set_enabled false;
  let base, base_ms = time (fun () -> Load.run ~docs big) in
  FR.set_enabled true;
  let events = ref 0 in
  Sm_obs.set_sink (Sm_obs.Sink.make (fun _ -> incr events));
  Sm_obs.set_level Sm_obs.Debug;
  Sm_obs.Metrics.set_enabled true;
  let traced, traced_ms = time (fun () -> Load.run ~docs big) in
  Sm_obs.reset_sink ();
  Sm_obs.set_level Sm_obs.Off;
  Sm_obs.Metrics.set_enabled false;
  Format.printf "%-44s %8.0fms@." "4 shards x 1000 editors, observability off" base_ms;
  Format.printf "%-44s %8.0fms  (%d events)@." "same run, full Debug tracing + metrics" traced_ms
    !events;
  record "obs/recorder_off_wall" off_ms;
  record "obs/recorder_on_wall" on_ms;
  record "obs/overhead_ratio" ratio;
  record "obs/recorder_off_words" off_words;
  record "obs/recorder_on_words" on_words;
  record "obs/recorded_events" (float_of_int recorded);
  record "obs/recorder_words_per_event" words_per_event;
  record "obs/baseline_wall" base_ms;
  record "obs/traced_wall" traced_ms;
  record "obs/traced_events" (float_of_int !events);
  let cheap = recorded > 0 && words_per_event <= recorder_words_per_event in
  let complete = traced.Load.converged && base.Load.converged in
  let same = traced.Load.shard_digests = base.Load.shard_digests in
  let verdict ok = if ok then "ok" else "FAILED" in
  Format.printf "@.gates:@.";
  Format.printf "  recorder-on <= %.1f words/event over off: %s@." recorder_words_per_event
    (verdict cheap);
  Format.printf "  traced 1000-editor run converged:        %s@." (verdict complete);
  Format.printf "  tracing left the digests unchanged:      %s@." (verdict same);
  cheap && complete && same

(* --- fuzz: seeds/second through the fuzzer's stages -------------------------- *)

(* Sizes the CI smoke and nightly tiers: seeds/second tells you what
   `--seeds N` budget fits a wall-clock budget.  Three stages, cumulative —
   generation alone, plus the cooperative reference run, plus the full
   oracle battery (the per-seed cost of `sm-fuzz run`). *)
let fuzz_bench () =
  section "fuzz: seeds/second through generation, execution, oracles";
  let profile = Sm_ir.Program.det_profile in
  let depth = 3 in
  let stage label seeds f =
    let t0 = Unix.gettimeofday () in
    for i = 1 to seeds do
      f (Int64.of_int i)
    done;
    let s = Unix.gettimeofday () -. t0 in
    let per = s /. float_of_int seeds *. 1e3 in
    record (Printf.sprintf "fuzz/%s" label) per;
    Format.printf "%-24s %6d seeds %9.2f ms/seed %10.0f seeds/s@." label seeds per
      (float_of_int seeds /. s)
  in
  stage "generate" 500 (fun seed ->
      ignore (Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth ~profile));
  let keys = Sm_fuzz.Interp.Keyset.default () in
  stage "generate+coop-run" 200 (fun seed ->
      let p = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth ~profile in
      ignore
        (Sm_core.Runtime.Coop.run (fun ctx ->
             Sm_fuzz.Interp.run keys p ctx;
             Sm_mergeable.Workspace.digest (Sm_core.Runtime.workspace ctx))));
  Sm_fuzz.Oracle.with_env (fun env ->
      stage "full-oracle-check" 25 (fun seed ->
          let p = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth ~profile in
          match Sm_fuzz.Oracle.check ~runs:2 env p with
          | Ok () -> ()
          | Error f ->
            Format.printf "seed %Ld FAILED [%s] %s@." seed f.Sm_fuzz.Oracle.oracle
              f.Sm_fuzz.Oracle.detail))

(* --- driver ----------------------------------------------------------------- *)

(* --- text: chunked-rope documents vs a flat string ------------------------- *)

(* A deterministic [nops]-op edit session valid on a [len]-byte document:
   mixed inserts (55%, 1-24 bytes) and deletes (1-32 bytes), positions
   uniform over the evolving document. *)
let text_session ~seed ~len ~nops =
  let module Rng = Sm_util.Det_rng in
  let rng = Rng.create ~seed in
  let l = ref len in
  List.init nops (fun _ ->
      if !l = 0 || Rng.float rng < 0.55 then begin
        let pos = Rng.int rng ~bound:(!l + 1) in
        let s = Rng.bytes rng ~len:(1 + Rng.int rng ~bound:24) in
        l := !l + String.length s;
        Sm_ot.Op_text.Ins (pos, s)
      end
      else begin
        let pos = Rng.int rng ~bound:!l in
        let dl = 1 + Rng.int rng ~bound:(min 32 (!l - pos)) in
        l := !l - dl;
        Sm_ot.Op_text.Del (pos, dl)
      end)

(* The paper's flat-string text model, kept here only as the yardstick the
   rope is measured against: every edit splices a fresh string, O(n). *)
let flat_apply s op =
  let n = String.length s in
  match op with
  | Sm_ot.Op_text.Ins (pos, t) ->
    let tl = String.length t in
    let b = Bytes.create (n + tl) in
    Bytes.blit_string s 0 b 0 pos;
    Bytes.blit_string t 0 b pos tl;
    Bytes.blit_string s pos b (pos + tl) (n - pos);
    Bytes.unsafe_to_string b
  | Sm_ot.Op_text.Del (pos, len) ->
    let b = Bytes.create (n - len) in
    Bytes.blit_string s 0 b 0 pos;
    Bytes.blit_string s (pos + len) b pos (n - pos - len);
    Bytes.unsafe_to_string b

(* Gates: (a) the 1M-char/10k-op session runs >= 10x faster on the rope than
   on the flat string; (b) both land on byte-identical documents; (c) the
   packed journal encoding of the session is strictly smaller than a tagged
   op list ([C.list op_codec]); (d) the 10k-char session allocates at most
   [Rope.max_chunk] bytes per edit, so an edit inside a leaf copies that
   leaf once.  Returns whether all held; the driver turns that into the
   exit code after writing BENCH_text.json. *)
let text_bench () =
  section "text: chunked-rope Mtext vs a flat string";
  let module T = Sm_ot.Op_text in
  let module C = Sm_util.Codec in
  let nops = 10_000 in
  let time_once apply st ops =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (List.fold_left apply st ops));
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let time_min ~reps apply st ops =
    List.fold_left
      (fun acc _ -> Float.min acc (time_once apply st ops))
      (time_once apply st ops)
      (List.init (max 0 (reps - 1)) Fun.id)
  in
  (* Bytes the rope allocates per edit over one untimed fold: a count, not
     a timing.  The fold starts after a full major collection because the
     collector's state at the start moves the count; from a collected heap
     the gated 10k-char count repeats exactly. *)
  let alloc_per_edit st ops =
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (List.fold_left T.apply st ops));
    (Gc.allocated_bytes () -. before) /. float_of_int (List.length ops)
  in
  Format.printf "@.%d-op edit sessions (55%% ins / 45%% del), min over batches:@.@." nops;
  Format.printf "%-12s %12s %12s %10s %14s@." "doc" "rope" "flat" "speedup" "rope B/edit";
  let rows =
    List.map
      (fun chars ->
        let doc = String.init chars (fun i -> Char.chr (97 + (i mod 26))) in
        let ops = text_session ~seed:(Int64.of_int (0xB00C + chars)) ~len:chars ~nops in
        let rope_ms = time_min ~reps:3 T.apply (T.of_string doc) ops in
        let flat_ms = time_min ~reps:(if chars >= 1_000_000 then 1 else 2) flat_apply doc ops in
        let alloc = alloc_per_edit (T.of_string doc) ops in
        record (Printf.sprintf "apply/rope/chars=%d" chars) rope_ms;
        record (Printf.sprintf "apply/flat/chars=%d" chars) flat_ms;
        record (Printf.sprintf "alloc/rope/chars=%d" chars) alloc;
        Format.printf "%-12s %9.2f ms %9.2f ms %9.1fx %14.0f@." (pp_chars chars ^ " chars") rope_ms
          flat_ms (flat_ms /. rope_ms) alloc;
        Format.print_flush ();
        (chars, doc, ops, rope_ms, flat_ms, alloc))
      [ 10_000; 100_000; 1_000_000 ]
  in
  let chars_of (c, _, _, _, _, _) = c in
  let _, doc1m, ops1m, rope_ms, flat_ms, _ = List.find (fun r -> chars_of r = 1_000_000) rows in
  let _, _, _, _, _, alloc10k = List.find (fun r -> chars_of r = 10_000) rows in
  (* equivalence on the gated session: byte-identical final documents *)
  let md5 s = Digest.to_hex (Digest.string s) in
  let m_rope = md5 (T.to_string (List.fold_left T.apply (T.of_string doc1m) ops1m)) in
  let m_flat = md5 (List.fold_left flat_apply doc1m ops1m) in
  let doc_ok = String.equal m_rope m_flat in
  Format.printf "@.equivalence: rope md5 %s, flat md5 %s (%s)@." m_rope m_flat
    (if doc_ok then "identical" else "DIFFER — ROPE CHANGED THE DOCUMENT");
  (* wire image of the session journal: packed vs a tagged op list *)
  let packed = String.length (C.encode Sm_dist.Codable.Text.journal_codec ops1m) in
  let op_list = String.length (C.encode (C.list Sm_dist.Codable.Text.op_codec) ops1m) in
  record "journal/packed_kb" (float_of_int packed /. 1024.0);
  record "journal/op_list_kb" (float_of_int op_list /. 1024.0);
  Format.printf "@.journal wire bytes (%d ops): packed %d, op list %d (%.1f%% of op list)@." nops
    packed op_list
    (100.0 *. float_of_int packed /. float_of_int op_list);
  let speedup = flat_ms /. rope_ms in
  let speed_ok = speedup >= 10.0 in
  let wire_ok = packed < op_list in
  let alloc_ok = alloc10k <= float_of_int Sm_ot.Rope.max_chunk in
  let ok = speed_ok && doc_ok && wire_ok && alloc_ok in
  Format.printf
    "@.gate: %s (1M/10k rope speedup %.1fx >= 10x: %s; documents identical: %s; packed < op \
     list: %s; 10k rope %.0f B/edit <= %d: %s)@."
    (if ok then "ok" else "FAILED")
    speedup
    (if speed_ok then "ok" else "FAIL")
    (if doc_ok then "ok" else "FAIL")
    (if wire_ok then "ok" else "FAIL")
    alloc10k Sm_ot.Rope.max_chunk
    (if alloc_ok then "ok" else "FAIL");
  ok

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  Sm_obs.Verbosity.of_env ();
  (* --gate implies --json: a CI gate must always leave its BENCH_<name>.json
     evidence behind, pass or fail — no per-workflow renaming. *)
  json_mode := has "--json" || has "--gate";
  let flag_value name =
    let rec find = function
      | f :: path :: _ when f = name -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let trace_path = flag_value "--trace" in
  let jsonl_path = flag_value "--trace-jsonl" in
  let obs = has "--obs" in
  if obs then Sm_obs.Metrics.set_enabled true;
  if (trace_path <> None || jsonl_path <> None) && Sm_obs.level () = Sm_obs.Off then
    Sm_obs.set_level Sm_obs.Debug;
  let chrome =
    Option.map
      (fun path ->
        let sink, collected = Sm_obs.Sink.collecting () in
        (sink, collected, path))
      trace_path
  in
  let jsonl_sink = Option.map (fun path -> (Sm_obs.Trace_jsonl.file_sink path, path)) jsonl_path in
  (match (chrome, jsonl_sink) with
  | None, None -> ()
  | Some (r, _, _), None -> Sm_obs.set_sink r
  | None, Some (s, _) -> Sm_obs.set_sink s
  | Some (r, _, _), Some (s, _) -> Sm_obs.set_sink (Sm_obs.Sink.tee r s));
  let finish name =
    write_json name;
    (* reset_sink flushes and closes the installed sink(s) — in particular
       the JSONL file — before anything tries to read them back. *)
    if Option.is_some chrome || Option.is_some jsonl_sink then Sm_obs.reset_sink ();
    Option.iter
      (fun (_, collected, path) ->
        Sm_obs.Trace_chrome.write_file (collected ()) path;
        Format.printf "@.wrote Chrome trace %s  (load it in chrome://tracing or ui.perfetto.dev)@." path)
      chrome;
    Option.iter
      (fun (_, path) ->
        Format.printf "@.wrote JSONL trace %s  (analyze it with sm-trace)@." path)
      jsonl_sink;
    if obs then begin
      Format.printf "@.-- metrics --@.";
      Sm_obs.Metrics.dump Format.std_formatter ()
    end
  in
  match args with
  | _ :: "fig1" :: _ -> fig1 (); finish "fig1"
  | _ :: "fig2" :: _ -> fig2 (); finish "fig2"
  | _ :: "fig3" :: _ ->
    let full = has "--full" in
    fig3 ~reps:(if full then 1 else 2) ~full ();
    finish "fig3"
  | _ :: "overhead" :: _ -> overhead (); finish "overhead"
  | _ :: "scale" :: _ -> scale (); finish "scale"
  | _ :: "copy" :: _ -> copy_ablation (); finish "copy"
  | _ :: "dist" :: _ -> dist_bench (); finish "dist"
  | _ :: "coop" :: _ -> coop_bench (); finish "coop"
  | _ :: "topology" :: _ -> topology_bench (); finish "topology"
  | _ :: "semaphore" :: _ -> semaphore_bench (); finish "semaphore"
  | _ :: "spawn" :: _ ->
    let ok = spawn_bench () in
    finish "spawn";
    if has "--gate" && not ok then exit 1
  | _ :: "journal" :: _ ->
    let ok = journal_bench () in
    finish "journal";
    if has "--gate" && not ok then exit 1
  | _ :: "service" :: _ ->
    let ok = service_bench () in
    finish "service";
    if has "--gate" && not ok then exit 1
  | _ :: "obs" :: _ ->
    let ok = obs_bench () in
    finish "obs";
    if has "--gate" && not ok then exit 1
  | _ :: "text" :: _ ->
    let ok = text_bench () in
    finish "text";
    if has "--gate" && not ok then exit 1
  | _ :: "micro" :: _ -> micro ~quick:false (); finish "micro"
  | _ :: "fuzz" :: _ -> fuzz_bench (); finish "fuzz"
  | _ :: "all" :: _ | [ _ ] ->
    fig1 ();
    fig2 ();
    fig3 ~full:false ();
    overhead ();
    scale ();
    copy_ablation ();
    ignore (spawn_bench ());
    dist_bench ();
    coop_bench ();
    topology_bench ();
    semaphore_bench ();
    ignore (journal_bench ());
    ignore (text_bench ());
    fuzz_bench ();
    micro ~quick:true ();
    Format.printf "@.done.  (fig3 --full reproduces the paper-scale sweep)@.";
    finish "all"
  | _ ->
    prerr_endline
      "usage: main.exe [fig1|fig2|fig3 [--full]|overhead|scale|copy|spawn [--gate]|dist|coop|topology|semaphore|journal [--gate]|service [--gate]|obs [--gate]|text [--gate]|micro|fuzz|all]\n\
       flags: --json (write BENCH_<name>.json)  --obs (enable+dump metrics)  --trace FILE (Chrome trace)";
    exit 2
