(* Additional simulator properties: cross-scheduler equivalence, journal
   boundedness over long runs, netpipe under concurrency pressure, and
   executor-width invariance. *)

open Test_support
module W = Sm_sim.Workload
module Sm = Sm_sim.Sim_spawnmerge
module Np = Sm_sim.Netpipe

let cfg = { W.hosts = 5; messages = 8; ttl = 6; load = 1; mode = W.Hash_destination; topology = W.Full; seed = 21L }

(* the threaded and cooperative schedulers must produce identical digests on
   the same configuration *)
let schedulers_equivalent () =
  let threaded = Sm.run cfg in
  let coop = Sm.run_cooperative cfg in
  Alcotest.(check string) "event digest" threaded.W.event_digest coop.W.event_digest;
  Alcotest.(check string) "order digest" threaded.W.order_digest coop.W.order_digest;
  Alcotest.(check int) "hops" threaded.W.hops coop.W.hops

let executor_width_invariance () =
  let digests =
    List.map
      (fun domains ->
        with_executor ~domains (fun executor -> (Sm.run ~executor cfg).W.order_digest))
      [ 1; 2; 4 ]
  in
  match digests with
  | d :: rest -> List.iter (fun d' -> Alcotest.(check string) "width invariant" d d') rest
  | [] -> assert false

(* A long simulation must not accumulate unbounded journals in the root
   workspace: truncation after each merge keeps memory flat.  We proxy
   "journal size" by running a config with many cycles and checking it
   completes well inside the timeout — plus the trace accounting's exactness
   guarantees no hop was dropped. *)
let long_run_completes () =
  let long = { W.hosts = 4; messages = 8; ttl = 120; load = 0; mode = W.Ring_destination; topology = W.Full; seed = 2L } in
  let r = Sm.run_cooperative long in
  Alcotest.(check int) "all 960 hops" (W.total_hops long) r.W.hops

(* netpipe: many concurrent clients against one echo server *)
let netpipe_stress () =
  let l = Np.listen () in
  let server =
    Thread.create
      (fun () ->
        let rec accept_loop handlers =
          match Np.accept l with
          | None -> List.iter Thread.join handlers
          | Some conn ->
            let h =
              Thread.create
                (fun () ->
                  let rec loop () =
                    match Np.recv conn with
                    | Some msg ->
                      Np.send conn ("echo:" ^ msg);
                      loop ()
                    | None -> ()
                  in
                  loop ())
                ()
            in
            accept_loop (h :: handlers)
        in
        accept_loop [])
      ()
  in
  let clients =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            let c = Np.connect l in
            for r = 1 to 20 do
              let msg = Printf.sprintf "c%d-%d" i r in
              Np.send c msg;
              match Np.recv c with
              | Some reply -> if reply <> "echo:" ^ msg then failwith "wrong reply"
              | None -> failwith "lost connection"
            done;
            Np.close c)
          ())
  in
  List.iter Thread.join clients;
  Np.shutdown l;
  Thread.join server

(* replay property: under Coop, recording then replaying ANY of these random
   merge_any programs reproduces results even across scheduler flavors *)
module R = Sm_core.Runtime
module Mlist = Sm_mergeable.Mlist.Make (Str_elt)

let krl = Mlist.key ~name:"xreplay-list"
let executor = lazy (Sm_core.Executor.create ())

let racy n ctx =
  let ws = R.workspace ctx in
  Sm_mergeable.Workspace.init ws krl [];
  for i = 0 to n - 1 do
    ignore (R.spawn ctx (fun c -> Mlist.append (R.workspace c) krl (string_of_int i)))
  done;
  let rec drain () = match R.merge_any ctx with Some _ -> drain () | None -> () in
  drain ();
  Mlist.get ws krl

let record_threaded_replay_coop =
  qtest ~count:25 "trace recorded on threads replays under coop"
    QCheck2.Gen.(int_range 1 6)
    (fun n ->
      let trace = R.Trace.create () in
      let recorded = R.run ~executor:(Lazy.force executor) ~record:trace (racy n) in
      let replayed = R.Coop.run ~replay:trace (racy n) in
      recorded = replayed)

(* --- topologies ----------------------------------------------------------- *)

let neighbour_structure () =
  let with_topo topology hosts = { cfg with W.hosts; topology } in
  (* ring: two neighbours, wrapping *)
  Alcotest.(check (list int)) "ring interior" [ 2; 4 ] (W.neighbours (with_topo W.Ring_topology 6) 3);
  Alcotest.(check (list int)) "ring wrap" [ 5; 1 ] (W.neighbours (with_topo W.Ring_topology 6) 0);
  Alcotest.(check (list int)) "two-host ring" [ 1 ] (W.neighbours (with_topo W.Ring_topology 2) 0);
  (* star: leaves see the hub, the hub sees all leaves *)
  Alcotest.(check (list int)) "star leaf" [ 0 ] (W.neighbours (with_topo W.Star 5) 3);
  Alcotest.(check (list int)) "star hub" [ 1; 2; 3; 4 ] (W.neighbours (with_topo W.Star 5) 0);
  (* grid 3x3: corner, edge, centre *)
  let grid9 = with_topo W.Grid 9 in
  Alcotest.(check (list int)) "grid corner" [ 3; 1 ] (W.neighbours grid9 0);
  Alcotest.(check (list int)) "grid centre" [ 1; 7; 3; 5 ] (W.neighbours grid9 4);
  (* full: everyone but self *)
  Alcotest.(check int) "full degree" 5 (List.length (W.neighbours (with_topo W.Full 6) 2));
  check_bool "no self loops" (not (List.mem 2 (W.neighbours (with_topo W.Full 6) 2)));
  (* degenerate single host *)
  Alcotest.(check (list int)) "lonely host" [ 0 ] (W.neighbours (with_topo W.Grid 1) 0)

let all_neighbours_valid =
  qtest ~count:300 "neighbours in range, non-empty, no self (n>1)"
    QCheck2.Gen.(
      pair (int_range 1 30)
        (oneofl [ W.Full; W.Ring_topology; W.Star; W.Grid ]))
    (fun (hosts, topology) ->
      let c = { cfg with W.hosts; topology } in
      List.for_all
        (fun h ->
          let ns = W.neighbours c h in
          ns <> []
          && List.for_all (fun x -> x >= 0 && x < hosts) ns
          && (hosts = 1 || not (List.mem h ns)))
        (List.init hosts Fun.id))

(* every topology conserves hops and stays deterministic under spawn/merge *)
let topologies_complete_and_determine () =
  List.iter
    (fun topology ->
      let c = { cfg with W.topology; hosts = 6; messages = 8; ttl = 6 } in
      let a = Sm.run_cooperative c and b = Sm.run_cooperative c in
      Alcotest.(check int) "hops conserved" (W.total_hops c) a.W.hops;
      Alcotest.(check string) "deterministic" a.W.order_digest b.W.order_digest;
      (* and the conventional baseline processes the same trajectories *)
      let conv = Sm_sim.Sim_conventional.run c in
      Alcotest.(check string) "same trajectories" a.W.event_digest conv.W.event_digest)
    [ W.Full; W.Ring_topology; W.Star; W.Grid ]

let suite =
  [ Alcotest.test_case "threaded = cooperative digests" `Quick schedulers_equivalent
  ; Alcotest.test_case "topologies: neighbour structure" `Quick neighbour_structure
  ; all_neighbours_valid
  ; Alcotest.test_case "topologies: conservation + determinism" `Quick topologies_complete_and_determine
  ; Alcotest.test_case "executor width invariance" `Quick executor_width_invariance
  ; Alcotest.test_case "long run stays bounded" `Quick long_run_completes
  ; Alcotest.test_case "netpipe: 8 clients x 20 echoes" `Quick netpipe_stress
  ; record_threaded_replay_coop
  ]
