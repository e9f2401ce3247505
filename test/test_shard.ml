(* The shard service: routing, the session protocol, delta sync, epoch
   determinism, and crash/resume convergence.

   The acceptance-grade scenario here is the resume test: a client that
   disconnects mid-epoch with a batch in flight, then resumes with stale
   cursors over a faulty Netpipe, must end at exactly the digest the
   always-connected clients reach — on both executors. *)

module Router = Sm_shard.Router
module Proto = Sm_shard.Proto
module Service = Sm_shard.Service
module Client = Sm_shard.Client
module Load = Sm_shard.Load
module Registry = Sm_dist.Registry
module Ws = Sm_mergeable.Workspace

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* One document set for the whole suite: wire ids are registration indices,
   so the registry must be minted at a single construction site (and some
   tests run under a live runtime, where re-minting would trip DetSan). *)
let docs =
  Service.make_docs
    [ `Text ("t/readme", "# readme\n")
    ; `Text ("t/scratch", "")
    ; `Tree ("t/outline", Service.Tree.Op.[ branch "root" [ leaf "a" ] ])
    ]

let readme_key = Service.text_key (Service.find_doc docs "t/readme")

(* --- router ----------------------------------------------------------------- *)

let test_router_determinism () =
  let names = List.init 64 (Printf.sprintf "doc/%d") in
  List.iter
    (fun n ->
      let s = Router.shard_of ~shards:4 n in
      checkb "stable" true (s = Router.shard_of ~shards:4 n);
      checkb "in range" true (s >= 0 && s < 4))
    names;
  (* FNV over 64 names must not degenerate to one shard. *)
  let buckets = Router.partition ~shards:4 names in
  Array.iter (fun b -> checkb "every shard owns something" true (b <> [])) buckets;
  check Alcotest.int "partition covers all" 64 (Array.fold_left (fun a b -> a + List.length b) 0 buckets);
  Alcotest.check_raises "shards must be positive"
    (Invalid_argument "Router.shard_of: shards must be positive") (fun () ->
      ignore (Router.shard_of ~shards:0 "x"))

(* --- protocol frames -------------------------------------------------------- *)

let test_proto_roundtrip () =
  let c2s =
    [ Proto.Hello { client = "alice" }
    ; Proto.Resume { session = 3; req = 7; cursors = [ (0, 4); (2, 9) ] }
    ; Proto.Edit
        { session = 3; req = 8; eid = 2; base = [ (0, 4) ]; ops = [ (0, "opbytes") ] }
    ; Proto.Poll { session = 3; req = 9 }
    ]
  in
  List.iter
    (fun m -> checkb "c2s roundtrip" true (snd (Proto.open_c2s (Proto.seal_c2s m)) = m))
    c2s;
  (* Tag 3 is unassigned: a stray one is an unknown tag, not a message. *)
  let tag3 =
    Sm_dist.Wire.Frame.seal Sm_dist.Wire.Frame.Control
      Sm_util.Codec.(encode (pair int int) (3, 3))
  in
  checkb "c2s tag 3 is unknown" true
    (match Proto.open_c2s tag3 with
    | _ -> false
    | exception Sm_util.Codec.Decode_error _ -> true);
  let s2c =
    [ Proto.Welcome { session = 3; payload = Proto.Delta [ (0, 1, 3, "ops") ] }
    ; Proto.Ack { session = 3; req = 8; payload = Proto.Snap [ (0, 5, "state") ] }
    ; Proto.Nack { session = 3; req = 8; reason = "unknown session" }
    ]
  in
  List.iter
    (fun m -> checkb "s2c roundtrip" true (snd (Proto.open_s2c (Proto.seal_s2c m)) = m))
    s2c;
  check Alcotest.int "payload bytes count document bytes only" 3
    (Proto.payload_bytes (Proto.Delta [ (0, 1, 3, "ops") ]))

let test_frame_rejection () =
  (match Proto.open_s2c "not a frame" with
  | _ -> Alcotest.fail "garbage must not parse"
  | exception Sm_dist.Wire.Frame.Bad_frame _ -> ());
  (* A frame from an incompatible build: bump the version field.  Typed
     separately from Bad_frame so callers can tell "wrong build" from
     "corrupt bytes". *)
  let sealed = Bytes.of_string (Proto.seal_c2s (Proto.Hello { client = "x" })) in
  Bytes.set sealed 3 '\xff';
  (match Proto.open_c2s (Bytes.to_string sealed) with
  | _ -> Alcotest.fail "wrong version must not parse"
  | exception Sm_dist.Wire.Frame.Unsupported_version { got = 255; speaks }
    when speaks = Sm_dist.Wire.Frame.version -> ());
  (* Kind disagreeing with the payload: a Welcome carrying a Delta payload
     must travel in a Delta frame, not a Snapshot one. *)
  let payload =
    match Proto.open_s2c (Proto.seal_s2c (Proto.Welcome { session = 1; payload = Proto.Delta [] })) with
    | _, Proto.Welcome _ ->
      let _kind, _ctx, body =
        Sm_dist.Wire.Frame.open_ (Proto.seal_s2c (Proto.Welcome { session = 1; payload = Proto.Delta [] }))
      in
      Sm_dist.Wire.Frame.seal Sm_dist.Wire.Frame.Snapshot body
    | _ -> assert false
  in
  match Proto.open_s2c payload with
  | _ -> Alcotest.fail "kind/payload disagreement must not parse"
  | exception Sm_dist.Wire.Frame.Bad_frame _ -> ()

let test_tree_codec_roundtrip () =
  let module T = Service.Tree in
  let forest = T.Op.[ branch "root" [ leaf "a"; branch "b" [ leaf "c" ] ]; leaf "d" ] in
  let bytes = Sm_util.Codec.encode T.state_codec forest in
  checkb "tree state roundtrip" true (Sm_util.Codec.decode T.state_codec bytes = forest);
  let op = T.Op.insert [ 0; 1 ] (T.Op.leaf "new") in
  let obytes = Sm_util.Codec.encode T.op_codec op in
  checkb "tree op roundtrip" true (Sm_util.Codec.decode T.op_codec obytes = op)

(* --- delta encode/apply ----------------------------------------------------- *)

let test_delta_encode_apply () =
  let reg = Service.registry docs in
  let server = Ws.create () in
  let replica = Ws.create () in
  Service.client_init (Service.create docs ~shards:1 ~mode:`Delta ~epoch_ticks:1) ~shard:0 server;
  Service.client_init (Service.create docs ~shards:1 ~mode:`Delta ~epoch_ticks:1) ~shard:0 replica;
  Ws.update server readme_key (Sm_ot.Op_text.Ins (0, "hello "));
  Ws.update server readme_key (Sm_ot.Op_text.Del (0, 6));
  let cursors = Hashtbl.create 4 in
  let cursor id = Option.value ~default:0 (Hashtbl.find_opt cursors id) in
  let entries = Registry.encode_delta reg server ~since:cursor in
  Registry.apply_delta reg ~into:replica ~cursor entries;
  List.iter (fun (id, _, to_rev, _) -> Hashtbl.replace cursors id to_rev) entries;
  check Alcotest.string "replica caught up" (Ws.digest server) (Ws.digest replica);
  (* Duplicate delivery: entries at or below the cursor are skipped. *)
  Registry.apply_delta reg ~into:replica ~cursor entries;
  check Alcotest.string "duplicate delta is a no-op" (Ws.digest server) (Ws.digest replica);
  (* A gap (delta starting past the cursor) is a protocol violation. *)
  Ws.update server readme_key (Sm_ot.Op_text.Ins (0, "x"));
  Ws.update server readme_key (Sm_ot.Op_text.Ins (0, "y"));
  let ahead = Registry.encode_delta reg server ~since:(fun id -> cursor id + 1) in
  checkb "gap raises" true
    (match Registry.apply_delta reg ~into:replica ~cursor ahead with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_clone_trimmed () =
  let ws = Ws.create () in
  Ws.init ws readme_key (Sm_ot.Op_text.of_string "abc");
  Ws.update ws readme_key (Sm_ot.Op_text.Ins (3, "d"));
  let c = Ws.clone_trimmed ws in
  check Alcotest.string "same digest" (Ws.digest ws) (Ws.digest c);
  check Alcotest.int "version preserved" (Ws.version_of ws readme_key) (Ws.version_of c readme_key);
  checkb "journal answers from the head" true (Ws.journal_since c readme_key ~version:1 = []);
  checkb "history is gone" true
    (match Ws.journal_since c readme_key ~version:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* update_trimming: state and version advance, history still absent. *)
  Ws.update_trimming c readme_key [ Sm_ot.Op_text.Ins (0, "z") ];
  check Alcotest.string "trimmed update applies" "zabcd" (Sm_ot.Op_text.to_string (Ws.read c readme_key));
  check Alcotest.int "trimmed update advances version" 2 (Ws.version_of c readme_key);
  checkb "trimmed update journals nothing" true (Ws.journal_since c readme_key ~version:2 = []);
  (* One call per delta entry: a 3-op list applies in order and advances
     the version by 3. *)
  Ws.update_trimming c readme_key Sm_ot.Op_text.[ Ins (5, "e"); Del (0, 1); Ins (0, "Z") ];
  check Alcotest.string "batch applies in order" "Zabcde"
    (Sm_ot.Op_text.to_string (Ws.read c readme_key));
  check Alcotest.int "a 3-op batch advances the version by 3" 5 (Ws.version_of c readme_key);
  checkb "journal_since at the new head is empty" true
    (Ws.journal_since c readme_key ~version:5 = []);
  (* [] touches nothing: not the version, not a shared cell's cow count. *)
  let module M = Sm_obs.Metrics in
  let metrics_on = M.is_enabled () in
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled metrics_on) @@ fun () ->
  let _sharer = Ws.clone_trimmed c in
  let hits0 = M.value Ws.cow_hits in
  Ws.update_trimming c readme_key [];
  check Alcotest.int "[] keeps the version" 5 (Ws.version_of c readme_key);
  check Alcotest.int "[] takes no cow hit" hits0 (M.value Ws.cow_hits);
  Ws.update_trimming c readme_key [ Sm_ot.Op_text.Ins (0, "!") ];
  check Alcotest.int "a write to the shared cell takes one" (hits0 + 1) (M.value Ws.cow_hits)

(* --- sessions against a live service ---------------------------------------- *)

let make_service () = Service.create docs ~shards:2 ~mode:`Delta ~epoch_ticks:2

let drive svc clients pred =
  let budget = ref 2000 in
  while (not (pred ())) && !budget > 0 do
    Service.tick svc;
    List.iter Client.tick clients;
    decr budget
  done;
  checkb "scenario completed within its tick budget" true (pred ())

let connect svc ~shard name =
  Client.connect ~reg:(Service.registry docs) ~name
    ~init:(Service.client_init svc ~shard) (Service.listener svc shard)

let test_two_client_convergence () =
  let svc = make_service () in
  let shard = Service.shard_of svc "t/readme" in
  let a = connect svc ~shard "alice" and b = connect svc ~shard "bob" in
  drive svc [ a; b ] (fun () -> Client.ready a && Client.ready b);
  Client.edit a (fun ws -> Ws.update ws readme_key (Sm_ot.Op_text.Ins (0, "A")));
  Client.edit b (fun ws -> Ws.update ws readme_key (Sm_ot.Op_text.Ins (0, "B")));
  Client.flush a;
  Client.flush b;
  drive svc [ a; b ] (fun () -> Client.synced a && Client.synced b);
  let sd = Sm_shard.Server.digest (Service.shard svc shard) in
  check Alcotest.string "alice converged" sd (Ws.digest (Client.view a));
  check Alcotest.string "bob converged" sd (Ws.digest (Client.view b));
  check Alcotest.string "same text"
    (Sm_ot.Op_text.to_string (Ws.read (Client.view a) readme_key))
    (Sm_ot.Op_text.to_string (Ws.read (Client.view b) readme_key))

(* An idle replica that resumes must refresh its *view*, not only its
   shadow: bob hears about alice's edits exclusively through the resume
   Welcome, with nothing pending and hence no ack to re-clone the view. *)
let test_resume_refreshes_idle_view () =
  let svc = make_service () in
  let shard = Service.shard_of svc "t/readme" in
  let a = connect svc ~shard "alice" and b = connect svc ~shard "bob" in
  drive svc [ a; b ] (fun () -> Client.synced a && Client.synced b);
  Client.disconnect b;
  Client.edit a (fun ws -> Ws.update ws readme_key (Sm_ot.Op_text.Ins (0, "while you were out\n")));
  Client.flush a;
  drive svc [ a ] (fun () -> Client.synced a);
  Client.resume b (Service.listener svc shard);
  drive svc [ a; b ] (fun () -> Client.synced b);
  check Alcotest.string "idle resume reaches the view"
    (Sm_ot.Op_text.to_string (Ws.read (Client.view a) readme_key))
    (Sm_ot.Op_text.to_string (Ws.read (Client.view b) readme_key))

(* Satellite: disconnect mid-epoch with a batch in flight; the resumed
   client must land on the same digest as the always-connected one. *)
let test_resume_mid_epoch () =
  let svc = make_service () in
  let shard = Service.shard_of svc "t/readme" in
  let a = connect svc ~shard "alice" and b = connect svc ~shard "bob" in
  drive svc [ a; b ] (fun () -> Client.ready a && Client.ready b);
  Client.edit b (fun ws -> Ws.update ws readme_key (Sm_ot.Op_text.Ins (0, "B1")));
  Client.flush b;
  (* The flushed batch is in flight; crash before any ack can arrive. *)
  Client.disconnect b;
  Client.edit a (fun ws -> Ws.update ws readme_key (Sm_ot.Op_text.Ins (0, "A1")));
  Client.flush a;
  drive svc [ a ] (fun () -> Client.synced a);
  Client.resume b (Service.listener svc shard);
  drive svc [ a; b ] (fun () -> Client.synced a && Client.synced b);
  let sd = Sm_shard.Server.digest (Service.shard svc shard) in
  check Alcotest.string "connected client at head" sd (Ws.digest (Client.view a));
  check Alcotest.string "resumed client at the same digest" sd (Ws.digest (Client.view b));
  (* The interrupted batch merged exactly once: both replicas contain B1
     exactly once. *)
  let text = Sm_ot.Op_text.to_string (Ws.read (Client.view a) readme_key) in
  let occurrences hay needle =
    let n = ref 0 in
    for i = 0 to String.length hay - String.length needle do
      if String.sub hay i (String.length needle) = needle then incr n
    done;
    !n
  in
  check Alcotest.int "B1 merged exactly once" 1 (occurrences text "B1")

(* The re-issue path against a scripted shard: a batch flushed before a
   crash goes out again after the resume's Welcome with the same eid, base
   and op bytes, under a fresh request number. *)
let test_reissue_after_resume () =
  let module Np = Sm_sim.Netpipe in
  let reg = Service.registry docs in
  let init =
    Service.client_init (Service.create docs ~shards:1 ~mode:`Delta ~epoch_ticks:1) ~shard:0
  in
  let scratch_key = Service.text_key (Service.find_doc docs "t/scratch") in
  let request conn =
    match Np.try_recv conn with
    | Some frame -> snd (Proto.open_c2s frame)
    | None -> Alcotest.fail "no request arrived"
  in
  let welcome conn payload =
    Np.send conn (Proto.seal_s2c (Proto.Welcome { session = 5; payload }))
  in
  (* The shard's head is one op past the seed, so the batch has a base. *)
  let head = Ws.create () in
  init head;
  Ws.update head readme_key (Sm_ot.Op_text.Ins (0, "hi "));
  let l1 = Np.listen () in
  let c = Client.connect ~reg ~name:"dave" ~init l1 in
  let s1 = Option.get (Np.try_accept l1) in
  (match request s1 with Proto.Hello _ -> () | _ -> Alcotest.fail "expected a Hello");
  welcome s1 (Proto.Delta (Registry.encode_delta reg head ~since:(fun _ -> 0)));
  Client.tick c;
  checkb "ready after the welcome" true (Client.ready c);
  Client.edit c (fun ws ->
      Ws.update ws readme_key (Sm_ot.Op_text.Ins (0, "A"));
      Ws.update ws scratch_key (Sm_ot.Op_text.Ins (0, "B")));
  Client.flush c;
  let first = request s1 in
  Client.disconnect c;
  let l2 = Np.listen () in
  Client.resume c l2;
  let s2 = Option.get (Np.try_accept l2) in
  (match request s2 with
  | Proto.Resume { session = 5; _ } -> ()
  | _ -> Alcotest.fail "expected a Resume");
  welcome s2 (Proto.Delta []);
  Client.tick c;
  match (first, request s2) with
  | Proto.Edit a, Proto.Edit b ->
    check Alcotest.int "same eid" a.eid b.eid;
    checkb "same base" true (a.base = b.base && a.base <> []);
    checkb "same op bytes" true (a.ops = b.ops && List.length a.ops = 2);
    checkb "larger req" true (b.req > a.req)
  | _ -> Alcotest.fail "expected an Edit before and after the resume"

(* A frame stamped with any version but the current one — here an old
   build's version 2 — is a typed rejection on both ends of a session: the
   client records the failure instead of raising out of [tick], and the
   shard counts a rejected frame without disturbing other sessions. *)
let test_alien_version_frame () =
  let restamp frame =
    let b = Bytes.of_string frame in
    Bytes.set_uint16_be b 2 2;
    Bytes.to_string b
  in
  let alien = restamp (Proto.seal_s2c (Proto.Welcome { session = 1; payload = Proto.Delta [] })) in
  (* s2c: a fake shard answers the client's Hello with the alien frame *)
  let l = Sm_sim.Netpipe.listen () in
  let c = Client.connect ~reg:(Service.registry docs) ~name:"carol" ~init:(fun _ -> ()) l in
  let srv = Option.get (Sm_sim.Netpipe.try_accept l) in
  Sm_sim.Netpipe.send srv alien;
  Client.tick c;
  (match Client.failed c with
  | Some msg ->
    checkb "failure names the version" true
      (msg = Printf.sprintf "frame version 2 (this build speaks %d)" Sm_dist.Wire.Frame.version)
  | None -> Alcotest.fail "client accepted an alien-version frame");
  (* c2s: the same bytes sent to a live shard *)
  let svc = make_service () in
  let shard = Service.shard_of svc "t/readme" in
  let a = connect svc ~shard "alice" in
  drive svc [ a ] (fun () -> Client.synced a);
  let server = Service.shard svc shard in
  let rejects0 = Sm_shard.Server.rejected_frames server in
  let digest0 = Ws.digest (Client.view a) in
  Sm_sim.Netpipe.send (Sm_sim.Netpipe.connect (Service.listener svc shard)) alien;
  for _ = 1 to 4 do
    Service.tick svc;
    Client.tick a
  done;
  check Alcotest.int "shard rejected the frame" (rejects0 + 1)
    (Sm_shard.Server.rejected_frames server);
  check Alcotest.string "other session undisturbed" digest0 (Ws.digest (Client.view a));
  checkb "other session still healthy" true (Client.failed a = None)

(* --- load: determinism, chaos, and the executors ----------------------------- *)

let chaos_profile =
  { Load.default with
    Load.seed = 7L
  ; shards = 2
  ; clients = 6
  ; ops_per_client = 12
  ; specs = []  (* ignored: the pre-minted [docs] is passed explicitly *)
  ; faults = Some { Load.drop = 0.10; dup = 0.10; delay = 0.15; reorder = 0.10 }
  ; disconnect_prob = 0.05
  ; max_ticks = 50_000
  }

let test_load_reproducible () =
  let r1 = Load.run ~docs chaos_profile in
  let r2 = Load.run ~docs chaos_profile in
  checkb "converged" true r1.Load.converged;
  check Alcotest.(list string) "same digests" r1.Load.shard_digests r2.Load.shard_digests;
  check Alcotest.int "same ticks" r1.Load.ticks r2.Load.ticks

let test_load_mode_invariance () =
  let delta = Load.run ~docs chaos_profile in
  let snap = Load.run ~docs { chaos_profile with Load.mode = `Snapshot } in
  checkb "both converged" true (delta.Load.converged && snap.Load.converged);
  check Alcotest.(list string) "delta and snapshot reach the same states"
    delta.Load.shard_digests snap.Load.shard_digests;
  checkb "snapshots cost more bytes" true (snap.Load.snapshot_bytes > delta.Load.delta_bytes)

(* Satellite: the chaos scenario (faults + mid-epoch disconnects and
   stale-cursor resumes) on both schedulers.  [converged] already asserts
   every replica's view digest equals its shard's digest — i.e. resumed
   clients ended exactly where always-connected ones did — and the digests
   must agree across executors. *)
let test_load_across_schedulers () =
  let e = Sm_core.Executor.create () in
  let threaded =
    Fun.protect
      ~finally:(fun () -> Sm_core.Executor.shutdown e)
      (fun () -> Sm_core.Runtime.run ~executor:e (fun _ -> Load.run ~docs chaos_profile))
  in
  let coop = Sm_core.Runtime.Coop.run (fun _ -> Load.run ~docs chaos_profile) in
  checkb "threaded converged" true threaded.Load.converged;
  checkb "coop converged" true coop.Load.converged;
  checkb "chaos actually exercised resume" true (threaded.Load.resumes > 0);
  check Alcotest.(list string) "digests agree across executors"
    threaded.Load.shard_digests coop.Load.shard_digests;
  check Alcotest.int "tick counts agree across executors" threaded.Load.ticks coop.Load.ticks

(* --- observability: trace propagation, stitching, flight dumps, hot docs ----- *)

module Obs = Sm_obs
module Shard_metrics = Sm_shard.Shard_metrics

let obs_profile =
  { Load.default with Load.seed = 11L; shards = 2; clients = 4; ops_per_client = 6 }

(* Run [f] with a Debug-level collecting sink installed, returning its
   result plus the events in emission order. *)
let with_debug_sink f =
  let sink, collected = Obs.Sink.collecting () in
  Obs.set_level Obs.Debug;
  Obs.set_sink sink;
  Fun.protect
    ~finally:(fun () ->
      Obs.reset_sink ();
      Obs.set_level Obs.Off)
    (fun () ->
      let r = f () in
      (r, collected ()))

(* Lane = emitting task, as [Trace_jsonl.dir_sink] would split files;
   sorted by name so lane order never depends on emission interleaving. *)
let lanes_of events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Obs.Event.t) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl e.Obs.Event.task) in
      Hashtbl.replace tbl e.Obs.Event.task (e :: prev))
    events;
  Hashtbl.fold (fun lane rev acc -> (lane, List.rev rev) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* One traced load run under [run_in], stitched: the driver emits the shared
   request root on its own lane (else every client span would stitch as a
   dangling orphan), and every client gets that root as [?parent]. *)
let traced_run run_in =
  let root = Obs.Trace_ctx.root "test/req" in
  let driver op kind =
    Obs.emit
      (Obs.Event.make ~task:"driver" ~task_id:4_000_001
         ~args:(("op", Obs.Event.S op) :: Obs.Trace_ctx.args root)
         kind)
  in
  let report, events =
    with_debug_sink (fun () ->
        driver "begin" Obs.Event.Req_begin;
        let r = run_in (fun () -> Load.run ~docs ~parent:root obs_profile) in
        driver "end" Obs.Event.Req_end;
        r)
  in
  (root, report, Obs.Trace_stitch.stitch (lanes_of events))

(* Every client Req_end names the request its Req_begin opened — a resume
   included, though a Welcome answers it. *)
let test_req_end_names_its_request () =
  let r, events = with_debug_sink (fun () -> Load.run ~docs chaos_profile) in
  checkb "converged" true r.Load.converged;
  let arg name (e : Obs.Event.t) = List.assoc_opt name e.Obs.Event.args in
  let is kind (e : Obs.Event.t) = e.Obs.Event.kind = kind in
  let begins = Hashtbl.create 64 in
  List.iter
    (fun e -> if is Obs.Event.Req_begin e then Hashtbl.replace begins (arg "span" e) (arg "req" e))
    events;
  let ends = List.filter (is Obs.Event.Req_end) events in
  checkb "requests were traced" true (ends <> []);
  check Alcotest.int "req_end events whose req differs from their req_begin's" 0
    (List.length
       (List.filter (fun e -> Hashtbl.find_opt begins (arg "span" e) <> Some (arg "req" e)) ends));
  checkb "a resume was traced" true
    (List.exists
       (fun e -> is Obs.Event.Req_begin e && arg "op" e = Some (Obs.Event.S "resume"))
       events)

let rec span_lanes (s : Obs.Trace_stitch.span) =
  List.map fst s.Obs.Trace_stitch.events @ List.concat_map span_lanes s.Obs.Trace_stitch.children

let prefixed p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p

let test_trace_tree_spans_processes () =
  let root, report, traces = traced_run (fun f -> f ()) in
  checkb "run converged" true report.Load.converged;
  match traces with
  | [ tr ] -> (
    match tr.Obs.Trace_stitch.roots with
    | [ r ] ->
      checkb "root is the request" true (Obs.Trace_ctx.equal r.Obs.Trace_stitch.ctx root);
      checkb "root resolved, not dangling" true (not r.Obs.Trace_stitch.dangling);
      let lanes = List.sort_uniq compare (span_lanes r) in
      checkb "a client lane participates" true (List.exists (prefixed "client") lanes);
      checkb "at least two shards participate" true
        (List.length (List.filter (prefixed "shard") lanes) >= 2)
    | l -> Alcotest.fail (Printf.sprintf "one root span expected, got %d" (List.length l)))
  | l -> Alcotest.fail (Printf.sprintf "one trace expected, got %d" (List.length l))

let test_stitch_identical_across_executors () =
  let run_threaded f =
    let e = Sm_core.Executor.create () in
    Fun.protect
      ~finally:(fun () -> Sm_core.Executor.shutdown e)
      (fun () -> Sm_core.Runtime.run ~executor:e (fun _ -> f ()))
  in
  let run_coop f = Sm_core.Runtime.Coop.run (fun _ -> f ()) in
  let _, r1, t1 = traced_run run_threaded in
  let _, r2, t2 = traced_run run_coop in
  checkb "both converged" true (r1.Load.converged && r2.Load.converged);
  check Alcotest.string "stitched trees byte-identical across executors"
    (Obs.Trace_stitch.to_string t1) (Obs.Trace_stitch.to_string t2)

let test_flight_dump_across_executors () =
  Fun.protect ~finally:(fun () -> Obs.Flight_recorder.reset ())
  @@ fun () ->
  let capture run =
    Obs.Flight_recorder.reset ();
    Obs.Flight_recorder.set_enabled true;
    let r = run () in
    checkb "converged" true r.Load.converged;
    Obs.Flight_recorder.dump_all ()
  in
  let e = Sm_core.Executor.create () in
  let d1 =
    Fun.protect
      ~finally:(fun () -> Sm_core.Executor.shutdown e)
      (fun () ->
        capture (fun () ->
            Sm_core.Runtime.run ~executor:e (fun _ -> Load.run ~docs chaos_profile)))
  in
  let d2 = capture (fun () -> Sm_core.Runtime.Coop.run (fun _ -> Load.run ~docs chaos_profile)) in
  checkb "dumps are non-empty" true (List.exists (fun (_, lines) -> lines <> []) d1);
  checkb "flight dumps byte-identical across executors" true (d1 = d2)

let test_hot_docs_and_stats_report () =
  let saved = Obs.Metrics.is_enabled () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled saved;
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let last = ref None in
  let r, events =
    with_debug_sink (fun () -> Load.run ~docs ~on_tick:(fun _ svc -> last := Some svc) obs_profile)
  in
  checkb "converged" true r.Load.converged;
  match !last with
  | None -> Alcotest.fail "on_tick never fired"
  | Some svc ->
    let rows = Shard_metrics.rows (Service.servers svc) in
    check Alcotest.int "one row per shard" obs_profile.Load.shards (List.length rows);
    checkb "edits were counted" true
      (List.fold_left (fun n row -> n + row.Shard_metrics.edits) 0 rows > 0);
    checkb "merge latency histograms populated" true
      (List.exists (fun row -> row.Shard_metrics.merge_p50_ns <> None) rows);
    (* no limit short of the document count: the whole profile *)
    let hot = Shard_metrics.hot_docs ~limit:max_int (Service.servers svc) in
    checkb "conflict profiler attributes documents" true (hot <> []);
    checkb "hot docs saw merges" true (List.for_all (fun (d : Obs.Doc_profile.t) -> d.merges > 0) hot);
    (* Live and trace-side profiles are built by the same Doc_profile.add:
       the Doc_merge events rebuild the live table exactly, order included. *)
    let traced = Obs.Trace_model.doc_profiles (Obs.Trace_model.of_events events) in
    checkb "trace rebuilds the live profile" true (hot = traced);
    let report = Service.stats_report svc in
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    checkb "report renders the shard table" true (contains "shard" report);
    checkb "report renders the hot-docs table" true (contains "document" report);
    checkb "report renders the net line" true (contains "net: sends=" report);
    let expo = Service.expo_text svc in
    let families =
      String.split_on_char '\n' expo
      |> List.filter (fun l -> prefixed "# TYPE" l)
      |> List.length
    in
    checkb "expo exports >= 10 metric families" true (families >= 10)

(* A reply whose payload does not decode or apply fails that client, as a
   bad frame does, instead of raising out of [Client.tick] and ending every
   editor ticked beside it.  A scripted shard answers each Hello with one
   bad Welcome: journal bytes that stop short, then an unknown wire id. *)
let test_bad_reply_payload_fails_the_client () =
  let module Np = Sm_sim.Netpipe in
  let reg = Service.registry docs in
  let failure_after payload =
    let l = Np.listen () in
    let c = Client.connect ~reg ~name:"erin" ~init:(fun _ -> ()) l in
    let srv = Option.get (Np.try_accept l) in
    Np.send srv (Proto.seal_s2c (Proto.Welcome { session = 1; payload }));
    Client.tick c;
    checkb "a failed client is not ready" false (Client.ready c);
    Client.failed c
  in
  check
    Alcotest.(option string)
    "undecodable journal bytes fail the client" (Some "truncated input at 1")
    (failure_after (Proto.Delta [ (0, 0, 1, "\x05") ]));
  check
    Alcotest.(option string)
    "an unknown wire id fails the client" (Some "Registry: unknown wire id 99")
    (failure_after (Proto.Delta [ (99, 0, 1, "") ]))

let suite =
  [ Alcotest.test_case "router: deterministic spread" `Quick test_router_determinism
  ; Alcotest.test_case "proto: frame roundtrips" `Quick test_proto_roundtrip
  ; Alcotest.test_case "proto: malformed frames rejected" `Quick test_frame_rejection
  ; Alcotest.test_case "proto: alien frame version fails the client, not the process" `Quick
      test_alien_version_frame
  ; Alcotest.test_case "tree codec roundtrip" `Quick test_tree_codec_roundtrip
  ; Alcotest.test_case "delta: encode/apply/dedup/gap" `Quick test_delta_encode_apply
  ; Alcotest.test_case "workspace: clone_trimmed and update_trimming" `Quick test_clone_trimmed
  ; Alcotest.test_case "service: two clients converge" `Quick test_two_client_convergence
  ; Alcotest.test_case "service: idle resume refreshes the view" `Quick test_resume_refreshes_idle_view
  ; Alcotest.test_case "service: resume mid-epoch, exactly-once merge" `Quick test_resume_mid_epoch
  ; Alcotest.test_case "service: re-issued batch keeps its eid, base and ops" `Quick
      test_reissue_after_resume
  ; Alcotest.test_case "load: seed-reproducible under chaos" `Quick test_load_reproducible
  ; Alcotest.test_case "load: delta and snapshot modes agree" `Quick test_load_mode_invariance
  ; Alcotest.test_case "load: chaos converges on both schedulers" `Quick test_load_across_schedulers
  ; Alcotest.test_case "obs: every req_end names its req_begin's request" `Quick
      test_req_end_names_its_request
  ; Alcotest.test_case "obs: one request tree spans client + 2 shards" `Quick
      test_trace_tree_spans_processes
  ; Alcotest.test_case "obs: stitched tree identical across executors" `Quick
      test_stitch_identical_across_executors
  ; Alcotest.test_case "obs: flight dumps identical across executors" `Quick
      test_flight_dump_across_executors
  ; Alcotest.test_case "obs: hot docs, stats report, expo families" `Quick
      test_hot_docs_and_stats_report
  ; Alcotest.test_case "client: a bad reply payload fails the client, not the fleet" `Quick
      test_bad_reply_payload_fails_the_client
  ]
