(* The distributed Spawn/Merge runtime (Section VI future work): remote
   tasks on simulated ranks, byte-only channels, deterministic merging. *)

open Test_support
module D = Sm_dist.Coordinator
module Reg = Sm_dist.Registry
module Ws = Sm_mergeable.Workspace

(* One registry for the whole suite, mirroring an MPI program where all
   ranks share the same binary. *)
let registry = Reg.create ()

module Counter = Sm_dist.Codable.Counter
module Ilist = Sm_dist.Codable.Make_list (Sm_dist.Codable.Int_elt)
module Sreg = Sm_dist.Codable.Make_register (Sm_dist.Codable.String_elt)
module Smap = Sm_dist.Codable.Make_map (Sm_dist.Codable.String_elt) (Sm_dist.Codable.Int_elt)

let kc = Reg.value registry ~name:"counter" (module Counter)
let kl = Reg.value registry ~name:"list" (module Ilist)
let kr = Reg.value registry ~name:"register" (module Sreg)
let km = Reg.value registry ~name:"map" (module Smap)

let t_add =
  Reg.task registry ~name:"add" (fun ctx ->
      Reg.update ctx kc (Sm_ot.Op_counter.add (int_of_string (Reg.argument ctx))))

let t_append =
  Reg.task registry ~name:"append" (fun ctx ->
      let x = int_of_string (Reg.argument ctx) in
      Reg.update ctx kl (Ilist.Op.ins (List.length (Reg.read ctx kl)) x))

let t_assign =
  Reg.task registry ~name:"assign" (fun ctx -> Reg.update ctx kr (Sreg.Op.assign (Reg.argument ctx)))

let t_put_rank =
  Reg.task registry ~name:"put-rank" (fun ctx ->
      Reg.update ctx km (Smap.Op.put (Reg.argument ctx) (Reg.rank ctx)))

let t_sync_rounds =
  Reg.task registry ~name:"sync-rounds" (fun ctx ->
      let rounds = int_of_string (Reg.argument ctx) in
      for _ = 1 to rounds do
        Reg.update ctx kc (Sm_ot.Op_counter.add 1);
        ignore (Reg.sync ctx)
      done)

let t_fail = Reg.task registry ~name:"fail" (fun ctx ->
    Reg.update ctx kc (Sm_ot.Op_counter.add 999);
    failwith ("deliberate failure on rank " ^ string_of_int (Reg.rank ctx)))

let t_observe_after_sync =
  Reg.task registry ~name:"observe" (fun ctx ->
      (* contribute, sync, then record what the merged world looked like *)
      Reg.update ctx kc (Sm_ot.Op_counter.add 1);
      ignore (Reg.sync ctx);
      Reg.update ctx km (Smap.Op.put (Reg.argument ctx) (Reg.read ctx kc)))

(* A fresh cluster per test keeps tests independent; they are cheap. *)
let with_cluster ?(nodes = 2) f =
  let cluster = D.cluster ~nodes registry in
  Fun.protect ~finally:(fun () -> D.shutdown cluster) (fun () -> f cluster)

let init_all ctx =
  let ws = D.workspace ctx in
  Ws.init ws (Reg.workspace_key kc) 0;
  Ws.init ws (Reg.workspace_key kl) [];
  Ws.init ws (Reg.workspace_key kr) "initial";
  Ws.init ws (Reg.workspace_key km) Smap.Op.Key_map.empty

let remote_counters () =
  with_cluster (fun cluster ->
      let total =
        D.run cluster (fun ctx ->
            init_all ctx;
            for i = 1 to 10 do
              ignore (D.spawn ctx t_add ~argument:(string_of_int i))
            done;
            D.merge_all ctx;
            Ws.read (D.workspace ctx) (Reg.workspace_key kc))
      in
      Alcotest.(check int) "sum over ranks" 55 total)

let creation_order_is_deterministic () =
  with_cluster ~nodes:3 (fun cluster ->
      let run () =
        D.run cluster (fun ctx ->
            init_all ctx;
            for i = 0 to 7 do
              ignore (D.spawn ctx t_append ~argument:(string_of_int i))
            done;
            D.merge_all ctx;
            Ws.read (D.workspace ctx) (Reg.workspace_key kl))
      in
      let a = run () and b = run () in
      Alcotest.(check (list int)) "creation order" [ 0; 1; 2; 3; 4; 5; 6; 7 ] a;
      Alcotest.(check (list int)) "repeatable" a b)

let same_digest_any_node_count () =
  let digest nodes =
    with_cluster ~nodes (fun cluster ->
        D.run cluster (fun ctx ->
            init_all ctx;
            for i = 0 to 5 do
              ignore (D.spawn ctx t_append ~argument:(string_of_int i));
              ignore (D.spawn ctx t_add ~argument:"3");
              ignore (D.spawn ctx t_assign ~argument:(Printf.sprintf "v%d" i))
            done;
            D.merge_all ctx;
            Ws.digest (D.workspace ctx)))
  in
  let d1 = digest 1 and d2 = digest 2 and d5 = digest 5 in
  Alcotest.(check string) "1 node = 2 nodes" d1 d2;
  Alcotest.(check string) "2 nodes = 5 nodes" d2 d5

let register_last_merged_wins () =
  with_cluster (fun cluster ->
      let v =
        D.run cluster (fun ctx ->
            init_all ctx;
            ignore (D.spawn ctx t_assign ~argument:"first");
            ignore (D.spawn ctx t_assign ~argument:"second");
            D.merge_all ctx;
            Ws.read (D.workspace ctx) (Reg.workspace_key kr))
      in
      Alcotest.(check string) "creation order decides" "second" v)

let sync_rounds_accumulate () =
  with_cluster (fun cluster ->
      let total =
        D.run cluster (fun ctx ->
            init_all ctx;
            ignore (D.spawn ctx t_sync_rounds ~argument:"4");
            ignore (D.spawn ctx t_sync_rounds ~argument:"4");
            (* each merge_all consumes one event per live task *)
            let rec drain () = if D.live_tasks ctx > 0 then (D.merge_all ctx; drain ()) in
            drain ();
            Ws.read (D.workspace ctx) (Reg.workspace_key kc))
      in
      Alcotest.(check int) "4 rounds x 2 tasks" 8 total)

let observers_see_merged_state () =
  with_cluster (fun cluster ->
      let bindings =
        D.run cluster (fun ctx ->
            init_all ctx;
            ignore (D.spawn ctx t_observe_after_sync ~argument:"a");
            ignore (D.spawn ctx t_observe_after_sync ~argument:"b");
            (* both sync (counter reaches 2), then both complete *)
            D.merge_all ctx;
            D.merge_all ctx;
            Smap.Op.Key_map.bindings (Ws.read (D.workspace ctx) (Reg.workspace_key km)))
      in
      (* merges happen in creation order: "a" is rebased right after its own
         merge (counter = 1), "b" after both (counter = 2) — deterministic *)
      Alcotest.(check (list (pair string int))) "observed merged counters" [ ("a", 1); ("b", 2) ]
        bindings)

let failures_discard () =
  with_cluster (fun cluster ->
      D.run cluster (fun ctx ->
          init_all ctx;
          let bad = D.spawn ctx t_fail ~argument:"" in
          let good = D.spawn ctx t_add ~argument:"7" in
          D.merge_all ctx;
          Alcotest.(check int) "only the good task merged" 7
            (Ws.read (D.workspace ctx) (Reg.workspace_key kc));
          check_bool "failure recorded"
            (match D.failure bad with Some r -> String.length r > 0 | None -> false);
          check_bool "good task clean" (D.failure good = None)))

let merge_any_drains () =
  with_cluster ~nodes:3 (fun cluster ->
      D.run cluster (fun ctx ->
          init_all ctx;
          for _ = 1 to 5 do
            ignore (D.spawn ctx t_add ~argument:"1")
          done;
          let merged = ref 0 in
          let rec drain () =
            match D.merge_any ctx with
            | Some _ ->
              incr merged;
              drain ()
            | None -> ()
          in
          drain ();
          Alcotest.(check int) "five events" 5 !merged;
          Alcotest.(check int) "all merged" 5 (Ws.read (D.workspace ctx) (Reg.workspace_key kc))))

let placement_is_explicit () =
  with_cluster ~nodes:3 (fun cluster ->
      D.run cluster (fun ctx ->
          init_all ctx;
          let t0 = D.spawn ctx ~node:2 t_put_rank ~argument:"x" in
          Alcotest.(check int) "placed on node 2" 2 (D.rank_of t0);
          D.merge_all ctx;
          Alcotest.(check (option int)) "task really ran on rank 2" (Some 2)
            (Smap.Op.Key_map.find_opt "x" (Ws.read (D.workspace ctx) (Reg.workspace_key km)));
          check_bool "unknown node rejected"
            (match D.spawn ctx ~node:9 t_add ~argument:"1" with
            | (_ : D.rtask) -> false
            | exception Invalid_argument _ -> true)))

let t_big_add =
  Reg.task registry ~name:"big-add" (fun ctx ->
      Reg.update ctx kc (Sm_ot.Op_counter.add 500);
      match Reg.sync ctx with
      | `Refused -> Reg.update ctx kc (Sm_ot.Op_counter.add 1) (* fall back to a small change *)
      | `Granted -> ())

let validation_over_the_wire () =
  with_cluster (fun cluster ->
      D.run cluster (fun ctx ->
          init_all ctx;
          ignore (D.spawn ctx t_big_add ~argument:"");
          let bounded w = Ws.read w (Reg.workspace_key kc) < 100 in
          (* sync refused: the big add never lands *)
          D.merge_all ~validate:bounded ctx;
          Alcotest.(check int) "rolled back" 0 (Ws.read (D.workspace ctx) (Reg.workspace_key kc));
          (* the task retries with a small change and completes *)
          D.merge_all ~validate:bounded ctx;
          Alcotest.(check int) "small change accepted" 1
            (Ws.read (D.workspace ctx) (Reg.workspace_key kc))))

let validation_preserves_history () =
  (* a refusal must not corrupt other children's version bases *)
  with_cluster (fun cluster ->
      D.run cluster (fun ctx ->
          init_all ctx;
          ignore (D.spawn ctx t_big_add ~argument:"");
          ignore (D.spawn ctx t_sync_rounds ~argument:"2");
          let bounded w = Ws.read w (Reg.workspace_key kc) < 100 in
          let rec drain () =
            if D.live_tasks ctx > 0 then begin
              D.merge_all ~validate:bounded ctx;
              drain ()
            end
          in
          drain ();
          (* big-add refused then added 1; sync-rounds contributed 2 *)
          Alcotest.(check int) "total" 3 (Ws.read (D.workspace ctx) (Reg.workspace_key kc))))

let cluster_reuse () =
  with_cluster (fun cluster ->
      for round = 1 to 5 do
        let v =
          D.run cluster (fun ctx ->
              init_all ctx;
              ignore (D.spawn ctx t_add ~argument:(string_of_int round));
              D.merge_all ctx;
              Ws.read (D.workspace ctx) (Reg.workspace_key kc))
        in
        Alcotest.(check int) (Printf.sprintf "round %d" round) round v
      done)

(* --- wire frames --------------------------------------------------------------- *)

module Frame = Sm_dist.Wire.Frame

let frame_golden_layout () =
  (* A ctx-less seal: magic, u16 version 3, kind, u32 length, a zero
     context length, then the payload — pinned byte for byte. *)
  let sealed = Frame.seal Frame.Delta "payload" in
  Alcotest.(check string) "ctx-less golden frame" "SM\x00\x03\x01\x00\x00\x00\x07\x00payload"
    sealed;
  Alcotest.(check int) "ctx-less header is 10 bytes" (10 + String.length "payload")
    (String.length sealed);
  (match Frame.open_ sealed with
  | Frame.Delta, None, "payload" -> ()
  | _ -> Alcotest.fail "ctx-less frame must open to its kind and payload");
  (* A context rides between the header and the payload, length-prefixed. *)
  let c = Sm_obs.Trace_ctx.child (Sm_obs.Trace_ctx.root "req") "hop" in
  let cb = Sm_util.Codec.encode Sm_obs.Trace_ctx.codec c in
  let sealed3 = Frame.seal ~ctx:c Frame.Control "p3" in
  Alcotest.(check string) "ctx golden frame"
    ("SM\x00\x03\x00\x00\x00\x00\x02" ^ String.make 1 (Char.chr (String.length cb)) ^ cb ^ "p3")
    sealed3;
  match Frame.open_ sealed3 with
  | _, Some c', p when p = "p3" -> check_bool "context round-trips" (Sm_obs.Trace_ctx.equal c c')
  | _ -> Alcotest.fail "open must surface the context"

(* Every version but the current one is a typed rejection — old builds'
   1 and 2, a future 4, and garbage at either end — whichever decoder
   meets the frame: a bare open, the shard protocol in both directions, or
   the coordinator's upstream decode. *)
let frame_unknown_version_rejected () =
  let restamp v frame =
    let b = Bytes.of_string frame in
    Bytes.set_uint16_be b 2 v;
    Bytes.to_string b
  in
  let rejects name v f =
    match f () with
    | exception Frame.Unsupported_version { got; speaks } ->
      Alcotest.(check int) (name ^ ": reports the alien version") v got;
      Alcotest.(check int) (name ^ ": reports what this build speaks") Frame.version speaks
    | _ -> Alcotest.failf "%s: version %d must be rejected" name v
  in
  let module Proto = Sm_shard.Proto in
  let control = Frame.seal Frame.Control "x" in
  let c2s = Proto.seal_c2s (Proto.Hello { client = "x" }) in
  let s2c = Proto.seal_s2c (Proto.Welcome { session = 1; payload = Proto.Delta [] }) in
  let up =
    let module W = Sm_dist.Wire in
    W.seal_control (Sm_util.Codec.encode W.up_codec (W.Task_failed { uid = 0; reason = "r" }))
  in
  List.iter
    (fun v ->
      rejects "open" v (fun () -> ignore (Frame.open_ (restamp v control)));
      rejects "c2s" v (fun () -> ignore (Proto.open_c2s (restamp v c2s)));
      rejects "s2c" v (fun () -> ignore (Proto.open_s2c (restamp v s2c)));
      match D.decode_up (restamp v up) with
      | exception D.Remote_failure msg ->
        Alcotest.(check string) "coordinator names the version"
          (Printf.sprintf "rejected frame: peer speaks frame version %d, this build %d" v
             Frame.version)
          msg
      | _ -> Alcotest.failf "coordinator: version %d must be rejected" v)
    [ 0; 1; 2; 4; 255 ];
  (* Corrupt magic stays a [Bad_frame], distinguishable from wrong build. *)
  let bad = Bytes.of_string control in
  Bytes.set bad 0 'X';
  match Frame.open_ (Bytes.to_string bad) with
  | exception Frame.Bad_frame _ -> ()
  | _ -> Alcotest.fail "corrupt magic must raise Bad_frame"

let frame_roundtrip_property () =
  let rng = Sm_util.Det_rng.create ~seed:0xF4A3E5L in
  for _ = 1 to 200 do
    let kind = Sm_util.Det_rng.pick rng [ Frame.Control; Frame.Delta; Frame.Snapshot ] in
    let payload = Sm_util.Det_rng.bytes rng ~len:(Sm_util.Det_rng.int rng ~bound:64) in
    let ctx =
      if Sm_util.Det_rng.bool rng then
        let root =
          Sm_obs.Trace_ctx.root (Printf.sprintf "req%Ld" (Sm_util.Det_rng.int64 rng))
        in
        if Sm_util.Det_rng.bool rng then Some (Sm_obs.Trace_ctx.child root "hop") else Some root
      else None
    in
    let kind', ctx', payload' = Frame.open_ (Frame.seal ?ctx kind payload) in
    check_bool "kind round-trips" (kind = kind');
    check_bool "payload round-trips" (String.equal payload payload');
    match (ctx, ctx') with
    | None, None -> ()
    | Some a, Some b -> check_bool "context round-trips" (Sm_obs.Trace_ctx.equal a b)
    | _ -> Alcotest.fail "context presence must round-trip"
  done

let suite =
  [ Alcotest.test_case "remote counters sum" `Quick remote_counters
  ; Alcotest.test_case "merge order deterministic across runs" `Quick creation_order_is_deterministic
  ; Alcotest.test_case "digest invariant under node count" `Quick same_digest_any_node_count
  ; Alcotest.test_case "register: last merged wins" `Quick register_last_merged_wins
  ; Alcotest.test_case "sync rounds accumulate" `Quick sync_rounds_accumulate
  ; Alcotest.test_case "observers see merged state after sync" `Quick observers_see_merged_state
  ; Alcotest.test_case "failed tasks discarded" `Quick failures_discard
  ; Alcotest.test_case "merge_any drains in arrival order" `Quick merge_any_drains
  ; Alcotest.test_case "explicit placement" `Quick placement_is_explicit
  ; Alcotest.test_case "validation over the wire" `Quick validation_over_the_wire
  ; Alcotest.test_case "refusal preserves sibling bases" `Quick validation_preserves_history
  ; Alcotest.test_case "cluster reused across runs" `Quick cluster_reuse
  ; Alcotest.test_case "frame: golden header layout" `Quick frame_golden_layout
  ; Alcotest.test_case "frame: alien versions rejected" `Quick frame_unknown_version_rejected
  ; Alcotest.test_case "frame: seal/open round-trip property" `Quick frame_roundtrip_property
  ]
