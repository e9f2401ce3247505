module Load = Sm_shard.Load
module Service = Sm_shard.Service
module Rng = Sm_util.Det_rng
module Obs = Sm_obs

(* Pre-minted document set, shared by every scenario in the process: the
   cross-scheduler and Detsan checks run workloads under live observation,
   and re-minting keys there would itself be the key-in-task hazard. *)
let docs =
  Service.make_docs
    [ `Text ("fuzz/alpha", "alpha document\n")
    ; `Text ("fuzz/beta", "")
    ; `Tree ("fuzz/tree", Service.Tree.Op.[ branch "root" [ leaf "a"; leaf "b" ] ])
    ; `Text ("fuzz/gamma", "gamma")
    ]

type scenario =
  { shards : int
  ; clients : int
  ; ops : int
  ; epoch_ticks : int
  ; faults : Load.faults option
  ; disconnect : float
  }

let fault_levels =
  [ None
  ; Some { Load.drop = 0.05; dup = 0.05; delay = 0.10; reorder = 0.10 }
  ; Some { Load.drop = 0.15; dup = 0.10; delay = 0.15; reorder = 0.10 }
  ]

let scenario_of_seed seed =
  let rng = Rng.create ~seed in
  { shards = 1 + Rng.int rng ~bound:4
  ; clients = 2 + Rng.int rng ~bound:10
  ; ops = 5 + Rng.int rng ~bound:20
  ; epoch_ticks = 1 + Rng.int rng ~bound:5
  ; faults = Rng.pick rng fault_levels
  ; disconnect = Rng.pick rng [ 0.; 0.; 0.01; 0.05 ]
  }

let scenario_to_string s =
  Printf.sprintf "shards=%d clients=%d ops=%d epoch_ticks=%d faults=%s disconnect=%.2f" s.shards
    s.clients s.ops s.epoch_ticks
    (match s.faults with
    | None -> "none"
    | Some f -> Printf.sprintf "drop%.2f/dup%.2f/delay%.2f/reorder%.2f" f.drop f.dup f.delay f.reorder)
    s.disconnect

let profile_of ~seed s =
  { Load.default with
    seed
  ; shards = s.shards
  ; clients = s.clients
  ; ops_per_client = s.ops
  ; epoch_ticks = s.epoch_ticks
  ; faults = s.faults
  ; disconnect_prob = s.disconnect
  ; max_ticks = 50_000
  }

(* The oracles, in order of blame precision:
   1. convergence — every client view digest equals its shard's digest;
   2. DetSan-clean — the run triggers no determinism hazards;
   3. reproducibility — a second identical run matches digests and ticks;
   4. mode invariance — a snapshot-mode run reaches the same digests
      (delta journals and full snapshots describe the same states).
   A violation is [Error (oracle, detail)]. *)
let check_scenario ~seed s =
  let profile = profile_of ~seed s in
  let r1, hazards = Sm_check.Detsan.observe (fun () -> Load.run ~docs profile) in
  if not r1.Load.converged then
    Error
      ( "convergence"
      , Printf.sprintf "did not converge in %d ticks (%d ops placed of %d, %d batches merged%s)"
          r1.Load.ticks r1.Load.ops_applied (s.clients * s.ops) r1.Load.edits_merged
          (match r1.Load.failures with
          | [] -> ""
          | (who, why) :: _ -> Printf.sprintf "; %s: %s" who why) )
  else
    match hazards with
    | h :: _ -> Error ("detsan", Format.asprintf "%a" Sm_check.Detsan.pp_hazard h)
    | [] ->
      let r2 = Load.run ~docs profile in
      if r2.Load.shard_digests <> r1.Load.shard_digests then
        Error ("reproducibility", "rerun with the same seed changed the shard digests")
      else if r2.Load.ticks <> r1.Load.ticks then
        Error
          ( "reproducibility"
          , Printf.sprintf "rerun with the same seed changed the tick count (%d vs %d)"
              r1.Load.ticks r2.Load.ticks )
      else
        let snap = Load.run ~docs { profile with mode = `Snapshot } in
        if snap.Load.shard_digests <> r1.Load.shard_digests then
          Error ("mode-invariance", "snapshot-mode run diverged from the delta-mode digests")
        else Ok ()

(* Shrink candidates, in the order the greedy shrinker tries them: fewer
   clients, fewer ops, one shard, chaos off, tighter epochs.  A candidate is
   accepted if it still fails (any oracle). *)
let shrink_candidates s =
  List.concat
    [ (if s.clients > 2 then [ { s with clients = max 2 (s.clients / 2) }; { s with clients = s.clients - 1 } ] else [])
    ; (if s.ops > 1 then [ { s with ops = max 1 (s.ops / 2) }; { s with ops = s.ops - 1 } ] else [])
    ; (if s.shards > 1 then [ { s with shards = 1 } ] else [])
    ; (if s.disconnect > 0. then [ { s with disconnect = 0. } ] else [])
    ; (if s.faults <> None then [ { s with faults = None } ] else [])
    ; (if s.epoch_ticks > 1 then [ { s with epoch_ticks = 1 } ] else [])
    ]

(* The post-mortem: replay the shrunk failing scenario once more with fresh
   rings and take the flight dump — the hazard-triggered snapshot when the
   failure path fired one (its rings are frozen at the moment of the nack /
   chaos resume), the end-of-run rings otherwise (e.g. a plain convergence
   miss).  Replaying twice checks the dump itself is deterministic: the
   whole run is a function of the seed and dumps are structural, so the two
   captures must be byte-identical — if they are not, the post-mortem is
   untrustworthy and the report says so. *)
let flight_of ~seed s =
  let capture () =
    Obs.Flight_recorder.reset ();
    ignore (check_scenario ~seed s);
    match Obs.Flight_recorder.last_trigger () with
    | Some (_reason, dumps) -> dumps
    | None -> Obs.Flight_recorder.dump_all ()
  in
  let d1 = capture () in
  let d2 = capture () in
  (d1, d1 = d2)

let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s")

let target =
  let check ~seed =
    let s = scenario_of_seed seed in
    match check_scenario ~seed s with
    | Ok () -> Ok ()
    | Error (oracle, detail) ->
      let fails c = Result.is_error (check_scenario ~seed c) in
      let shrunk, steps = Sm_check.Shrink.greedy ~fails ~candidates:shrink_candidates s in
      let flight, deterministic = flight_of ~seed shrunk in
      let events = List.fold_left (fun n (_, lines) -> n + List.length lines) 0 flight in
      let fields =
        [ ("scenario", scenario_to_string s)
        ; ( "shrunk"
          , Printf.sprintf "%s (%s)" (scenario_to_string shrunk) (plural steps "shrink move") )
        ; ( "flight"
          , Printf.sprintf "%s across %s%s" (plural events "event")
              (plural (List.length flight) "lane")
              (if deterministic then "" else " [WARNING: dump did not replay identically]") )
        ]
      in
      Error (Target.fail ~target:"shard" ~seed ~oracle ~fields ~flight detail)
  in
  { Target.name = "shard"; check }
