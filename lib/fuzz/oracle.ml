module Rt = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace
module Obs = Sm_obs

type failure =
  { oracle : string
  ; detail : string
  }

let pp_failure ppf { oracle; detail } = Format.fprintf ppf "[%s] %s" oracle detail

type env =
  { exec2 : Sm_core.Executor.t
  ; exec1 : Sm_core.Executor.t
  }

let with_env f =
  let exec2 = Sm_core.Executor.create ~domains:2 () in
  let exec1 = Sm_core.Executor.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () ->
      Sm_core.Executor.shutdown exec2;
      Sm_core.Executor.shutdown exec1)
    (fun () -> f { exec2; exec1 })

let threaded_executor env = env.exec2

let short d = if String.length d > 16 then String.sub d 0 16 else d

let coop_digest keys prog =
  Rt.Coop.run (fun ctx ->
      Interp.run keys prog ctx;
      Ws.digest (Rt.workspace ctx))

(* Each oracle returns [Ok ()] or the failure; [check] sequences them.  The
   [fail] formatter keeps details one-line so reports stay greppable. *)
let fail oracle fmt = Format.kasprintf (fun detail -> Error { oracle; detail }) fmt

let crash_oracle env keys prog baseline =
  match baseline with
  | Error exn -> fail "crash" "cooperative run raised %s" (Printexc.to_string exn)
  | Ok _ -> (
    match Sm_core.Detcheck.digest_of_run ~executor:env.exec2 (Interp.run keys prog) with
    | (_ : string) -> Ok ()
    | exception exn -> fail "crash" "threaded run raised %s" (Printexc.to_string exn))

let differential_oracle prog baseline = function
  | None -> Ok ()
  | Some kind -> (
    let mutated = Interp.Keyset.mutated kind in
    match coop_digest mutated prog with
    | exception exn ->
      fail "differential" "mutated (%s) run raised %s" (Sm_check.Mutate.to_string kind)
        (Printexc.to_string exn)
    | d when d <> baseline ->
      fail "differential" "mutated (%s) digest %s <> clean %s" (Sm_check.Mutate.to_string kind)
        (short d) (short baseline)
    | _ -> Ok ())

let determinism_oracle env keys prog baseline ~runs =
  if Sm_ir.Program.uses_any_merge prog then Ok ()
  else begin
    let threaded executor =
      Sm_core.Detcheck.digest_of_run ~executor (Interp.run keys prog)
    in
    let rec go i =
      if i >= runs then Ok ()
      else
        let d = threaded (if i = runs - 1 then env.exec1 else env.exec2) in
        if d <> baseline then
          fail "determinism" "threaded run %d digest %s <> coop %s" i (short d) (short baseline)
        else go (i + 1)
    in
    go 0
  end

let compaction_oracle prog baseline =
  let d = coop_digest (Interp.Keyset.uncompacted ()) prog in
  if d <> baseline then
    fail "compaction" "compaction-off digest %s <> on %s" (short d) (short baseline)
  else Ok ()

let detsan_oracle env keys prog =
  if Sm_ir.Program.uses_any_merge prog then Ok ()
  else begin
    let hazards, _digest = Sm_check.Detsan.run ~executor:env.exec2 (Interp.run keys prog) in
    match hazards with
    | [] -> Ok ()
    | h :: _ -> fail "detsan" "%a" Sm_check.Detsan.pp_hazard h
  end

let collect_trace keys prog =
  let sink, read = Obs.Sink.collecting () in
  let level = Obs.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.reset_sink ();
      Obs.set_level level)
    (fun () ->
      Obs.set_level Obs.Info;
      Obs.set_sink sink;
      ignore (coop_digest keys prog);
      read ())

let trace_oracle keys prog =
  let a = collect_trace keys prog in
  let b = collect_trace keys prog in
  match Obs.Trace_diff.compare_events a b with
  | Obs.Trace_diff.Equal _ -> Ok ()
  | Obs.Trace_diff.Diverged _ as r -> fail "trace" "%a" Obs.Trace_diff.pp_result r

let replay_oracle env keys prog =
  if not (Sm_ir.Program.uses_any_merge prog) || Sm_ir.Program.uses_clone prog then Ok ()
  else begin
    let trace = Rt.Trace.create () in
    let recorded =
      Rt.run ~executor:env.exec2 ~record:trace (fun ctx ->
          Interp.run keys prog ctx;
          Ws.digest (Rt.workspace ctx))
    in
    match
      Rt.run ~executor:env.exec2 ~replay:trace (fun ctx ->
          Interp.run keys prog ctx;
          Ws.digest (Rt.workspace ctx))
    with
    | replayed when replayed <> recorded ->
      fail "replay" "replayed digest %s <> recorded %s (%d choices)" (short replayed)
        (short recorded) (Rt.Trace.length trace)
    | exception exn -> fail "replay" "replaying raised %s" (Printexc.to_string exn)
    | _ -> Ok ()
  end

let check ?focus ?(runs = 3) ?mutate env prog =
  let keys = Interp.Keyset.default () in
  let baseline = try Ok (coop_digest keys prog) with exn -> Error exn in
  let want name = match focus with None -> true | Some f -> f = name in
  let oracles base =
    [ ("crash", fun () -> crash_oracle env keys prog baseline)
    ; ("differential", fun () -> differential_oracle prog base mutate)
    ; ("determinism", fun () -> determinism_oracle env keys prog base ~runs)
    ; ("compaction", fun () -> compaction_oracle prog base)
    ; ("detsan", fun () -> detsan_oracle env keys prog)
    ; ("trace", fun () -> trace_oracle keys prog)
    ; ("replay", fun () -> replay_oracle env keys prog)
    ]
  in
  match baseline with
  | Error exn when want "crash" ->
    fail "crash" "cooperative run raised %s" (Printexc.to_string exn)
  | Error _ -> Ok () (* focused elsewhere: a crashing program can't exhibit it *)
  | Ok base ->
    List.fold_left
      (fun acc (name, oracle) ->
        match acc with
        | Error _ -> acc
        | Ok () -> if want name then oracle () else Ok ())
      (Ok ()) (oracles base)
