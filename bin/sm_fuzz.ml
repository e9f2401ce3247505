(* sm-fuzz — deterministic whole-program fuzzer for the Spawn/Merge runtime.

     sm-fuzz run --seeds 100 --depth 3            # fuzz generated spawn trees
     sm-fuzz run --faults validate,abort,sync,clone,any   # widen the step vocabulary
     sm-fuzz run --mutate tie-bias                # seeded bug: expect failures (exit 3)
     sm-fuzz run --target net                     # Netpipe fault-plane conservation laws
     sm-fuzz run --target dist                    # coordinator chaos invariance
     sm-fuzz run --target shard                   # editor fleets: digest convergence under chaos
     sm-fuzz replay --seed 0x2a                   # reproduce one seed's report exactly
     sm-fuzz replay --program failure.smp         # re-check a shrunk artifact
     sm-fuzz corpus --run                         # pinned seeds keep their outcomes

   Every failure prints a replayable report: the seed and config reproduce
   the run bit-for-bit, and the embedded shrunk program replays directly
   with --program.  With --lint, each failure report carries the sm-lint
   static pre-pass verdict of its shrunk program.  --mutate, --lint and
   --report-dir drive the spawn target and --flight-dir the shard target;
   passing one to another target is a usage error.

   Exit codes: 0 clean, 1 NEW failures found (or a corpus / replay
   mismatch), 2 usage, 3 only expected failures — every failure is the
   differential oracle catching the --mutate seeded bug, the outcome a
   mutation run exists to produce.  CI accepts 3 (`cmd; test $? = 3`) for
   mutation jobs and treats 1 as red everywhere. *)

module F = Sm_fuzz
module Program = F.Program
module Oracle = F.Oracle
module Fuzzer = F.Fuzzer

let die fmt = Format.kasprintf (fun msg -> prerr_endline ("sm-fuzz: " ^ msg); exit 2) fmt

let parse_profile s =
  match s with
  | "det" -> Program.det_profile
  | "full" -> Program.full_profile
  | s -> (
    match Program.profile_of_string s with
    | Some p -> p
    | None ->
      die "bad --faults %S (a comma list of validate,abort,sync,clone,any — or det, full, none)" s)

let parse_mutate = function
  | None -> None
  | Some m -> (
    match Sm_check.Mutate.of_string m with
    | Some k -> Some k
    | None ->
      die "unknown mutation %S (have: %s)" m
        (String.concat ", " (List.map Sm_check.Mutate.to_string Sm_check.Mutate.all)))

let write_report dir (r : Fuzzer.report) =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "seed-0x%Lx.report" r.seed) in
  let oc = open_out path in
  output_string oc (Fuzzer.report_to_string r);
  close_out oc;
  path

(* --- run -------------------------------------------------------------------- *)

(* The expected failure of a mutation run: the differential oracle caught
   the seeded transform bug.  Anything else is news. *)
let expected_failure ~mutate (r : Fuzzer.report) =
  Option.is_some mutate && r.Fuzzer.failure.Oracle.oracle = "differential"

(* 0 none, 3 all expected, 1 any unexpected. *)
let exit_for_failures ~mutate failures =
  if failures = [] then ()
  else if List.for_all (expected_failure ~mutate) failures then exit 3
  else exit 1

let run_spawn ~seeds ~seed_base ~depth ~profile ~mutate ~runs ~lint ~report_dir =
  Oracle.with_env (fun env ->
      let progress ~seed = function
        | Fuzzer.Passed -> ()
        | Fuzzer.Failed r ->
          Format.printf "seed 0x%Lx: FAIL [%s] %s@." seed r.Fuzzer.failure.Oracle.oracle
            r.Fuzzer.failure.Oracle.detail;
          Format.printf "  shrunk %d -> %d steps%s@." (Program.size r.Fuzzer.program)
            (Program.size r.Fuzzer.shrunk)
            (match report_dir with
            | None -> ""
            | Some dir -> Printf.sprintf " (report: %s)" (write_report dir r))
      in
      let summary =
        Fuzzer.run_seeds ?mutate ~runs ~lint ~progress env ~seed_base ~seeds ~depth ~profile ()
      in
      let nfail = List.length summary.Fuzzer.failed in
      Format.printf "%d seed%s (base 0x%Lx, depth %d, faults %s%s): %d failure%s@." seeds
        (if seeds = 1 then "" else "s")
        seed_base depth
        (Program.profile_to_string profile)
        (match mutate with
        | None -> ""
        | Some k -> ", mutate " ^ Sm_check.Mutate.to_string k)
        nfail
        (if nfail = 1 then "" else "s");
      (match (report_dir, summary.Fuzzer.failed) with
      | Some dir, _ :: _ -> Format.printf "reports in %s/@." dir
      | _ -> ());
      exit_for_failures ~mutate summary.Fuzzer.failed)

let run_net ~seeds ~seed_base =
  let failures = ref 0 in
  for i = 0 to seeds - 1 do
    let seed = Int64.add seed_base (Int64.of_int i) in
    List.iter
      (fun (label, faults) ->
        match F.Net_target.check_deterministic ~faults ~seed () with
        | Ok () -> ()
        | Error detail ->
          incr failures;
          Format.printf "seed 0x%Lx (%s): FAIL %s@." seed label detail)
      [ ("no faults", F.Net_target.no_faults); ("faulty", F.Net_target.default_faults) ]
  done;
  Format.printf "net target: %d seed%s, %d failure%s@." seeds
    (if seeds = 1 then "" else "s")
    !failures
    (if !failures = 1 then "" else "s");
  if !failures > 0 then exit 1

let run_dist ~seeds ~seed_base =
  let failures = ref 0 in
  for i = 0 to seeds - 1 do
    let seed = Int64.add seed_base (Int64.of_int i) in
    match F.Dist_target.check ~seed () with
    | Ok _ -> ()
    | Error detail ->
      incr failures;
      Format.printf "seed 0x%Lx: FAIL %s@." seed detail
  done;
  Format.printf "dist target: %d seed%s, %d failure%s@." seeds
    (if seeds = 1 then "" else "s")
    !failures
    (if !failures = 1 then "" else "s");
  if !failures > 0 then exit 1

let write_flight dir ~seed flight =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.map
    (fun (lane, lines) ->
      let path =
        Filename.concat dir
          (Printf.sprintf "seed-0x%Lx-%s.flight.jsonl" seed (Sm_obs.Trace_jsonl.lane_file lane))
      in
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      path)
    flight

let run_shard ~seeds ~seed_base ~flight_dir =
  let failures = ref 0 in
  for i = 0 to seeds - 1 do
    let seed = Int64.add seed_base (Int64.of_int i) in
    match F.Shard_target.fuzz_one ~seed () with
    | F.Shard_target.Passed _ -> ()
    | F.Shard_target.Failed { detail; scenario; shrunk; shrink_steps; flight; flight_deterministic }
      ->
      incr failures;
      Format.printf "seed 0x%Lx: FAIL %s@.  scenario: %s@.  shrunk (%d step%s): %s@." seed detail
        (F.Shard_target.scenario_to_string scenario)
        shrink_steps
        (if shrink_steps = 1 then "" else "s")
        (F.Shard_target.scenario_to_string shrunk);
      let nev = List.fold_left (fun a (_, ls) -> a + List.length ls) 0 flight in
      Format.printf "  flight: %d event%s across %d lane%s%s@." nev
        (if nev = 1 then "" else "s")
        (List.length flight)
        (if List.length flight = 1 then "" else "s")
        (if flight_deterministic then "" else " [WARNING: dump did not replay identically]");
      (match flight_dir with
      | Some dir ->
        List.iter (fun p -> Format.printf "  flight dump: %s@." p) (write_flight dir ~seed flight)
      | None ->
        (* No dump dir: show each lane's tail inline — the last few ring
           events are the post-mortem a triager reads first. *)
        List.iter
          (fun (lane, lines) ->
            let n = List.length lines in
            let tail = if n > 5 then Printf.sprintf " (last 5 of %d)" n else "" in
            Format.printf "  [%s]%s@." lane tail;
            List.iteri (fun i l -> if i >= n - 5 then Format.printf "    %s@." l) lines)
          flight)
  done;
  (* With a dump dir, always leave an artifact: the final run's rings even
     on a clean pass, so CI uploads a post-mortem sample unconditionally. *)
  (match flight_dir with
  | Some dir when !failures = 0 -> Sm_obs.Flight_recorder.write_dir dir
  | _ -> ());
  Format.printf "shard target: %d seed%s, %d failure%s@." seeds
    (if seeds = 1 then "" else "s")
    !failures
    (if !failures = 1 then "" else "s");
  if !failures > 0 then exit 1

let run target seeds seed_base depth faults mutate runs lint report_dir flight_dir =
  let profile = parse_profile faults in
  let mutate = parse_mutate mutate in
  let only_for t flag given =
    if given && target <> t then die "%s applies only to --target %s, not %s" flag t target
  in
  only_for "spawn" "--mutate" (Option.is_some mutate);
  only_for "spawn" "--lint" lint;
  only_for "spawn" "--report-dir" (Option.is_some report_dir);
  only_for "shard" "--flight-dir" (Option.is_some flight_dir);
  match target with
  | "spawn" -> run_spawn ~seeds ~seed_base ~depth ~profile ~mutate ~runs ~lint ~report_dir
  | "net" -> run_net ~seeds ~seed_base
  | "dist" -> run_dist ~seeds ~seed_base
  | "shard" -> run_shard ~seeds ~seed_base ~flight_dir
  | t -> die "unknown target %S (have: spawn, net, dist, shard)" t

(* --- replay ----------------------------------------------------------------- *)

let replay seed program_file depth faults mutate runs lint =
  let profile = parse_profile faults in
  let mutate = parse_mutate mutate in
  match (seed, program_file) with
  | None, None -> die "replay needs --seed or --program"
  | Some _, Some _ -> die "replay takes --seed or --program, not both"
  | Some seed, None ->
    Oracle.with_env (fun env ->
        match Fuzzer.fuzz_one ?mutate ~runs ~lint env ~seed ~depth ~profile () with
        | Fuzzer.Passed ->
          Format.printf "seed 0x%Lx: all oracles pass (depth %d, faults %s)@." seed depth
            (Program.profile_to_string profile)
        | Fuzzer.Failed r ->
          print_string (Fuzzer.report_to_string r);
          exit_for_failures ~mutate [ r ])
  | None, Some file ->
    let text =
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error e -> die "cannot read %s: %s" file e
    in
    let program = try Program.of_string text with Invalid_argument e -> die "%s" e in
    Oracle.with_env (fun env ->
        match Oracle.check ?mutate ~runs env program with
        | Ok () -> Format.printf "%s: all oracles pass@." file
        | Error f ->
          Format.printf "%s: FAIL %a@." file Oracle.pp_failure f;
          if Option.is_some mutate && f.Oracle.oracle = "differential" then exit 3 else exit 1)

(* --- corpus ----------------------------------------------------------------- *)

let corpus list_only run_entries =
  let entries = F.Corpus.all in
  if list_only || not run_entries then
    List.iter
      (fun (e : F.Corpus.entry) ->
        Format.printf "%-24s seed 0x%Lx depth %d faults %s mutate %s expect %s@." e.name e.seed
          e.depth
          (Program.profile_to_string e.profile)
          (match e.mutate with None -> "none" | Some k -> Sm_check.Mutate.to_string k)
          (Option.value e.expect ~default:"pass"))
      entries
  else
    Oracle.with_env (fun env ->
        let failed = ref 0 in
        List.iter
          (fun (e : F.Corpus.entry) ->
            match F.Corpus.check env e with
            | Ok _ -> Format.printf "%-24s ok@." e.name
            | Error msg ->
              incr failed;
              Format.printf "%-24s MISMATCH %s@." e.name msg)
          entries;
        Format.printf "%d corpus entr%s, %d mismatch%s@." (List.length entries)
          (if List.length entries = 1 then "y" else "ies")
          !failed
          (if !failed = 1 then "" else "es");
        if !failed > 0 then exit 1)

(* --- cmdliner ---------------------------------------------------------------- *)

open Cmdliner

let seed_conv =
  let parse s =
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "not a seed: %S (decimal or 0x hex)" s))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "0x%Lx" v)

let depth_arg =
  Arg.(
    value & opt int 3
    & info [ "depth" ] ~docv:"D" ~doc:"Generator depth: scripts per program and steps per script scale with it.")

let faults_arg =
  Arg.(
    value & opt string "det"
    & info [ "faults" ] ~docv:"LIST"
        ~doc:"Fault vocabulary for generated programs: comma list of validate, abort, sync, \
              clone, any — or the presets det (default: validate,abort,sync) and full.")

let mutate_arg =
  Arg.(
    value & opt (some string) None
    & info [ "mutate" ] ~docv:"KIND"
        ~doc:"Seed a transform bug (tie-bias, identity, drop-last, reverse) into every \
              mergeable type; the differential oracle must catch it, so expect exit 3.  \
              Spawn target only.")

let runs_arg =
  Arg.(value & opt int 3 & info [ "runs" ] ~docv:"N" ~doc:"Repetitions for the determinism oracle.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:"Run the sm-lint static pre-pass on each failure's shrunk program and embed its \
              verdict in the report.  Spawn target only.")

let exits =
  [ Cmd.Exit.info 0 ~doc:"clean — no failures"
  ; Cmd.Exit.info 1 ~doc:"new failures found, or a corpus/replay mismatch"
  ; Cmd.Exit.info 2 ~doc:"usage error"
  ; Cmd.Exit.info 3
      ~doc:"only expected failures — every one is the differential oracle catching the --mutate \
            seeded bug"
  ]

let run_cmd =
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"How many consecutive seeds to fuzz.")
  in
  let seed_base_arg =
    Arg.(value & opt seed_conv 1L & info [ "seed-base" ] ~docv:"S" ~doc:"First seed.")
  in
  let target_arg =
    Arg.(
      value & opt string "spawn"
      & info [ "target" ] ~docv:"T"
          ~doc:"What to fuzz: spawn (generated spawn-tree programs), net (Netpipe fault plane), \
                shard (sharded document service: convergence under chaos), \
                dist (coordinator under message chaos).")
  in
  let report_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "report-dir" ] ~docv:"DIR"
          ~doc:"Spawn target: write each failure report to DIR/seed-S.report.")
  in
  let flight_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:"Shard target: write flight-recorder post-mortems to \
                DIR/seed-S-LANE.flight.jsonl (on a clean pass, the final run's rings).")
  in
  Cmd.v
    (Cmd.info "run" ~exits ~doc:"Fuzz N seeds against every applicable oracle, shrinking failures.")
    Term.(
      const run $ target_arg $ seeds_arg $ seed_base_arg $ depth_arg $ faults_arg $ mutate_arg
      $ runs_arg $ lint_arg $ report_dir_arg $ flight_dir_arg)

let replay_cmd =
  let seed_arg =
    Arg.(
      value & opt (some seed_conv) None
      & info [ "seed" ] ~docv:"S" ~doc:"Reproduce this seed's run (same --depth/--faults/--mutate as the original).")
  in
  let program_arg =
    Arg.(
      value & opt (some string) None
      & info [ "program" ] ~docv:"FILE" ~doc:"Re-check a program artifact instead of a seed.")
  in
  Cmd.v
    (Cmd.info "replay" ~exits
       ~doc:"Reproduce a failure byte-for-byte from its seed, or re-check a shrunk program file.")
    Term.(
      const replay $ seed_arg $ program_arg $ depth_arg $ faults_arg $ mutate_arg $ runs_arg
      $ lint_arg)

let corpus_cmd =
  let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List corpus entries (default).") in
  let run_arg = Arg.(value & flag & info [ "run" ] ~doc:"Re-check every entry's pinned outcome.") in
  Cmd.v
    (Cmd.info "corpus" ~doc:"List or re-check the pinned seed corpus.")
    Term.(const corpus $ list_arg $ run_arg)

let () =
  let info =
    Cmd.info "sm-fuzz" ~version:"%%VERSION%%" ~exits
      ~doc:"Deterministic spawn-tree fuzzer with fault injection for Spawn/Merge."
  in
  exit (Cmd.eval (Cmd.group info [ run_cmd; replay_cmd; corpus_cmd ]))
