(* sm-fuzz — deterministic whole-program fuzzer for the Spawn/Merge runtime.

     sm-fuzz run --seeds 100 --depth 3            # fuzz generated spawn trees
     sm-fuzz run --faults validate,abort,sync,clone,any   # widen the step vocabulary
     sm-fuzz run --mutate tie-bias                # seeded bug: expect failures (exit 3)
     sm-fuzz run --target net                     # Netpipe fault-plane conservation laws
     sm-fuzz run --target dist                    # coordinator chaos invariance
     sm-fuzz run --target shard                   # editor fleets: digest convergence under chaos
     sm-fuzz run --target shard --report-dir R    # reports and flight-recorder dumps in R/
     sm-fuzz replay --seed 0x2a                   # reproduce one seed's report exactly
     sm-fuzz replay --program failure.smp         # re-check a shrunk artifact
     sm-fuzz corpus --run                         # pinned seeds keep their outcomes

   Every target is a seed-to-verdict check (Sm_fuzz.Target) and runs
   through the same sweep.  Each failure comes with a replayable report
   (the seed and config reproduce the run bit-for-bit; a spawn report
   embeds the shrunk program, which replays directly with --program) and,
   on the shard target, flight-recorder lanes.  Both print inline, or, on
   every target, --report-dir writes them to DIR/seed-S.report and
   DIR/seed-S-LANE.flight.jsonl; a clean sweep leaves the final flight
   rings there.  --mutate and --lint drive the spawn target (with --lint,
   each report carries the sm-lint static pre-pass verdict of its shrunk
   program); passing one to another target is a usage error.

   Exit codes: 0 clean, 1 NEW failures found (or a corpus / replay
   mismatch), 2 usage, 3 only expected failures — every failure is the
   differential oracle catching the --mutate seeded bug, the outcome a
   mutation run exists to produce.  CI accepts 3 (`cmd; test $? = 3`) for
   mutation jobs and treats 1 as red everywhere. *)

module F = Sm_fuzz
module Program = Sm_ir.Program
module Oracle = F.Oracle
module Fuzzer = F.Fuzzer
module Target = F.Target

let die fmt = Format.kasprintf (fun msg -> prerr_endline ("sm-fuzz: " ^ msg); exit 2) fmt

let parse_mutate = function
  | None -> None
  | Some m -> (
    match Sm_check.Mutate.of_string m with
    | Some k -> Some k
    | None ->
      die "unknown mutation %S (have: %s)" m
        (String.concat ", " (List.map Sm_check.Mutate.to_string Sm_check.Mutate.all)))

let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s")

(* --- run -------------------------------------------------------------------- *)

let write_file dir name lines =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc -> List.iter (Out_channel.output_string oc) lines);
  path

(* A failure's artifacts: the report and one file per flight-recorder lane. *)
let write_failure dir seed (f : Target.failure) =
  write_file dir (Printf.sprintf "seed-0x%Lx.report" seed) [ f.report ]
  :: List.map
       (fun (lane, lines) ->
         write_file dir
           (Printf.sprintf "seed-0x%Lx-%s.flight.jsonl" seed (Sm_obs.Trace_jsonl.lane_file lane))
           (List.map (fun l -> l ^ "\n") lines))
       f.flight

(* With a report dir, name the files; without one, show the report and each
   lane's tail inline — the last few ring events are the post-mortem a
   triager reads first. *)
let print_failure ~report_dir seed (f : Target.failure) =
  Format.printf "seed 0x%Lx: FAIL [%s] %s@." seed f.oracle f.detail;
  match report_dir with
  | Some dir -> List.iter (Format.printf "  wrote %s@.") (write_failure dir seed f)
  | None ->
    List.iter
      (fun l -> if l <> "" then Format.printf "  %s@." l)
      (String.split_on_char '\n' f.report);
    List.iter
      (fun (lane, lines) ->
        let n = List.length lines in
        Format.printf "  [%s]%s@." lane (if n > 5 then Printf.sprintf " (last 5 of %d)" n else "");
        List.iteri (fun i l -> if i >= n - 5 then Format.printf "    %s@." l) lines)
      f.flight

(* Only the spawn target needs the shared executors of an oracle env. *)
let with_target name ~depth ~profile ~mutate ~runs ~lint k =
  match name with
  | "spawn" ->
    Oracle.with_env (fun env -> k (Fuzzer.target ?mutate ~runs ~lint env ~depth ~profile))
  | "net" -> k F.Net_target.target
  | "dist" -> k F.Dist_target.target
  | "shard" -> k F.Shard_target.target
  | t -> die "unknown target %S (have: spawn, net, dist, shard)" t

let run target seeds seed_base depth profile mutate runs lint report_dir =
  let mutate = parse_mutate mutate in
  let only_for t flag given =
    if given && target <> t then die "%s applies only to --target %s, not %s" flag t target
  in
  only_for "spawn" "--mutate" (Option.is_some mutate);
  only_for "spawn" "--lint" lint;
  with_target target ~depth ~profile ~mutate ~runs ~lint (fun t ->
      let failures = Target.sweep ~on_failure:(print_failure ~report_dir) t ~seed_base ~seeds in
      Format.printf "%s: %s from 0x%Lx, %s@." t.Target.name (plural seeds "seed") seed_base
        (plural (List.length failures) "failure");
      (* A clean sweep still leaves an artifact: the final run's flight
         rings, so CI uploads a post-mortem sample unconditionally. *)
      (match report_dir with
      | Some dir when failures = [] -> Sm_obs.Flight_recorder.write_dir dir
      | _ -> ());
      Target.exit_code (List.map snd failures))
  |> exit

(* --- replay ----------------------------------------------------------------- *)

let replay seed program_file depth profile mutate runs lint =
  let mutate = parse_mutate mutate in
  match (seed, program_file) with
  | None, None -> die "replay needs --seed or --program"
  | Some _, Some _ -> die "replay takes --seed or --program, not both"
  | Some seed, None ->
    Oracle.with_env (fun env ->
        match (Fuzzer.target ?mutate ~runs ~lint env ~depth ~profile).check ~seed with
        | Ok () ->
          Format.printf "seed 0x%Lx: all oracles pass (depth %d, faults %s)@." seed depth
            (Program.profile_to_string profile);
          0
        | Error f ->
          print_string f.report;
          Target.exit_code [ f ])
    |> exit
  | None, Some file ->
    let text =
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error e -> die "cannot read %s: %s" file e
    in
    let program = try Program.of_string text with Invalid_argument e -> die "%s" e in
    Oracle.with_env (fun env ->
        match Fuzzer.check_program ?mutate ~runs env program with
        | Ok () ->
          Format.printf "%s: all oracles pass@." file;
          0
        | Error f ->
          Format.printf "%s: FAIL [%s] %s@." file f.oracle f.detail;
          Target.exit_code [ f ])
    |> exit

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

(* The usage error lives with the flag: commands receive a parsed profile. *)
let faults_arg =
  let profile s =
    match Program.profile_of_string s with
    | Some p -> p
    | None ->
      die "bad --faults %S (a comma list of validate,abort,sync,clone,any — or det, full, none)" s
  in
  Term.(
    const profile
    $ Arg.(
        value & opt string "det"
        & info [ "faults" ] ~docv:"LIST"
            ~doc:"Fault vocabulary for generated programs: comma list of validate, abort, sync, \
                  clone, any — or the presets det (default: validate,abort,sync) and full."))

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
          ~doc:"Write each failure report to DIR/seed-S.report and its flight-recorder \
                post-mortem to DIR/seed-S-LANE.flight.jsonl; after a clean sweep, the final \
                run's flight rings to DIR/LANE.flight.jsonl.")
  in
  Cmd.v
    (Cmd.info "run" ~exits ~doc:"Fuzz N seeds against every applicable oracle, shrinking failures.")
    Term.(
      const run $ target_arg $ seeds_arg $ seed_base_arg $ depth_arg $ faults_arg $ mutate_arg
      $ runs_arg $ lint_arg $ report_dir_arg)

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
