(* sm-lint — static determinism & cost analyzer for Spawn/Merge programs.

     sm-lint check prog.smp ...        # lint program artifacts
     sm-lint seed --seed 0x2a --depth 3 --faults full   # lint a generated program
     sm-lint corpus                    # lint every pinned fuzz-corpus program
     sm-lint matrix --type queue       # show a derived commutation matrix
     sm-lint agree --seeds 100         # static/dynamic agreement harness
     sm-lint cost --program prog.smp --run          # bound vs one metered run
     sm-lint cost --program prog.smp --trace t.jsonl  # bound vs a recorded trace

   Findings follow the severity contract of lib/lint: errors mean the
   program can be dynamically non-deterministic (each carries its DetSan
   twin tag), warnings mean deterministic-but-order-defined behavior that a
   registry known issue can pin, notes are advisory.  Exit codes: 0 clean,
   1 dirty findings / harness violation / bound exceeded, 2 usage,
   3 pinned-only (every gating finding expected by a known issue). *)

module F = Sm_fuzz
module L = Sm_lint
module Program = Sm_ir.Program

let die fmt = Format.kasprintf (fun msg -> prerr_endline ("sm-lint: " ^ msg); exit 2) fmt

let load_program file =
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error e -> die "cannot read %s: %s" file e
  in
  try Program.of_string text with Invalid_argument e -> die "%s: %s" file e

(* Verdicts across several programs: the worst one wins (dirty > pinned-only
   > clean), matching how CI consumes a multi-file invocation. *)
let exit_of_verdicts vs =
  let rank = function L.Finding.Clean -> 0 | L.Finding.Pinned_only -> 1 | L.Finding.Dirty -> 2 in
  let worst = List.fold_left (fun a v -> if rank v > rank a then v else a) L.Finding.Clean vs in
  L.Finding.verdict_exit_code worst

let lint_programs named =
  let verdicts =
    List.map
      (fun (name, prog) ->
        let report = L.Lint.analyze prog in
        Format.printf "== %s ==@.%a@." name L.Lint.pp_report report;
        L.Lint.verdict report)
      named
  in
  exit (exit_of_verdicts verdicts)

(* --- check / seed / corpus --------------------------------------------------- *)

let check files =
  if files = [] then die "check needs at least one program file";
  lint_programs (List.map (fun f -> (f, load_program f)) files)

let seed seed depth profile =
  let prog = F.Fuzzer.program_of_seed ~seed ~depth ~profile in
  lint_programs [ (Printf.sprintf "seed-0x%Lx" seed, prog) ]

let corpus () =
  lint_programs
    (List.map
       (fun (e : F.Corpus.entry) ->
         (e.name, F.Fuzzer.program_of_seed ~seed:e.seed ~depth:e.depth ~profile:e.profile))
       F.Corpus.all)

(* --- matrix ------------------------------------------------------------------ *)

let matrix ty depth =
  let entries =
    match ty with
    | None -> Sm_check.Registry.all ()
    | Some t -> (
      match Sm_check.Registry.find t with
      | Some e -> [ e ]
      | None ->
        die "unknown type %S (have: %s)" t (String.concat ", " (Sm_check.Registry.names ())))
  in
  List.iter
    (fun e -> Format.printf "%a@." L.Matrix.pp (L.Matrix.of_entry ~depth e))
    entries

(* --- agree ------------------------------------------------------------------- *)

let agree use_corpus seeds seed_base depth profile =
  F.Oracle.with_env (fun env ->
      let progress ~name (o : F.Agree.outcome) =
        match o.violations with
        | [] -> ()
        | vs ->
          Format.printf "%s: AGREEMENT VIOLATION@." name;
          List.iter (fun v -> Format.printf "  %s@." v) vs
      in
      let outcomes =
        if use_corpus then F.Agree.corpus_outcomes ~progress env
        else F.Agree.run_seeds ~progress env ~seed_base ~seeds ~depth ~profile ()
      in
      let s = F.Agree.summarize outcomes in
      Format.printf
        "agreement: %d program%s (%d statically clean, %d with dynamic hazards), %d violation%s@."
        s.programs
        (if s.programs = 1 then "" else "s")
        s.static_clean s.hazardous (List.length s.failed)
        (if List.length s.failed = 1 then "" else "s");
      if s.failed <> [] then exit 1)

(* --- cost -------------------------------------------------------------------- *)

let cost program_file run trace_file compaction_off =
  let file = match program_file with Some f -> f | None -> die "cost needs --program FILE" in
  let prog = load_program file in
  let report = L.Lint.analyze ~compaction:(not compaction_off) prog in
  Format.printf "%a" L.Cost.pp report.L.Lint.cost;
  let bound = report.L.Lint.cost.L.Cost.total_calls in
  let compare_observed ~source observed =
    Format.printf "observed transform calls (%s): %d, static bound: %d@." source observed bound;
    if observed > bound then begin
      Format.printf "BOUND EXCEEDED: the static model must dominate every run@.";
      exit 1
    end
  in
  (match (run, trace_file) with
  | true, Some _ -> die "cost takes --run or --trace, not both"
  | false, None -> ()
  | true, None ->
    F.Oracle.with_env (fun env ->
        let o = F.Agree.check_program env ~name:file prog in
        compare_observed ~source:"metered coop run" o.F.Agree.observed_calls)
  | false, Some t ->
    if not (Sys.file_exists t) then die "no such trace: %s" t;
    let model =
      match Sm_obs.Trace_model.of_file t with
      | model -> model
      | exception Sm_obs.Trace_jsonl.Decode_error msg -> die "%s: %s" t msg
    in
    let rows = Sm_obs.Attribution.of_model model in
    compare_observed ~source:"trace attribution" (Sm_obs.Attribution.transforms_observed rows))

(* --- cmdliner ---------------------------------------------------------------- *)

open Cmdliner

let exits =
  [ Cmd.Exit.info 0 ~doc:"clean — no gating findings (or all contracts held)"
  ; Cmd.Exit.info 1 ~doc:"dirty — unpinned errors/warnings, agreement violation, or bound exceeded"
  ; Cmd.Exit.info 2 ~doc:"usage error"
  ; Cmd.Exit.info 3 ~doc:"pinned-only — every gating finding is expected by a registry known issue"
  ]

let seed_conv =
  let parse s =
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "not a seed: %S (decimal or 0x hex)" s))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "0x%Lx" v)

let depth_arg =
  Arg.(value & opt int 3 & info [ "depth" ] ~docv:"D" ~doc:"Generator depth for seed-derived programs.")

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
            ~doc:"Fault vocabulary for seed-derived programs: comma list of validate, abort, sync, \
                  clone, any — or the presets det (default) and full."))

let check_cmd =
  let files = Arg.(value & pos_all string [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "check" ~exits ~doc:"Lint program artifacts (Program.to_string files).")
    Term.(const check $ files)

let seed_cmd =
  let seed_arg = Arg.(value & opt seed_conv 1L & info [ "seed" ] ~docv:"S" ~doc:"Program seed.") in
  Cmd.v
    (Cmd.info "seed" ~exits ~doc:"Lint the program a fuzzer seed denotes.")
    Term.(const seed $ seed_arg $ depth_arg $ faults_arg)

let corpus_cmd =
  Cmd.v
    (Cmd.info "corpus" ~exits ~doc:"Lint every pinned fuzz-corpus program.")
    Term.(const corpus $ const ())

let matrix_cmd =
  let ty_arg =
    Arg.(
      value & opt (some string) None
      & info [ "type" ] ~docv:"T" ~doc:"One registered op module (default: all).")
  in
  let mdepth_arg =
    Arg.(value & opt int 1 & info [ "depth" ] ~docv:"N" ~doc:"Enumeration budget for the derivation.")
  in
  Cmd.v
    (Cmd.info "matrix" ~exits
       ~doc:"Show the commutation matrices derived from the registered op modules.")
    Term.(const matrix $ ty_arg $ mdepth_arg)

let agree_cmd =
  let corpus_arg =
    Arg.(value & flag & info [ "corpus" ] ~doc:"Check the pinned corpus programs instead of generated seeds.")
  in
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"How many consecutive seeds to check.")
  in
  let seed_base_arg =
    Arg.(value & opt seed_conv 1L & info [ "seed-base" ] ~docv:"S" ~doc:"First seed.")
  in
  Cmd.v
    (Cmd.info "agree" ~exits
       ~doc:"Static/dynamic agreement harness: statically-clean programs must run DetSan-clean, \
             every dynamic hazard must have a static twin finding, and observed transform calls \
             must stay under the static bound.")
    Term.(const agree $ corpus_arg $ seeds_arg $ seed_base_arg $ depth_arg $ faults_arg)

let cost_cmd =
  let program_arg =
    Arg.(value & opt (some string) None & info [ "program" ] ~docv:"FILE" ~doc:"Program artifact to cost.")
  in
  let run_arg =
    Arg.(value & flag & info [ "run" ] ~doc:"Also execute one metered cooperative run and check the bound.")
  in
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Check the bound against a recorded trace's attribution (sm-trace attribute).")
  in
  let nocompact_arg =
    Arg.(value & flag & info [ "no-compaction" ] ~doc:"Model a compaction-off run (no journal ceilings).")
  in
  Cmd.v
    (Cmd.info "cost" ~exits
       ~doc:"Static transform-call and journal-byte upper bounds, optionally diffed against an \
             observed run or trace.")
    Term.(const cost $ program_arg $ run_arg $ trace_arg $ nocompact_arg)

let () =
  let info =
    Cmd.info "sm-lint" ~version:"%%VERSION%%" ~exits
      ~doc:"Static determinism and cost analyzer for Spawn/Merge programs."
  in
  exit (Cmd.eval (Cmd.group info [ check_cmd; seed_cmd; corpus_cmd; matrix_cmd; agree_cmd; cost_cmd ]))
