module Program = Sm_ir.Program
module Rng = Sm_util.Det_rng

type report =
  { seed : int64
  ; depth : int
  ; profile : Program.profile
  ; mutate : Sm_check.Mutate.kind option
  ; failure : Oracle.failure
  ; program : Program.t
  ; shrunk : Program.t
  ; shrink_steps : int
  ; lint : string option
  }

type outcome =
  | Passed
  | Failed of report

let program_of_seed ~seed ~depth ~profile =
  Program.generate (Rng.create ~seed) ~depth ~profile

let fuzz_one ?mutate ?runs ?(lint = false) env ~seed ~depth ~profile () =
  let program = program_of_seed ~seed ~depth ~profile in
  match Oracle.check ?mutate ?runs env program with
  | Ok () -> Passed
  | Error failure ->
    let focus = failure.Oracle.oracle in
    (* Shrink against the *failing* oracle only: one oracle per candidate
       keeps shrinking fast, and requiring the same oracle name means the
       minimized program witnesses the original bug, not a new one. *)
    let fails scripts =
      match
        Oracle.check ~focus ?mutate ~runs:2 env { Program.scripts = Array.of_list scripts }
      with
      | Error f -> f.Oracle.oracle = focus
      | Ok () -> false
      | exception _ -> false
    in
    let shrunk, shrink_steps =
      Sm_check.Shrink.minimize ~fails ~shrink_elt:Program.shrink_step
        (Array.to_list program.Program.scripts)
    in
    let shrunk = { Program.scripts = Array.of_list shrunk } in
    (* The static pre-pass verdict rides along in the report: a dynamic
       failure on a program sm-lint already flags (any-merge taint, pinned
       merge-order) triages very differently from one on a clean program. *)
    let lint =
      if lint then Some (Sm_lint.Lint.summary (Sm_lint.Lint.analyze shrunk)) else None
    in
    Failed { seed; depth; profile; mutate; failure; program; shrunk; shrink_steps; lint }

let mutate_name = function None -> "none" | Some k -> Sm_check.Mutate.to_string k

let pp_report ppf r =
  Format.fprintf ppf "sm-fuzz failure report v1@.";
  Format.fprintf ppf "seed: 0x%Lx@." r.seed;
  Format.fprintf ppf "depth: %d@." r.depth;
  Format.fprintf ppf "profile: %s@." (Program.profile_to_string r.profile);
  Format.fprintf ppf "mutate: %s@." (mutate_name r.mutate);
  Format.fprintf ppf "oracle: %s@." r.failure.Oracle.oracle;
  Format.fprintf ppf "detail: %s@." r.failure.Oracle.detail;
  Format.fprintf ppf "steps: %d -> %d (%d shrink moves)@." (Program.size r.program)
    (Program.size r.shrunk) r.shrink_steps;
  (match r.lint with
  | None -> ()
  | Some s ->
    Format.fprintf ppf "-- static analysis --@.";
    Format.fprintf ppf "sm-lint: %s@." s);
  Format.fprintf ppf "-- shrunk program --@.";
  Program.pp ppf r.shrunk

let report_to_string r = Format.asprintf "%a" pp_report r

(* The expected failure of a mutation run: the differential oracle caught
   the seeded transform bug.  Anything else is news. *)
let failure ?mutate ~report (f : Oracle.failure) =
  { Target.oracle = f.oracle
  ; detail = f.detail
  ; expected = Option.is_some mutate && f.oracle = "differential"
  ; report
  ; flight = []
  }

let check_program ?mutate ?runs env program =
  Result.map_error
    (fun f -> failure ?mutate ~report:(Program.to_string program) f)
    (Oracle.check ?mutate ?runs env program)

let target ?mutate ?runs ?lint env ~depth ~profile =
  let name =
    Printf.sprintf "spawn (depth %d, faults %s%s)" depth
      (Program.profile_to_string profile)
      (match mutate with None -> "" | Some k -> ", mutate " ^ Sm_check.Mutate.to_string k)
  in
  let check ~seed =
    match fuzz_one ?mutate ?runs ?lint env ~seed ~depth ~profile () with
    | Passed -> Ok ()
    | Failed r -> Error (failure ?mutate ~report:(report_to_string r) r.failure)
  in
  { Target.name; check }
