module P = Sm_ir.Program
module L = Sm_lint

type outcome =
  { name : string
  ; program : P.t
  ; report : L.Lint.report
  ; hazards : string list
  ; observed_calls : int
  ; violations : string list
  }

(* One metered cooperative run: the observed ot.transform_calls the static
   bound must dominate.  Metrics are global; save/restore the enable flag so
   the harness composes with callers that profile. *)
let observed_transform_calls keys prog =
  let was = Sm_obs.Metrics.is_enabled () in
  Fun.protect
    ~finally:(fun () -> Sm_obs.Metrics.set_enabled was)
    (fun () ->
      Sm_obs.Metrics.set_enabled true;
      let before = Sm_obs.Metrics.value Sm_ot.Control.transform_calls in
      ignore (Oracle.coop_digest keys prog);
      Sm_obs.Metrics.value Sm_ot.Control.transform_calls - before)

let check_program (env : Oracle.env) ?(name = "program") prog =
  let report = L.Lint.analyze prog in
  let keys = Interp.Keyset.default () in
  let hazards =
    let hs, _digest =
      Sm_check.Detsan.run ~executor:(Oracle.threaded_executor env) (Interp.run keys prog)
    in
    List.sort_uniq compare (List.map Sm_check.Detsan.hazard_tag hs)
  in
  let observed_calls = observed_transform_calls keys prog in
  let violations = ref [] in
  let add fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  (* soundness: a statically-clean program must be DetSan-clean *)
  if L.Finding.guarantees_detsan_clean report.L.Lint.findings && hazards <> [] then
    add "statically clean but DetSan reported: %s" (String.concat ", " hazards);
  (* completeness: every dynamic hazard needs a static twin finding *)
  List.iter
    (fun tag ->
      if not (L.Finding.covers_hazard report.L.Lint.findings ~tag) then
        add "dynamic hazard %s has no static twin finding" tag)
    hazards;
  (* the cost model is an upper bound on any run *)
  if observed_calls > report.L.Lint.cost.L.Cost.total_calls then
    add "observed %d transform calls > static bound %d" observed_calls
      report.L.Lint.cost.L.Cost.total_calls;
  { name; program = prog; report; hazards; observed_calls; violations = List.rev !violations }

type summary =
  { programs : int
  ; static_clean : int  (** programs whose findings guarantee DetSan-clean *)
  ; hazardous : int  (** programs with at least one dynamic hazard *)
  ; failed : outcome list  (** outcomes with violations, run order *)
  }

let summarize outcomes =
  { programs = List.length outcomes
  ; static_clean =
      List.length
        (List.filter
           (fun o -> L.Finding.guarantees_detsan_clean o.report.L.Lint.findings)
           outcomes)
  ; hazardous = List.length (List.filter (fun o -> o.hazards <> []) outcomes)
  ; failed = List.filter (fun o -> o.violations <> []) outcomes
  }

let run_seeds ?(progress = fun ~name:_ _ -> ()) env ~seed_base ~seeds ~depth ~profile () =
  let outcomes = ref [] in
  for i = 0 to seeds - 1 do
    let seed = Int64.add seed_base (Int64.of_int i) in
    let prog = Fuzzer.program_of_seed ~seed ~depth ~profile in
    let name = Printf.sprintf "seed-0x%Lx" seed in
    let o = check_program env ~name prog in
    progress ~name o;
    outcomes := o :: !outcomes
  done;
  List.rev !outcomes

let corpus_outcomes ?progress env =
  List.map
    (fun (e : Corpus.entry) ->
      let prog = Fuzzer.program_of_seed ~seed:e.Corpus.seed ~depth:e.Corpus.depth ~profile:e.Corpus.profile in
      let o = check_program env ~name:e.Corpus.name prog in
      (match progress with None -> () | Some f -> f ~name:e.Corpus.name o);
      o)
    Corpus.all
