(** The static/dynamic agreement harness — the cross-validation contract
    between [sm-lint] and the dynamic toolchain.

    For each program, three claims are checked against one real execution:

    - {b soundness}: if the lint findings
      {!Sm_lint.Finding.guarantees_detsan_clean}, a {!Sm_check.Detsan} run
      must report zero hazards;
    - {b completeness}: every DetSan hazard tag observed dynamically must be
      covered by some finding's twin class;
    - {b cost}: the observed [ot.transform_calls] of a metered cooperative
      run must not exceed the static {!Sm_lint.Cost} bound.

    Any violated claim is a harness failure — the gate CI runs over the
    pinned corpus and hundreds of generated seeds. *)

type outcome =
  { name : string
  ; program : Sm_ir.Program.t
  ; report : Sm_lint.Lint.report
  ; hazards : string list  (** deduplicated DetSan tags from one threaded run *)
  ; observed_calls : int  (** ot.transform_calls of one metered coop run *)
  ; violations : string list  (** empty = the contracts held *)
  }

val check_program : Oracle.env -> ?name:string -> Sm_ir.Program.t -> outcome

type summary =
  { programs : int
  ; static_clean : int
  ; hazardous : int
  ; failed : outcome list
  }

val summarize : outcome list -> summary

val run_seeds :
  ?progress:(name:string -> outcome -> unit) ->
  Oracle.env ->
  seed_base:int64 ->
  seeds:int ->
  depth:int ->
  profile:Sm_ir.Program.profile ->
  unit ->
  outcome list
(** Generated programs for seeds [seed_base .. seed_base + seeds - 1]. *)

val corpus_outcomes : ?progress:(name:string -> outcome -> unit) -> Oracle.env -> outcome list
(** Every pinned {!Corpus} entry's program (the clean ones and the
    mutation-catching ones — mutations affect the data plane, not the
    program, so the same IR is linted either way). *)
