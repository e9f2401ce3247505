(** The spawn-tree target: seed → program → oracles → shrink → replayable
    report.

    Everything here is a pure function of its parameters: {!program_of_seed}
    derives the program from the seed alone, the oracles are deterministic,
    and shrinking is greedy first-improvement over a deterministic candidate
    order — so {!fuzz_one} on the same inputs produces the same outcome, and
    a failure report replays byte-for-byte from its header
    ([sm-fuzz replay --seed S] asserts exactly that). *)

type report =
  { seed : int64
  ; depth : int
  ; profile : Sm_ir.Program.profile
  ; mutate : Sm_check.Mutate.kind option
  ; failure : Oracle.failure  (** the original program's first failure *)
  ; program : Sm_ir.Program.t  (** as generated *)
  ; shrunk : Sm_ir.Program.t  (** minimized, still failing [failure.oracle] *)
  ; shrink_steps : int  (** accepted shrink moves *)
  ; lint : string option
    (** {!Sm_lint.Lint.summary} of the shrunk program when the run was
        started with [~lint:true] — the static pre-pass verdict that
        triages the dynamic failure (flagged-as-nondeterministic vs
        statically clean). *)
  }

type outcome =
  | Passed
  | Failed of report

val program_of_seed : seed:int64 -> depth:int -> profile:Sm_ir.Program.profile -> Sm_ir.Program.t
(** The program seed [seed] denotes: a fresh {!Sm_util.Det_rng} fed to
    {!Sm_ir.Program.generate}. *)

val fuzz_one :
  ?mutate:Sm_check.Mutate.kind ->
  ?runs:int ->
  ?lint:bool ->
  Oracle.env ->
  seed:int64 ->
  depth:int ->
  profile:Sm_ir.Program.profile ->
  unit ->
  outcome
(** Generate, check every oracle, and on failure shrink with
    {!Sm_check.Shrink.minimize} focused on the failing oracle (candidates
    that fail a {e different} oracle are rejected, so the report's program
    still witnesses the original failure). *)

val report_to_string : report -> string
(** The canonical replay artifact: a deterministic text header
    (seed/depth/profile/mutate/oracle/detail/sizes) followed by the shrunk
    program in {!Sm_ir.Program.to_string} form. *)

val pp_report : Format.formatter -> report -> unit

val check_program :
  ?mutate:Sm_check.Mutate.kind ->
  ?runs:int ->
  Oracle.env ->
  Sm_ir.Program.t ->
  (unit, Target.failure) result
(** {!Oracle.check} one program, unshrunk; a failure's report is the
    program text.  With [mutate], a differential failure is expected. *)

val target :
  ?mutate:Sm_check.Mutate.kind ->
  ?runs:int ->
  ?lint:bool ->
  Oracle.env ->
  depth:int ->
  profile:Sm_ir.Program.profile ->
  Target.t
(** {!fuzz_one} as a fuzz target: a failure carries {!report_to_string} and
    is expected exactly when [mutate] is given and the differential oracle
    caught it. *)
