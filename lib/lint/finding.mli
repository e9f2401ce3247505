(** Lint findings: the static twins of DetSan's dynamic hazard classes, plus
    the analyses only a static pass can do (merge-order dependence, conflict
    and cost prediction).

    Severity encodes the soundness contract with DetSan ({!Sm_check.Detsan}):

    - {b Error} — the program can be dynamically non-deterministic; every
      error class carries the DetSan hazard tag it twins ([twin]), and a
      program with no errors is guaranteed DetSan-clean (checked by the
      agreement harness, {!Sm_fuzz.Agree}).
    - {b Warning} — deterministic but order-defined behavior (e.g. a
      [MergeAllFromSet] whose outcome depends on the set order).  A registry
      known issue can {e pin} a warning (e.g. ["queue-push-order"]), turning
      it into an expected finding.
    - {b Note} — advisory: cost, structure, dead code.  Notes never gate. *)

type severity =
  | Error
  | Warning
  | Note

val severity_name : severity -> string

type t =
  { cls : string  (** stable class tag, see {!classes} *)
  ; severity : severity
  ; task : int  (** script index; [-1] for program-level findings *)
  ; step : int  (** step index within the script; [-1] for task-level *)
  ; detail : string
  ; provenance : string list  (** DetSan-style chain, hazard site to root digest *)
  ; pinned : string option  (** registry known-issue id when expected *)
  ; twin : string option  (** DetSan hazard tag this class twins, if any *)
  }

val classes : (string * severity * string option * string) list
(** Every finding class: tag, default severity, DetSan twin tag, one-line doc. *)

val class_twin : string -> string option

val make :
  ?severity_override:severity ->
  ?provenance:string list ->
  ?pinned:string ->
  cls:string ->
  task:int ->
  step:int ->
  string ->
  t

val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit

(** {1 Verdicts} *)

type verdict =
  | Clean  (** no errors or warnings (notes allowed) *)
  | Pinned_only  (** errors/warnings present but every one pinned by a known issue *)
  | Dirty  (** at least one unpinned error or warning *)

val verdict_name : verdict -> string
val verdict : t list -> verdict

val verdict_exit_code : verdict -> int
(** The CLI convention: 0 clean, 1 dirty, 3 pinned-only. *)

val guarantees_detsan_clean : t list -> bool
(** No error-severity finding with a dynamic twin: the static promise that
    every DetSan run of the program reports no hazards. *)

val covers_hazard : t list -> tag:string -> bool
(** Some finding twins the given DetSan hazard tag — the completeness
    direction of the agreement contract. *)
