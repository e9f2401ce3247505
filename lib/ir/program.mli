(** The Spawn/Merge program IR: a first-class, replayable representation of a
    spawn tree, shared by the fuzzer ({!Sm_fuzz}), the static analyzer
    ({!Sm_lint}) and anything that wants to hand-author a scenario.

    A program is an array of {e scripts}; script 0 is the root task's body
    and a [Spawn]/[Clone] step starts a task running a strictly
    higher-indexed script, so the spawn graph is acyclic by construction and
    nesting depth is bounded by the script count.  Every step is {e total}:
    payload integers are interpreted modulo whatever bound the current state
    imposes (positions, child counts, subset masks), so any program — fuzzer
    generated, shrunk, or hand written — executes without precondition.

    Programs print to (and parse from) a small line-oriented text format, so
    a failure artifact is replayable with [sm-fuzz replay --program FILE],
    lintable with [sm-lint check FILE], and a seed plus generator config
    reproduces the same program forever ({!generate} draws only from the
    given {!Sm_util.Det_rng}). *)

(** The nine mergeable types under fuzz. *)
type ty =
  | Counter
  | Register
  | Text
  | List
  | Set
  | Map
  | Queue
  | Stack
  | Tree

val all_types : ty list
val ty_name : ty -> string
val ty_of_name : string -> ty option

type op_spec =
  { ty : ty
  ; sel : int  (** op-constructor selector, interpreted mod the type's arity *)
  ; a : int  (** first payload knob (position / element / path seed) *)
  ; b : int  (** second payload knob (value / length / label seed) *)
  }

type merge_kind =
  | All  (** [merge_all] — deterministic *)
  | All_set  (** [merge_all_from_set] over a bitmask subset — deterministic *)
  | Any  (** [merge_any] — explicitly non-deterministic *)
  | Any_set  (** [merge_any_from_set] over a bitmask subset *)

val merge_kind_name : merge_kind -> string

type step =
  | Op of op_spec
  | Spawn of int  (** spawn a child running script {!resolve_target} *)
  | Merge of
      { kind : merge_kind
      ; sel : int  (** live-children bitmask for the [_set] variants *)
      ; validate : int  (** 0: none; [v > 0]: reject when counter % (2 + (v-1) mod 3) = 0 *)
      }
  | Sync  (** park for the parent's merge (skipped in the root script) *)
  | Clone of int  (** sibling running a higher script (skipped unless pristine) *)
  | Abort of int  (** abort live child [i mod n] (skipped with no children) *)
  | Mint of int
      (** mint a fresh workspace key mid-run — the static twin of DetSan's
          key-in-task hazard.  Fixture-only: {!generate} never emits it, so
          generated corpora stay detsan-clean. *)

type t = { scripts : step list array }

val size : t -> int
(** Total steps across all scripts — the measure the shrinker minimizes. *)

val uses_any_merge : t -> bool
(** Some [Merge] has kind [Any] or [Any_set]: the program opted into
    non-determinism and digest-equality oracles do not apply. *)

val uses_clone : t -> bool
(** Record/replay of merge choices requires a reproducible task tree, which
    racing clones break; the replay oracle skips these programs. *)

val uses_mint : t -> bool
(** Some script mints a key mid-run: a hand-written hazard fixture. *)

val resolve_target : nscripts:int -> idx:int -> int -> int option
(** [resolve_target ~nscripts ~idx j] is the script a [Spawn j]/[Clone j]
    in script [idx] starts: [idx + 1 + (j mod (nscripts - idx - 1))], or
    [None] when [idx] is the last script (the step is skipped).  One shared
    definition keeps the interpreter and the static analyzer looking at the
    same spawn tree. *)

val well_formed : t -> (unit, string) result
(** At least one task and no negative payload integers (the codec parses
    negative literals but the interpreter's modular reductions assume
    non-negative inputs) — the gate for hand-authored programs. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Canonical text form; [of_string (to_string p) = p]. *)

val of_string : string -> t
(** @raise Invalid_argument on malformed input, with a line diagnostic. *)

(** {1 Generation} *)

type profile =
  { allow_validate : bool
  ; allow_abort : bool
  ; allow_sync : bool
  ; allow_clone : bool
  ; allow_any : bool  (** generate [Any]/[Any_set] merges *)
  }

val det_profile : profile
(** validate + abort + sync on; clone and any-merges off — the profile whose
    programs must satisfy every determinism oracle. *)

val full_profile : profile

val profile_to_string : profile -> string
(** Canonical comma-separated fault list (["none"] when all off) — what
    [sm-fuzz --faults] parses and failure reports echo. *)

val profile_of_string : string -> profile option
(** Parses {!profile_to_string}'s form, plus the presets ["det"]
    ({!det_profile}) and ["full"] ({!full_profile}). *)

val generate : Sm_util.Det_rng.t -> depth:int -> profile:profile -> t
(** Draw a program: [2 .. 2*depth+1] scripts of [2 .. depth+5] steps, spawn
    fan-out capped at 2 per script (so worst-case task count stays bounded),
    root script guaranteed to spawn when more than one script exists. *)

val shrink_step : step -> step list
(** Well-founded single-step shrink candidates (payloads toward 0, any-merges
    toward deterministic ones, clones toward spawns) — fed to
    {!Sm_check.Shrink.minimize} together with step dropping.  Candidates of a
    well-formed step are well-formed. *)
