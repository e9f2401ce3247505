(** Rendered outcomes of a {!Checker} run — everything the CLI and the
    registry need, with states and operations already pretty-printed so no
    type information escapes the per-module functor. *)

type property =
  | Tp1  (** pairwise convergence under an explicit tie winner *)
  | Cross  (** sequence convergence through {!Sm_ot.Control.Make.cross} *)
  | Merge_order
      (** {!Sm_mergeable.Workspace.merge_child} over two concurrent children
          agrees with the pure control algorithm and digests identically on
          recomputation *)
  | Merge_nested
      (** a three-level task tree (parent / child / grandchild) merged
          stepwise through the workspace agrees with the flattened
          control-algorithm merge *)
  | Compact
      (** [compact] produces an apply-equivalent journal on every enumerated
          state; workspace merges through a compacting key and an
          {!Uncompacted} key of the same name yield equal states and
          digests; and [commutes a b] implies [transform] is the
          identity in both directions under every tie policy (the contract
          the {!Sm_ot.Control.Make} fast paths rely on) *)

val property_name : property -> string
val property_doc : property -> string

type counts =
  { mutable tp1 : int
  ; mutable cross : int
  ; mutable merge_order : int
  ; mutable merge_nested : int
  ; mutable compact : int
  }

val zero_counts : unit -> counts
val total : counts -> int

type counterexample =
  { property : property
  ; state : string
  ; applied : string list
  ; left : string list
  ; right : string list
  ; nested : string list
  ; selector : string
  ; exn : string option
  ; ops_total : int
  ; shrink_steps : int
  ; detail : string
  }

type verdict =
  | Pass
  | Fail of counterexample

type t =
  { name : string
  ; depth : int
  ; counts : counts
  ; verdict : verdict
  ; expected : string option
  }

val passed : t -> bool
(** [Pass], or a failure documented as expected in the registry. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
val pp : Format.formatter -> t -> unit
