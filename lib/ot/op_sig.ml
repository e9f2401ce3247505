(** Signatures shared by all operation types of the OT substrate.

    Every mergeable data structure is described by a module of type {!S}: a
    state, an operation type, an interpreter [apply], and an inclusion
    transform [transform].  The transformation control algorithm
    ({!module:Control}) and the Spawn/Merge runtime are parametric in {!S}. *)

(** Element of a container (list, queue, ...). *)
module type ELT = sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** Element with a total order (sets, map keys). *)
module type ORDERED_ELT = sig
  include ELT

  val compare : t -> t -> int
end

(** An operation type together with its interpreter and inclusion transform. *)
module type S = sig
  type state
  type op

  val apply : state -> op -> state
  (** [apply s op] interprets [op] on [s].  States are persistent: the input
      is never mutated.  Operations produced by user-facing accessors against
      the current state are always in range; [apply] raises
      [Invalid_argument] on positions that no correct transform can produce,
      which turns transformation bugs into loud failures. *)

  val transform : op -> against:op -> tie:Side.policy -> op list
  (** [transform a ~against:b ~tie] is the inclusion transform IT(a, b): it
      rewrites [a] — defined on the same state as [b] — so that the result
      applies {e after} [b] while preserving [a]'s intention.  The result is
      a list because an operation can be split (a range delete around a
      concurrent insert) or dropped entirely (deleting an element someone
      already deleted).  [tie] resolves direct conflicts; see {!Side}. *)

  val compact : op list -> op list
  (** Normalize a {e sequential} journal (each op defined on its
      predecessor's output) to an equivalent, usually shorter one:
      [apply_seq s (compact ops) = apply_seq s ops] for every state [s] on
      which [ops] is valid.  Rewrites must be state-independent (adjacent
      coalescing, last-writer-wins, cancellation) so the claim holds on the
      child's state {e and} on any state a concurrent merge produces —
      lib/check's Compact property verifies exactly that, including that
      compacted and raw journals transform to the same merged result.
      Identity is always sound ({!Default}). *)

  val commutes : op -> op -> bool
  (** Conservative hint for the control algorithm's fast path: [commutes a b]
      promises [transform a ~against:b ~tie = [a]] {e and}
      [transform b ~against:a ~tie = [b]] under {e every} tie policy, so the
      pair's cross can be skipped without changing the result sequences.
      [false] is always sound ({!Default}); lib/check verifies the promise
      against the real transform. *)

  val equal_state : state -> state -> bool

  val pp_state : Format.formatter -> state -> unit
  val pp_op : Format.formatter -> op -> unit
end

(** Sound do-nothing implementations of the optional-strength members of
    {!S}, for operation modules that predate journal compaction (or whose
    semantics admit no state-independent rewrite): [include Op_sig.Default]
    after defining [op] and every property checked by lib/check holds
    vacuously. *)
module Default = struct
  let compact ops = ops
  let commutes _ _ = false
end

(** The int and string elements shared by every instantiation in the
    library, with the codecs the wire layer needs.  Their printers feed
    workspace digests, so they stay [Format.pp_print_int] and ["%S"]. *)
module Int_elt = struct
  type t = int

  let equal = Int.equal
  let compare = Int.compare
  let pp = Format.pp_print_int
  let codec = Sm_util.Codec.int
end

module String_elt = struct
  type t = string

  let equal = String.equal
  let compare = String.compare
  let pp ppf s = Format.fprintf ppf "%S" s
  let codec = Sm_util.Codec.string
end
