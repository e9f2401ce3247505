(** Greedy counterexample minimization. *)

val greedy :
  ?max_steps:int -> fails:('a -> bool) -> candidates:('a -> 'a list) -> 'a -> 'a * int
(** [greedy ~fails ~candidates x] hill-climbs from [x]: it moves to the
    first of [candidates x] on which [fails] holds and repeats until no
    candidate fails; returns the fixpoint and the number of accepted moves.
    [fails] must return [false] (not raise) on candidates it considers
    invalid.  [candidates] should be well-founded; [max_steps] (default 500)
    is the backstop if it is not.  [x] itself is expected to fail — the
    result is only meaningful under that contract. *)

val minimize :
  ?max_steps:int ->
  fails:('a list list -> bool) ->
  shrink_elt:('a -> 'a list) ->
  'a list list ->
  'a list list * int
(** {!greedy} over scenarios (lists of operation sequences): the candidates
    drop a single operation anywhere, then replace a single operation with
    one of its [shrink_elt] candidates. *)
