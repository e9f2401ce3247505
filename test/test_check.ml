(* lib/check self-tests: the shrinker, the seeded transform mutations, and
   the registry plumbing.  The point of a checker is that it catches bugs —
   so these tests inject bugs (Mutate) and assert the checker finds them and
   minimizes the evidence. *)

open Test_support
module Check = Sm_check
module Report = Sm_check.Report

let find name =
  match Check.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "%s not in the check registry" name

let mutated name kind = Check.Registry.run ~mutation:kind ~depth:2 (find name)

let cex_of (r : Report.t) =
  match r.verdict with
  | Report.Fail cex -> cex
  | Report.Pass -> Alcotest.failf "%s: expected a violation, got PASS" r.name

(* --- the generic shrinker -------------------------------------------------- *)

(* fails = "some op > 2 survives": minimization must land on exactly one op,
   and shrink_elt (decrement) must stop at 3 — the smallest failing value. *)
let shrink_converges () =
  let scenario = [ [ 1; 2; 3 ]; [ 4 ]; []; [ 5 ] ] in
  let fails s = List.exists (fun seq -> List.exists (fun n -> n > 2) seq) s in
  let shrink_elt n = if n > 0 then [ n - 1 ] else [] in
  let small, steps = Check.Shrink.minimize ~fails ~shrink_elt scenario in
  check_bool "still fails" (fails small);
  check_bool "one op left" (List.length (List.concat small) = 1);
  check_bool "op shrunk to the boundary" (List.concat small = [ 3 ]);
  check_bool "took steps" (steps > 0);
  check_bool "shape preserved" (List.length small = 4)

let shrink_respects_max_steps () =
  (* non-well-founded shrink_elt: the backstop must terminate the loop *)
  let scenario = [ [ 10 ]; []; []; [] ] in
  let fails s = s <> [ []; []; []; [] ] in
  let shrink_elt n = [ n ] in
  (* always "smaller", never progresses *)
  let _small, steps = Check.Shrink.minimize ~max_steps:7 ~fails ~shrink_elt scenario in
  check_bool "bounded" (steps <= 7)

(* --- seeded mutations are caught and minimized ----------------------------- *)

(* Tie_bias forces every tie to Incoming regardless of policy, so both sides
   of a concurrent insert/insert tie think they won: the canonical TP1 bug.
   ISSUE 3 satellite: the minimized counterexample must be tiny (<= 3 ops). *)
let tie_bias_on_lists () =
  let r = mutated "mlist" Check.Mutate.Tie_bias in
  check_bool "caught" (not (Report.passed r));
  let cex = cex_of r in
  check_bool "minimized to <= 3 ops" (cex.ops_total <= 3);
  check_bool "pairwise property" (cex.property = Report.Tp1 || cex.property = Report.Cross)

let identity_on_lists () =
  let r = mutated "mlist" Check.Mutate.Identity in
  check_bool "caught" (not (Report.passed r));
  check_bool "minimized to <= 3 ops" ((cex_of r).ops_total <= 3)

let drop_last_on_lists () =
  let r = mutated "mlist" Check.Mutate.Drop_last in
  check_bool "caught" (not (Report.passed r))

(* Reverse only bites where a transform returns multiple ops: text deletes
   split around a concurrent insert inside their range. *)
let reverse_on_text () =
  let r = mutated "mtext" Check.Mutate.Reverse in
  check_bool "caught" (not (Report.passed r))

(* A mutation is not guaranteed to bite: counter adds are tie-free, so
   Tie_bias must NOT produce a violation there — the checker reports honest
   passes on mutants that happen to be semantics-preserving. *)
let tie_bias_harmless_on_counter () =
  let r = mutated "mcounter" Check.Mutate.Tie_bias in
  check_bool "counter is tie-free" (Report.passed r)

(* Mutated runs never consult the known-issue list: mqueue's expected TP1
   divergence must come back as a hard FAIL under Identity (which leaves
   the queue's real transform intact — it already is the identity — so the
   same push/push violation surfaces, now unexcused). *)
let mutation_ignores_known_issues () =
  let r = mutated "mqueue" Check.Mutate.Identity in
  check_bool "no XFAIL excuse for mutants" (not (Report.passed r));
  check_bool "expected not set" (r.expected = None)

(* --- shrinking preserves the failing property ------------------------------ *)

(* Drive Checker.Make directly over a mutated module: the raw counterexample
   must still fail after minimize (holds = false), which is the shrinker's
   contract — it may only move to scenarios on which the property still
   fails. *)
module Bad_list = (val Check.Mutate.wrap Check.Mutate.Tie_bias (module Check.Instances.List_e))
module Bad_checker = Check.Checker.Make (Bad_list)

let shrink_preserves_failure () =
  match Bad_checker.check ~depth:2 () with
  | Ok _ -> Alcotest.fail "tie-biased list transform must fail"
  | Error (_, cex) ->
    let ops (c : Bad_checker.cex) =
      List.length c.applied + List.length c.left + List.length c.right + List.length c.nested
    in
    check_bool "minimized cex still violates the property" (not (Bad_checker.holds cex));
    check_bool "re-minimizing is a fixpoint" (ops (Bad_checker.minimize cex) = ops cex)

(* --- registry plumbing ----------------------------------------------------- *)

let lenient_lookup () =
  List.iter
    (fun spelling ->
      match Check.Registry.find spelling with
      | Some e -> check_bool spelling (Check.Registry.name e = "mtext")
      | None -> Alcotest.failf "lookup %S failed" spelling)
    [ "mtext"; "text"; "Op_text"; "TEXT" ];
  check_bool "unknown is None" (Check.Registry.find "nope" = None)

(* The paper's extension point: a user-defined module registers and is
   checked like the built-ins — including its documented expected failure. *)
module Always_left = struct
  include Check.Instances.Counter

  let name = "alwaysleft"

  (* deliberately broken: drops the incoming op entirely *)
  let transform _a ~against:_ ~tie:_ = []

  (* the counter's [commutes _ _ = true] would promise identity transforms
     that this broken [transform] does not deliver; withdraw the hint so the
     fixture fails only the two excused properties *)
  let commutes _ _ = false
end

let register_and_xfail () =
  let before = List.length (Check.Registry.all ()) in
  (* the fixture breaks both pairwise properties, and — since compaction
     soundness presumes a lawful transform — compaction equivalence too
     (a sum-zero chain compacts to an empty journal, changing what the
     broken transform drops); with skip-and-continue, each failing
     property needs its own excuse or the next one fails the gate *)
  Check.Registry.register
    ~known:
      (List.map
         (fun property ->
           { Check.Registry.id = "always-left"
           ; property
           ; reason = "test fixture: drops incoming ops by design"
           })
         [ Report.Tp1; Report.Cross; Report.Compact ])
    (module Always_left : Check.Enum.S);
  let e = find "alwaysleft" in
  let r = Check.Registry.run ~depth:1 e in
  check_bool "registered" (List.length (Check.Registry.all ()) = before + 1);
  check_bool "violation found" (r.verdict <> Report.Pass);
  check_bool "excused by the known issue" (Report.passed r);
  match r.expected with
  | Some reason -> check_bool "carries the reason" (String.length reason > 0)
  | None -> Alcotest.fail "expected reason missing"

(* The shrinker is generic in the value: halve an int while it stays >= 7.
   100 -> 50 -> 25 -> 12, and 6 no longer fails, so 12 is the fixpoint. *)
let greedy_on_ints () =
  let fails n = n >= 7 in
  let candidates n = if n > 0 then [ n / 2 ] else [] in
  Alcotest.(check (pair int int))
    "fixpoint and step count" (12, 3)
    (Check.Shrink.greedy ~fails ~candidates 100);
  Alcotest.(check (pair int int))
    "max_steps stops the climb" (25, 2)
    (Check.Shrink.greedy ~max_steps:2 ~fails ~candidates 100)

let suite =
  [ Alcotest.test_case "shrink: converges to the boundary" `Quick shrink_converges
  ; Alcotest.test_case "shrink: max_steps backstop" `Quick shrink_respects_max_steps
  ; Alcotest.test_case "mutation: tie-bias on lists, cex <= 3 ops" `Quick tie_bias_on_lists
  ; Alcotest.test_case "mutation: identity on lists" `Quick identity_on_lists
  ; Alcotest.test_case "mutation: drop-last on lists" `Quick drop_last_on_lists
  ; Alcotest.test_case "mutation: reverse on text" `Quick reverse_on_text
  ; Alcotest.test_case "mutation: tie-bias harmless on counter" `Quick tie_bias_harmless_on_counter
  ; Alcotest.test_case "mutation: known issues do not excuse mutants" `Quick
      mutation_ignores_known_issues
  ; Alcotest.test_case "shrink preserves the failing property" `Quick shrink_preserves_failure
  ; Alcotest.test_case "registry: lenient lookup" `Quick lenient_lookup
  ; Alcotest.test_case "registry: user module registers and XFAILs" `Quick register_and_xfail
  ; Alcotest.test_case "shrink: greedy on a non-list value" `Quick greedy_on_ints
  ]
