(* Greedy minimization: first-improvement hill climbing to a fixpoint — not
   optimal, but counterexamples here start small (bounded enumeration,
   seeded fuzz programs and scenarios) and the point is a 2-op report
   instead of a 2-sequence wall of ops. *)

let greedy ?(max_steps = 500) ~fails ~candidates x =
  let steps = ref 0 in
  let rec go x =
    if !steps >= max_steps then x
    else
      match List.find_opt fails (candidates x) with
      | Some smaller ->
        incr steps;
        go smaller
      | None -> x
  in
  let result = go x in
  (result, !steps)

(* A scenario is a list of operation sequences (parent ops, left child,
   right child, grandchild — or one script per fuzz task). *)

let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

let replace_nth xs n x = List.mapi (fun i y -> if i = n then x else y) xs

(* Every scenario obtained by dropping a single element from a single
   sequence. *)
let drops scenario =
  List.concat
    (List.mapi
       (fun si seq -> List.mapi (fun oi _ -> replace_nth scenario si (drop_nth seq oi)) seq)
       scenario)

(* Every scenario obtained by replacing a single element with one of its
   shrink candidates. *)
let replacements ~shrink_elt scenario =
  List.concat
    (List.mapi
       (fun si seq ->
         List.concat
           (List.mapi
              (fun oi op ->
                List.map (fun op' -> replace_nth scenario si (replace_nth seq oi op')) (shrink_elt op))
              seq))
       scenario)

(* Drops first: removing an op is a bigger win than shrinking one, and drops
   strictly reduce size so they cannot cycle. *)
let minimize ?max_steps ~fails ~shrink_elt scenario =
  greedy ?max_steps ~fails
    ~candidates:(fun s -> drops s @ replacements ~shrink_elt s)
    scenario
