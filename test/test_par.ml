(* Deterministic structured parallelism: order preservation, deterministic
   reduction of non-commutative combines, failure indexing, and composition
   with the mergeable workspace. *)

open Test_support
module R = Sm_core.Runtime
module Par = Sm_core.Par

let executor = lazy (Sm_core.Executor.create ())
let in_runtime f = R.run ~executor:(Lazy.force executor) f

let map_preserves_order () =
  let result = in_runtime (fun ctx -> Par.map ~chunks:3 ctx (fun x -> x * x) [ 1; 2; 3; 4; 5; 6; 7 ]) in
  Alcotest.(check (list int)) "squares in order" [ 1; 4; 9; 16; 25; 36; 49 ] result

let mapi_indices () =
  let result = in_runtime (fun ctx -> Par.mapi ~chunks:2 ctx (fun i x -> (i, x)) [ "a"; "b"; "c" ]) in
  Alcotest.(check (list (pair int string))) "indexed" [ (0, "a"); (1, "b"); (2, "c") ] result

let empty_and_degenerate () =
  in_runtime (fun ctx ->
      Alcotest.(check (list int)) "empty map" [] (Par.map ctx Fun.id []);
      Alcotest.(check (list int)) "singleton" [ 9 ] (Par.map ctx (fun x -> x + 1) [ 8 ]);
      Alcotest.(check (list int)) "more chunks than elements" [ 2; 3 ]
        (Par.map ~chunks:64 ctx (fun x -> x + 1) [ 1; 2 ]);
      Alcotest.(check (list int)) "one chunk" [ 2; 3; 4 ] (Par.map ~chunks:1 ctx (fun x -> x + 1) [ 1; 2; 3 ]);
      Alcotest.(check int) "reduce of empty is init" 42
        (Par.reduce ctx ~map:Fun.id ~combine:( + ) ~init:42 []);
      Alcotest.(check (list int)) "tabulate" [ 0; 2; 4 ] (Par.tabulate ctx 3 (fun i -> 2 * i));
      Alcotest.(check (list int)) "tabulate zero" [] (Par.tabulate ctx 0 (fun _ -> 0));
      check_bool "tabulate negative rejected"
        (match Par.tabulate ctx (-1) (fun _ -> 0) with
        | _ -> false
        | exception Invalid_argument _ -> true))

(* string concatenation is non-commutative: chunked parallel reduce must
   still equal the sequential left fold *)
let reduce_non_commutative () =
  let xs = List.init 23 (fun i -> String.make 1 (Char.chr (97 + (i mod 26)))) in
  let expected = List.fold_left ( ^ ) "" xs in
  List.iter
    (fun chunks ->
      let got = in_runtime (fun ctx -> Par.reduce ~chunks ctx ~map:Fun.id ~combine:( ^ ) ~init:"" xs) in
      Alcotest.(check string) (Printf.sprintf "chunks=%d" chunks) expected got)
    [ 1; 2; 5; 23; 64 ]

(* reduce forks through the same chunked fork/join as map, so each of its
   min chunks n children counts in par.chunk_tasks *)
let reduce_numeric () =
  let xs = List.init 100 (fun i -> i + 1) in
  let chunk_tasks = Sm_obs.Metrics.counter "par.chunk_tasks" in
  let saved = Sm_obs.Metrics.is_enabled () in
  Sm_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Sm_obs.Metrics.set_enabled saved) @@ fun () ->
  let before = Sm_obs.Metrics.value chunk_tasks in
  let got =
    in_runtime (fun ctx -> Par.reduce ~chunks:7 ctx ~map:(fun x -> x * x) ~combine:( + ) ~init:0 xs)
  in
  Alcotest.(check int) "sum of squares" 338350 got;
  Alcotest.(check int) "one chunk task per chunk" 7 (Sm_obs.Metrics.value chunk_tasks - before);
  let before = Sm_obs.Metrics.value chunk_tasks in
  ignore (in_runtime (fun ctx -> Par.reduce ctx ~map:Fun.id ~combine:( + ) ~init:0 [ 1; 2; 3 ]));
  Alcotest.(check int) "no more chunks than items" 3 (Sm_obs.Metrics.value chunk_tasks - before)

let both_runs_in_parallel () =
  let a, b =
    in_runtime (fun ctx ->
        Par.both ctx (fun () -> Sm_util.Sha1.hex "left") (fun () -> String.length "right"))
  in
  Alcotest.(check string) "left" (Sm_util.Sha1.hex "left") a;
  Alcotest.(check int) "right" 5 b

let failure_reports_lowest_index () =
  check_bool "lowest failing index"
    (match
       in_runtime (fun ctx ->
           Par.map ~chunks:4 ctx (fun x -> if x mod 5 = 0 then failwith "bad" else x) (List.init 20 Fun.id))
     with
    | _ -> false
    | exception Par.Worker_failure (0, Failure msg) -> msg = "bad"
    | exception Par.Worker_failure _ -> false);
  check_bool "failure in both"
    (match in_runtime (fun ctx -> Par.both ctx (fun () -> 1) (fun () -> failwith "snap")) with
    | _ -> false
    | exception Par.Worker_failure (1, Failure msg) -> msg = "snap"
    | exception _ -> false)

(* Par composes with workspace merging: the mapped results feed mergeable
   updates afterwards, all inside one runtime program. *)
module Mcounter = Sm_mergeable.Mcounter

let kc = Mcounter.key ~name:"par-counter"

let composes_with_workspace () =
  let total =
    in_runtime (fun ctx ->
        let ws = R.workspace ctx in
        Sm_mergeable.Workspace.init ws kc 0;
        let squares = Par.map ~chunks:4 ctx (fun x -> x * x) (List.init 10 Fun.id) in
        (* children that update the workspace, joined deterministically *)
        List.iter
          (fun v -> ignore (R.spawn ctx (fun c -> Mcounter.add (R.workspace c) kc v)))
          squares;
        R.merge_all ctx;
        Mcounter.get ws kc)
  in
  Alcotest.(check int) "sum of squares via merge" 285 total

let deterministic_under_noise =
  qtest ~count:30 "par pipelines deterministic"
    QCheck2.Gen.(pair (int_range 0 30) (int_range 1 6))
    (fun (n, chunks) ->
      let xs = List.init n Fun.id in
      let once () =
        in_runtime (fun ctx ->
            Par.reduce ~chunks ctx
              ~map:(fun x ->
                if x mod 3 = 0 then Thread.yield ();
                Printf.sprintf "%d." x)
              ~combine:( ^ ) ~init:"" xs)
      in
      once () = once ())

let suite =
  [ Alcotest.test_case "map preserves order" `Quick map_preserves_order
  ; Alcotest.test_case "mapi indices" `Quick mapi_indices
  ; Alcotest.test_case "degenerate shapes" `Quick empty_and_degenerate
  ; Alcotest.test_case "reduce: non-commutative combine" `Quick reduce_non_commutative
  ; Alcotest.test_case "reduce: sum of squares" `Quick reduce_numeric
  ; Alcotest.test_case "both" `Quick both_runs_in_parallel
  ; Alcotest.test_case "failures: lowest index, original exn" `Quick failure_reports_lowest_index
  ; Alcotest.test_case "composes with mergeable state" `Quick composes_with_workspace
  ; deterministic_under_noise
  ]
