(* Record/replay of non-deterministic merges: a program whose result depends
   on MergeAny arrival order becomes reproducible when replayed against a
   recorded trace — the debugging story the paper's determinism argument
   promises, extended to explicitly non-deterministic code. *)

open Test_support
module R = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace
module Mlist = Sm_mergeable.Mlist.Make (Str_elt)

let kl = Mlist.key ~name:"replay-list"
let executor = lazy (Sm_core.Executor.create ())

(* Children race; the any-merge's arrival order decides the final list.
   [delays] perturbs the race without changing the program's structure;
   [drain] is the any-merge that empties the task, given all its handles. *)
let racy_program ~drain ~delays ctx =
  let ws = R.workspace ctx in
  Ws.init ws kl [];
  let handles =
    List.mapi
      (fun i d ->
        R.spawn ctx (fun child ->
            Thread.delay d;
            Mlist.append (R.workspace child) kl (Printf.sprintf "task-%d" i)))
      delays
  in
  let rec go () = match drain ctx handles with Some _ -> go () | None -> () in
  go ();
  Mlist.get ws kl

let merge_any ctx _ = R.merge_any ctx

(* Both any-merges record and replay; the replay tests run on each. *)
let drains =
  [ ("merge_any", merge_any); ("merge_any_from_set", fun ctx hs -> R.merge_any_from_set ctx hs) ]

let run ?record ?replay ?(drain = merge_any) delays =
  R.run ~executor:(Lazy.force executor) ?record ?replay (racy_program ~drain ~delays)

let replay_reproduces () =
  List.iter
    (fun (label, drain) ->
      let trace = R.Trace.create () in
      (* record with one timing... *)
      let recorded = run ~drain ~record:trace [ 0.008; 0.004; 0.0; 0.012 ] in
      Alcotest.(check int) (label ^ ": choices recorded") 4 (R.Trace.length trace);
      (* ...replay under the opposite timing: same result regardless *)
      let replayed = run ~drain ~replay:trace [ 0.0; 0.004; 0.012; 0.002 ] in
      Alcotest.(check (list string))
        (label ^ ": replay reproduces the recorded order")
        recorded replayed)
    drains

let trace_roundtrip () =
  let trace = R.Trace.create () in
  let recorded = run ~record:trace [ 0.003; 0.0; 0.006 ] in
  let wire = R.Trace.encode trace in
  let decoded = R.Trace.decode wire in
  Alcotest.(check int) "length survives" 3 (R.Trace.length decoded);
  let replayed = run ~replay:decoded [ 0.006; 0.003; 0.0 ] in
  Alcotest.(check (list string)) "decoded trace replays" recorded replayed;
  check_bool "malformed trace rejected"
    (match R.Trace.decode "\xff\xff\xff" with
    | (_ : R.Trace.t) -> false
    | exception Sm_util.Codec.Decode_error _ -> true)

let recording_does_not_disturb () =
  (* a deterministic program records an empty-or-not trace but must compute
     the same result as without recording *)
  let deterministic ctx =
    let ws = R.workspace ctx in
    Ws.init ws kl [];
    for i = 0 to 3 do
      ignore (R.spawn ctx (fun c -> Mlist.append (R.workspace c) kl (string_of_int i)))
    done;
    R.merge_all ctx;
    Mlist.get ws kl
  in
  let trace = R.Trace.create () in
  let a = R.run ~executor:(Lazy.force executor) ~record:trace deterministic in
  Alcotest.(check (list string)) "merge_all unaffected" [ "0"; "1"; "2"; "3" ] a;
  Alcotest.(check int) "merge_all records nothing" 0 (R.Trace.length trace)

let exhausted_trace_falls_back () =
  List.iter
    (fun (label, drain) ->
      let trace = R.Trace.create () in
      let first = run ~drain ~record:trace [ 0.002; 0.0 ] in
      Alcotest.(check int) (label ^ ": two recorded") 2 (R.Trace.length trace);
      (* replay a program with MORE children than the trace knows about: the
         recorded prefix is forced, the rest merges freely *)
      let bigger = run ~drain ~replay:trace [ 0.004; 0.0; 0.002 ] in
      Alcotest.(check int) (label ^ ": all three merged") 3 (List.length bigger);
      (* the recorded prefix is respected exactly *)
      Alcotest.(check (list string))
        (label ^ ": prefix preserved")
        first
        (List.filteri (fun i _ -> i < 2) bigger))
    drains

let suite =
  [ Alcotest.test_case "replay reproduces a racy run" `Quick replay_reproduces
  ; Alcotest.test_case "traces encode/decode" `Quick trace_roundtrip
  ; Alcotest.test_case "recording is transparent" `Quick recording_does_not_disturb
  ; Alcotest.test_case "exhausted trace falls back" `Quick exhausted_trace_falls_back
  ]
