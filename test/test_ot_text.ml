(* Text OT: pinned range-transform cases (including the one-to-many split)
   plus randomized TP1 / sequence convergence.  States go through
   [T.of_string], so the whole suite runs against whichever representation
   the SM_ROPE switch selects; the error-message parity case pins both
   representations explicitly. *)

open Test_support
module T = Sm_ot.Op_text
module Conv = Sm_ot.Convergence.Make (T)

let ops = Alcotest.(list (testable T.pp_op ( = )))
let apply_s s op = T.to_string (T.apply (T.of_string s) op)

let apply_cases () =
  Alcotest.(check string) "ins" "heXYllo" (apply_s "hello" (T.ins 2 "XY"));
  Alcotest.(check string) "ins front" "XYhello" (apply_s "hello" (T.ins 0 "XY"));
  Alcotest.(check string) "ins back" "helloXY" (apply_s "hello" (T.ins 5 "XY"));
  Alcotest.(check string) "del" "heo" (apply_s "hello" (T.del ~pos:2 ~len:2));
  Alcotest.check_raises "ins out of range"
    (Invalid_argument "Op_text.apply: ins position 6 out of range (len 5)") (fun () ->
      ignore (apply_s "hello" (T.ins 6 "x")));
  Alcotest.check_raises "del out of range"
    (Invalid_argument "Op_text.apply: del range [4,6) out of range (len 5)") (fun () ->
      ignore (apply_s "hello" (T.Del (4, 2))));
  Alcotest.check_raises "del constructor rejects zero length"
    (Invalid_argument "Op_text.del: len must be positive") (fun () -> ignore (T.del ~pos:0 ~len:0))

(* Invalid operations fail with messages rendered from the logical length
   alone, whatever the rope's chunk layout — error text is observable
   behaviour, pinned here on a one-leaf document and on two differently
   chunked builds of a long one. *)
let error_message_parity () =
  let msg st op =
    match T.apply st op with
    | _ -> "no exception"
    | exception Invalid_argument m -> m
  in
  let oob_ins n p = Printf.sprintf "Op_text.apply: ins position %d out of range (len %d)" p n in
  let oob_del n p l =
    Printf.sprintf "Op_text.apply: del range [%d,%d) out of range (len %d)" p (p + l) n
  in
  let nonpos = "Op_text.apply: non-positive delete length" in
  List.iter
    (fun (name, op, want) -> Alcotest.(check string) name want (msg (T.of_string "hello") op))
    [ ("ins position oob", T.ins 6 "x", oob_ins 5 6)
    ; ("ins position far oob", T.ins 1000 "x", oob_ins 5 1000)
    ; ("ins negative position", T.Ins (-1, "x"), oob_ins 5 (-1))
    ; ("del range oob", T.Del (4, 2), oob_del 5 4 2)
    ; ("del wholly oob", T.Del (9, 3), oob_del 5 9 3)
    ; ("del zero length", T.Del (2, 0), nonpos)
    ; ("del negative length", T.Del (2, -1), nonpos)
    ];
  let lines = List.init 500 (fun i -> Printf.sprintf "line %04d\n" i) in
  let long = String.concat "" lines in
  let n = String.length long in
  let appended =
    List.fold_left (fun st l -> T.apply st (T.Ins (T.length st, l))) (T.of_string "") lines
  in
  let oob = n + 7 in
  List.iter
    (fun (name, op, want) ->
      Alcotest.(check string) name want (msg (T.of_string long) op);
      Alcotest.(check string) (name ^ ", appended") want (msg appended op))
    [ ("long ins oob", T.Ins (oob, "x"), oob_ins n oob)
    ; ("long del oob", T.Del (oob - 3, 5), oob_del n (oob - 3) 5)
    ]

let transform_cases () =
  let t ?(tie = Sm_ot.Side.uniform Sm_ot.Side.Incoming) a b = T.transform a ~against:b ~tie in
  (* ins vs ins *)
  Alcotest.check ops "ins before ins" [ T.ins 1 "a" ] (t (T.ins 1 "a") (T.ins 3 "bb"));
  Alcotest.check ops "ins after ins" [ T.ins 5 "a" ] (t (T.ins 3 "a") (T.ins 1 "bb"));
  Alcotest.check ops "ins tie incoming" [ T.ins 2 "a" ] (t (T.ins 2 "a") (T.ins 2 "bb"));
  Alcotest.check ops "ins tie applied" [ T.ins 4 "a" ]
    (t ~tie:(Sm_ot.Side.uniform Sm_ot.Side.Applied) (T.ins 2 "a") (T.ins 2 "bb"));
  (* ins vs del *)
  Alcotest.check ops "ins before del" [ T.ins 1 "a" ] (t (T.ins 1 "a") (T.Del (2, 3)));
  Alcotest.check ops "ins after del" [ T.ins 2 "a" ] (t (T.ins 5 "a") (T.Del (1, 3)));
  Alcotest.check ops "ins inside del collapses" [ T.ins 1 "a" ] (t (T.ins 3 "a") (T.Del (1, 3)));
  (* del vs ins: the split case *)
  Alcotest.check ops "del after ins" [ T.Del (5, 2) ] (t (T.Del (3, 2)) (T.ins 1 "xy"));
  Alcotest.check ops "del before ins" [ T.Del (1, 2) ] (t (T.Del (1, 2)) (T.ins 5 "xy"));
  Alcotest.check ops "del split around ins" [ T.Del (1, 2); T.Del (3, 3) ]
    (t (T.Del (1, 5)) (T.ins 3 "xy"));
  (* del vs del *)
  Alcotest.check ops "del disjoint left" [ T.Del (1, 2) ] (t (T.Del (1, 2)) (T.Del (5, 2)));
  Alcotest.check ops "del disjoint right" [ T.Del (2, 2) ] (t (T.Del (5, 2)) (T.Del (2, 3)));
  Alcotest.check ops "del identical drops" [] (t (T.Del (2, 3)) (T.Del (2, 3)));
  Alcotest.check ops "del subsumed drops" [] (t (T.Del (3, 2)) (T.Del (2, 4)));
  Alcotest.check ops "del overlap left" [ T.Del (2, 2) ] (t (T.Del (2, 4)) (T.Del (4, 4)));
  Alcotest.check ops "del overlap right" [ T.Del (2, 2) ] (t (T.Del (3, 4)) (T.Del (2, 3)))

(* The paper's Figure 1/2 scenario transliterated to text. *)
let fig2_text () =
  let base = T.of_string "abc" in
  let op_a = T.del ~pos:2 ~len:1 and op_b = T.ins 0 "d" in
  let a' = T.transform op_a ~against:op_b ~tie:(Sm_ot.Side.uniform Sm_ot.Side.Applied) in
  let site_b = T.to_string (List.fold_left T.apply (T.apply base op_b) a') in
  let b' = T.transform op_b ~against:op_a ~tie:(Sm_ot.Side.uniform Sm_ot.Side.Incoming) in
  let site_a = T.to_string (List.fold_left T.apply (T.apply base op_a) b') in
  Alcotest.(check string) "converged" site_a site_b;
  Alcotest.(check string) "expected" "dab" site_a

let gen_str = QCheck2.Gen.(map (fun n -> String.init n (fun i -> Char.chr (97 + (i mod 26)))) (int_range 0 12))

let gen_op_for_len n =
  let open QCheck2.Gen in
  let gen_ins = map2 (fun p t -> T.ins (min p n) (String.make (1 + (t mod 3)) 'X')) (int_range 0 n) (int_range 0 2) in
  if n = 0 then gen_ins
  else
    frequency
      [ (1, gen_ins)
      ; ( 1
        , int_range 0 (n - 1) >>= fun p ->
          int_range 1 (n - p) >>= fun l -> return (T.Del (p, l)) )
      ]

let gen_pair =
  let open QCheck2.Gen in
  gen_str >>= fun s ->
  gen_op_for_len (String.length s) >>= fun a ->
  gen_op_for_len (String.length s) >>= fun b ->
  bool >>= fun a_wins -> return (T.of_string s, a, b, a_wins)

let gen_seq_for s =
  let open QCheck2.Gen in
  int_range 0 5 >>= fun n ->
  let rec go st acc n =
    if n = 0 then return (List.rev acc)
    else gen_op_for_len (T.length st) >>= fun op -> go (T.apply st op) (op :: acc) (n - 1)
  in
  go (T.of_string s) [] n

let gen_two_seqs =
  let open QCheck2.Gen in
  gen_str >>= fun s ->
  gen_seq_for s >>= fun left ->
  gen_seq_for s >>= fun right ->
  oneofl [ Sm_ot.Side.uniform Sm_ot.Side.Incoming; Sm_ot.Side.uniform Sm_ot.Side.Applied; Sm_ot.Side.serialization; Sm_ot.Side.flip Sm_ot.Side.serialization ] >>= fun tie -> return (T.of_string s, left, right, tie)

let suite =
  [ Alcotest.test_case "apply: substring edits" `Quick apply_cases
  ; Alcotest.test_case "error messages agree across representations" `Quick error_message_parity
  ; Alcotest.test_case "IT cases incl. range split" `Quick transform_cases
  ; Alcotest.test_case "figure 2 on text" `Quick fig2_text
  ; qtest ~count:2000 "TP1 on random text ops" gen_pair (fun (s, a, b, a_wins) ->
        Conv.tp1 ~state:s ~a ~b ~a_wins)
  ; qtest ~count:500 "cross converges random text sequences" gen_two_seqs
      (fun (s, left, right, tie) -> Conv.seqs_converge ~state:s ~left ~right ~tie)
  ]
