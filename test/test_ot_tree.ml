(* Tree OT: path navigation, sibling shifting, subtree-swallowing deletes,
   and randomized TP1 / sequence convergence over small random forests. *)

open Test_support
module T = Sm_ot.Op_tree.Make (Str_elt)
module Conv = Sm_ot.Convergence.Make (T)

let state = Alcotest.testable T.pp_state T.equal_state
let ops = Alcotest.(list (testable T.pp_op ( = )))

(*  A sample forest:  [a(x, y), b, c(z(w))]  *)
let sample : T.state =
  [ T.branch "a" [ T.leaf "x"; T.leaf "y" ]; T.leaf "b"; T.branch "c" [ T.branch "z" [ T.leaf "w" ] ] ]

let apply_cases () =
  Alcotest.check state "insert at root" (T.leaf "n" :: sample) (T.apply sample (T.insert [ 0 ] (T.leaf "n")));
  Alcotest.check state "insert nested"
    [ T.branch "a" [ T.leaf "x"; T.leaf "n"; T.leaf "y" ]; T.leaf "b"
    ; T.branch "c" [ T.branch "z" [ T.leaf "w" ] ] ]
    (T.apply sample (T.insert [ 0; 1 ] (T.leaf "n")));
  Alcotest.check state "delete subtree"
    [ T.branch "a" [ T.leaf "x"; T.leaf "y" ]; T.leaf "b"; T.branch "c" [] ]
    (T.apply sample (T.delete [ 2; 0 ]));
  Alcotest.check state "relabel deep"
    [ T.branch "a" [ T.leaf "x"; T.leaf "y" ]; T.leaf "b"
    ; T.branch "c" [ T.branch "z" [ T.leaf "W" ] ] ]
    (T.apply sample (T.relabel [ 2; 0; 0 ] "W"));
  Alcotest.(check int) "size" 7 (T.size sample);
  Alcotest.(check (option (testable T.pp_state T.equal_state)))
    "find" (Some [ T.leaf "w" ])
    (Option.map (fun n -> n.T.children) (T.find sample [ 2; 0 ]));
  Alcotest.check_raises "bad path" (Invalid_argument "Op_tree.apply: delete target out of range")
    (fun () -> ignore (T.apply sample (T.delete [ 5 ])))

let transform_cases () =
  let t ?(tie = Sm_ot.Side.uniform Sm_ot.Side.Incoming) a b = T.transform a ~against:b ~tie in
  let n = T.leaf "n" in
  (* sibling shifts at the same level *)
  Alcotest.check ops "insert shifted by earlier insert" [ T.insert [ 2 ] n ]
    (t (T.insert [ 1 ] n) (T.insert [ 0 ] n));
  Alcotest.check ops "insert tie incoming keeps" [ T.insert [ 1 ] n ] (t (T.insert [ 1 ] n) (T.insert [ 1 ] n));
  Alcotest.check ops "insert tie applied shifts" [ T.insert [ 2 ] n ]
    (t ~tie:(Sm_ot.Side.uniform Sm_ot.Side.Applied) (T.insert [ 1 ] n) (T.insert [ 1 ] n));
  Alcotest.check ops "delete shifted by insert" [ T.delete [ 2 ] ] (t (T.delete [ 1 ]) (T.insert [ 0 ] n));
  Alcotest.check ops "deep path shifted at top" [ T.delete [ 3; 0; 1 ] ]
    (t (T.delete [ 2; 0; 1 ]) (T.insert [ 1 ] n));
  Alcotest.check ops "unrelated subtrees untouched" [ T.delete [ 0; 1 ] ] (t (T.delete [ 0; 1 ]) (T.insert [ 1; 0 ] n));
  (* deletes swallowing subtrees *)
  Alcotest.check ops "same node delete drops" [] (t (T.delete [ 1 ]) (T.delete [ 1 ]));
  Alcotest.check ops "descendant of deleted drops" [] (t (T.relabel [ 1; 0 ] "q") (T.delete [ 1 ]));
  Alcotest.check ops "insert under deleted subtree drops" [] (t (T.insert [ 1; 0; 2 ] n) (T.delete [ 1 ]));
  Alcotest.check ops "insert at deleted node's slot survives" [ T.insert [ 1 ] n ]
    (t (T.insert [ 1 ] n) (T.delete [ 1 ]));
  Alcotest.check ops "sibling after deleted shifts down" [ T.delete [ 1 ] ] (t (T.delete [ 2 ]) (T.delete [ 1 ]));
  (* relabel conflicts *)
  Alcotest.check ops "relabel tie incoming wins" [ T.relabel [ 0 ] "p" ]
    (t (T.relabel [ 0 ] "p") (T.relabel [ 0 ] "q"));
  Alcotest.check ops "relabel tie applied wins drops" []
    (t ~tie:(Sm_ot.Side.uniform Sm_ot.Side.Applied) (T.relabel [ 0 ] "p") (T.relabel [ 0 ] "q"));
  Alcotest.check ops "identical relabels keep" [ T.relabel [ 0 ] "q" ]
    (t ~tie:(Sm_ot.Side.uniform Sm_ot.Side.Applied) (T.relabel [ 0 ] "q") (T.relabel [ 0 ] "q"));
  Alcotest.check ops "relabel different paths keep" [ T.relabel [ 1 ] "p" ]
    (t ~tie:(Sm_ot.Side.uniform Sm_ot.Side.Applied) (T.relabel [ 1 ] "p") (T.relabel [ 0 ] "q"))

(* --- random generation over forests -------------------------------------- *)

let gen_label = QCheck2.Gen.(map (fun i -> String.make 1 (Char.chr (97 + i))) (int_range 0 25))

(* Enumerate all valid gap paths (for inserts) and node paths of a forest. *)
let rec node_paths ?(prefix = []) forest =
  List.concat (List.mapi (fun i n ->
      let here = List.rev (i :: prefix) in
      here :: node_paths ~prefix:(i :: prefix) n.T.children)
    forest)

let rec gap_paths ?(prefix = []) forest =
  let here = List.init (List.length forest + 1) (fun i -> List.rev (i :: prefix)) in
  here @ List.concat (List.mapi (fun i n -> gap_paths ~prefix:(i :: prefix) n.T.children) forest)

let gen_forest =
  let open QCheck2.Gen in
  let rec gen_node depth =
    gen_label >>= fun label ->
    (if depth = 0 then return [] else list_size (int_range 0 2) (gen_node (depth - 1))) >>= fun children ->
    return (T.branch label children)
  in
  list_size (int_range 0 3) (gen_node 2)

let gen_op_for forest =
  let open QCheck2.Gen in
  let gaps = gap_paths forest in
  let nodes = node_paths forest in
  let gen_insert = map2 (fun p l -> T.insert p (T.leaf l)) (oneofl gaps) gen_label in
  if nodes = [] then gen_insert
  else
    frequency
      [ (2, gen_insert)
      ; (1, map T.delete (oneofl nodes))
      ; (1, map2 T.relabel (oneofl nodes) gen_label)
      ]

let gen_pair =
  let open QCheck2.Gen in
  gen_forest >>= fun s ->
  gen_op_for s >>= fun a ->
  gen_op_for s >>= fun b ->
  bool >>= fun a_wins -> return (s, a, b, a_wins)

let gen_seq_for s =
  let open QCheck2.Gen in
  int_range 0 4 >>= fun n ->
  let rec go s acc n =
    if n = 0 then return (List.rev acc)
    else gen_op_for s >>= fun op -> go (T.apply s op) (op :: acc) (n - 1)
  in
  go s [] n

let gen_two_seqs =
  let open QCheck2.Gen in
  gen_forest >>= fun s ->
  gen_seq_for s >>= fun left ->
  gen_seq_for s >>= fun right ->
  oneofl [ Sm_ot.Side.uniform Sm_ot.Side.Incoming; Sm_ot.Side.uniform Sm_ot.Side.Applied; Sm_ot.Side.serialization; Sm_ot.Side.flip Sm_ot.Side.serialization ] >>= fun tie -> return (s, left, right, tie)

(* --- the one-walk apply against the list apply ---------------------------- *)

(* The list apply [Op_tree.apply] replaced, kept as the reference: it
   measures and maps whole sibling lists at every level of the path. *)
let rec list_edit forest path ~f =
  match path with
  | [] -> invalid_arg "Op_tree.apply: empty path"
  | [ i ] -> f forest i
  | i :: rest ->
    if i < 0 || i >= List.length forest then invalid_arg "Op_tree.apply: path component out of range";
    List.mapi (fun j n -> if j = i then { n with T.children = list_edit n.T.children rest ~f } else n) forest

let list_apply s = function
  | T.Insert (p, n) ->
    list_edit s p ~f:(fun siblings i ->
        if i < 0 || i > List.length siblings then invalid_arg "Op_tree.apply: insert gap out of range";
        let rec ins i rest =
          if i = 0 then n :: rest
          else match rest with x :: xs -> x :: ins (i - 1) xs | [] -> assert false
        in
        ins i siblings)
  | T.Delete p ->
    list_edit s p ~f:(fun siblings i ->
        if i < 0 || i >= List.length siblings then invalid_arg "Op_tree.apply: delete target out of range";
        List.filteri (fun j _ -> j <> i) siblings)
  | T.Relabel (p, l) ->
    list_edit s p ~f:(fun siblings i ->
        if i < 0 || i >= List.length siblings then invalid_arg "Op_tree.apply: relabel target out of range";
        List.mapi (fun j n -> if j = i then { n with T.label = l } else n) siblings)

(* A valid node or gap path with the component at one depth replaced by an
   arbitrary small index (often out of range, sometimes negative), or with
   one component too many, or empty: every way a path can miss. *)
let gen_wild_op forest =
  let open QCheck2.Gen in
  let paths = [] :: (node_paths forest @ gap_paths forest) in
  oneofl paths >>= fun p ->
  int_range (-2) 4 >>= fun v ->
  int_range 0 (List.length p) >>= fun d ->
  let p = if d = List.length p then p @ [ v ] else List.mapi (fun j x -> if j = d then v else x) p in
  oneofl [ T.insert p (T.leaf "n"); T.delete p; T.relabel p "r" ]

let gen_apply_case =
  let open QCheck2.Gen in
  gen_forest >>= fun s ->
  frequency [ (1, gen_op_for s); (2, gen_wild_op s) ] >>= fun op -> return (s, op)

let same_apply (s, op) =
  let run f = match f s op with s' -> Ok s' | exception Invalid_argument m -> Error m in
  match (run T.apply, run list_apply) with
  | Ok a, Ok b -> T.equal_state a b
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

let find_negative () =
  Alcotest.(check bool) "negative root index" true (T.find sample [ -1 ] = None);
  Alcotest.(check bool) "negative deep index" true (T.find sample [ 2; -1; 0 ] = None);
  Alcotest.(check bool) "negative last index" true (T.find sample [ 0; -2 ] = None)

let suite =
  [ Alcotest.test_case "apply: forest edits" `Quick apply_cases
  ; Alcotest.test_case "IT cases: shifts, swallows, relabels" `Quick transform_cases
  ; qtest ~count:2000 "TP1 on random tree ops" gen_pair (fun (s, a, b, a_wins) ->
        Conv.tp1 ~state:s ~a ~b ~a_wins)
  ; qtest ~count:400 "cross converges random tree sequences" gen_two_seqs
      (fun (s, left, right, tie) -> Conv.seqs_converge ~state:s ~left ~right ~tie)
  ; qtest ~count:2000 "apply agrees with the list apply" gen_apply_case same_apply
  ; Alcotest.test_case "find: a negative index is None" `Quick find_negative
  ]
