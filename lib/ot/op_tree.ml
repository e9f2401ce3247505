module Make (Label : Op_sig.ELT) = struct
  type node =
    { label : Label.t
    ; children : node list
    }

  type state = node list
  type path = int list

  type op =
    | Insert of path * node
    | Delete of path
    | Relabel of path * Label.t

  let leaf label = { label; children = [] }
  let branch label children = { label; children }
  let insert p n = Insert (p, n)
  let delete p = Delete p
  let relabel p l = Relabel (p, l)

  let rec find forest = function
    | [] -> None
    | [ i ] -> List.nth_opt forest i
    | i :: rest -> ( match List.nth_opt forest i with None -> None | Some n -> find n.children rest)

  let rec size forest = List.fold_left (fun acc n -> acc + 1 + size n.children) 0 forest

  (* Navigate to the sibling list holding the path's last component and edit
     it there.  [f siblings i] performs the local edit. *)
  let rec edit forest path ~f =
    match path with
    | [] -> invalid_arg "Op_tree.apply: empty path"
    | [ i ] -> f forest i
    | i :: rest ->
      if i < 0 || i >= List.length forest then invalid_arg "Op_tree.apply: path component out of range";
      List.mapi (fun j n -> if j = i then { n with children = edit n.children rest ~f } else n) forest

  let apply s op =
    match op with
    | Insert (p, n) ->
      edit s p ~f:(fun siblings i ->
          if i < 0 || i > List.length siblings then invalid_arg "Op_tree.apply: insert gap out of range";
          let rec ins i rest = if i = 0 then n :: rest else match rest with
            | x :: xs -> x :: ins (i - 1) xs
            | [] -> assert false
          in
          ins i siblings)
    | Delete p ->
      edit s p ~f:(fun siblings i ->
          if i < 0 || i >= List.length siblings then invalid_arg "Op_tree.apply: delete target out of range";
          List.filteri (fun j _ -> j <> i) siblings)
    | Relabel (p, l) ->
      edit s p ~f:(fun siblings i ->
          if i < 0 || i >= List.length siblings then invalid_arg "Op_tree.apply: relabel target out of range";
          List.mapi (fun j n -> if j = i then { n with label = l } else n) siblings)

  (* --- path transformation ------------------------------------------------ *)

  let rec take n = function [] -> [] | x :: xs -> if n = 0 then [] else x :: take (n - 1) xs

  let rec is_prefix prefix p =
    match prefix, p with
    | [], _ -> true
    | _, [] -> false
    | a :: pre, b :: rest -> a = b && is_prefix pre rest

  let set_nth p d v = List.mapi (fun i x -> if i = d then v else x) p

  let split_last q =
    let d = List.length q - 1 in
    (take d q, List.nth q d)

  (* Rewrite [p] after an applied insert at [q].  [last_is_gap] says whether
     [p]'s final component is a gap index (incoming insert) rather than a node
     index; gaps at the exact insert position tie-break via [incoming_wins]. *)
  let xform_path_after_insert p ~last_is_gap ~q ~incoming_wins =
    let q_parent, q_pos = split_last q in
    let d = List.length q_parent in
    if not (is_prefix q_parent p) then p
    else
      match List.nth_opt p d with
      | None -> p
      | Some k ->
        let is_last = List.length p = d + 1 in
        let shifted =
          if is_last && last_is_gap then
            if k > q_pos || (k = q_pos && not incoming_wins) then k + 1 else k
          else if k >= q_pos then k + 1
          else k
        in
        if shifted = k then p else set_nth p d shifted

  (* Rewrite [p] after an applied delete at [q]; [None] when [p] addressed the
     deleted node or descended into its subtree. *)
  let xform_path_after_delete p ~last_is_gap ~q =
    let q_parent, q_pos = split_last q in
    let d = List.length q_parent in
    if not (is_prefix q_parent p) then Some p
    else
      match List.nth_opt p d with
      | None -> Some p
      | Some k ->
        let is_last = List.length p = d + 1 in
        if is_last && last_is_gap then Some (if k > q_pos then set_nth p d (k - 1) else p)
        else if k = q_pos then None
        else if k > q_pos then Some (set_nth p d (k - 1))
        else Some p

  let with_path op p' =
    match op with
    | Insert (_, n) -> Insert (p', n)
    | Delete _ -> Delete p'
    | Relabel (_, l) -> Relabel (p', l)

  let path_of = function Insert (p, _) -> p | Delete p -> p | Relabel (p, _) -> p
  let is_insert = function Insert _ -> true | Delete _ | Relabel _ -> false

  let transform a ~against:b ~tie =
    match b with
    | Insert (q, _) ->
      let p' =
        xform_path_after_insert (path_of a) ~last_is_gap:(is_insert a) ~q
          ~incoming_wins:(Side.incoming_wins tie.Side.position)
      in
      [ with_path a p' ]
    | Delete q -> (
      match xform_path_after_delete (path_of a) ~last_is_gap:(is_insert a) ~q with
      | None -> []
      | Some p' -> [ with_path a p' ])
    | Relabel (q, lb) -> (
      match a with
      | Relabel (p, la) when p = q ->
        if Label.equal la lb then [ a ] else if Side.incoming_wins tie.Side.value then [ a ] else []
      | Insert _ | Delete _ | Relabel _ -> [ a ])

  (* Adjacent rewriting at exactly equal paths: inserting a node and
     immediately deleting it cancels (the delete removes the whole
     just-inserted subtree); a relabel directly after an insert of the same
     node folds into the inserted label; consecutive relabels of one node
     keep only the last.  Path equality is exact — prefix/sibling relations
     are positional and therefore state-dependent. *)
  let compact ops =
    let rec sweep changed acc = function
      | Insert (p, _) :: Delete q :: rest when p = q -> sweep true acc rest
      | Insert (p, n) :: Relabel (q, l) :: rest when p = q ->
        sweep true acc (Insert (p, { n with label = l }) :: rest)
      | Relabel (p, _) :: Relabel (q, l) :: rest when p = q ->
        sweep true acc (Relabel (p, l) :: rest)
      | op :: rest -> sweep changed (op :: acc) rest
      | [] -> (changed, List.rev acc)
    in
    let rec fix ops =
      match sweep false [] ops with
      | false, ops -> ops
      | true, ops -> fix ops
    in
    match ops with [] | [ _ ] -> ops | _ -> fix ops

  let commutes _ _ = false

  let rec equal_node a b = Label.equal a.label b.label && List.equal equal_node a.children b.children
  let equal_state = List.equal equal_node

  let rec pp_node ppf n =
    if n.children = [] then Label.pp ppf n.label
    else Format.fprintf ppf "%a(%a)" Label.pp n.label pp_forest n.children

  and pp_forest ppf forest =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_node ppf forest

  let pp_state ppf s = Format.fprintf ppf "[%a]" pp_forest s

  let pp_path ppf p =
    Format.fprintf ppf "/%a"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "/") Format.pp_print_int)
      p

  let pp_op ppf = function
    | Insert (p, n) -> Format.fprintf ppf "insert(%a, %a)" pp_path p pp_node n
    | Delete p -> Format.fprintf ppf "delete(%a)" pp_path p
    | Relabel (p, l) -> Format.fprintf ppf "relabel(%a, %a)" pp_path p Label.pp l
end
