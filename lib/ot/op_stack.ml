module Make (Elt : Op_sig.ELT) = struct
  type state = Elt.t list

  type op =
    | Push_at of int * Elt.t
    | Pop_at of int

  let push x = Push_at (0, x)
  let pop = Pop_at 0

  let apply s = function
    | Push_at (i, x) ->
      if i < 0 || i > List.length s then
        invalid_arg (Printf.sprintf "Op_stack.apply: push position %d out of range (depth %d)" i (List.length s));
      let rec ins i rest = if i = 0 then x :: rest else match rest with
        | y :: ys -> y :: ins (i - 1) ys
        | [] -> assert false
      in
      ins i s
    | Pop_at i ->
      if i < 0 || i >= List.length s then
        invalid_arg (Printf.sprintf "Op_stack.apply: pop position %d out of range (depth %d)" i (List.length s));
      List.filteri (fun j _ -> j <> i) s

  (* The insert/delete corner of the list IT matrix, with depth-0 intent. *)
  let transform a ~against:b ~tie =
    match a, b with
    | Push_at (i, x), Push_at (j, _) ->
      if i < j || (i = j && Side.incoming_wins tie.Side.position) then [ Push_at (i, x) ]
      else [ Push_at (i + 1, x) ]
    | Push_at (i, x), Pop_at j -> if j < i then [ Push_at (i - 1, x) ] else [ Push_at (i, x) ]
    | Pop_at i, Push_at (j, _) -> if j <= i then [ Pop_at (i + 1) ] else [ Pop_at i ]
    | Pop_at i, Pop_at j ->
      if j < i then [ Pop_at (i - 1) ] else if j = i then [] else [ Pop_at i ]

  (* Pushing a slot and immediately popping it cancels; that is the only
     same-index pair whose net effect is state-independent (pop positions
     against anything else depend on what sits where). *)
  let compact ops =
    let rec sweep changed acc = function
      | Push_at (i, _) :: Pop_at j :: rest when j = i -> sweep true acc rest
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

  let equal_state = List.equal Elt.equal

  let pp_state ppf s =
    Format.fprintf ppf "|%a>"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Elt.pp)
      s

  let pp_op ppf = function
    | Push_at (i, x) -> Format.fprintf ppf "push_at(%d, %a)" i Elt.pp x
    | Pop_at i -> Format.fprintf ppf "pop_at(%d)" i
end
