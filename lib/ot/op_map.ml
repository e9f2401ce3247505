module Make (Key : Op_sig.ORDERED_ELT) (Value : Op_sig.ELT) = struct
  module Key_map = Map.Make (Key)

  type state = Value.t Key_map.t

  type op =
    | Put of Key.t * Value.t
    | Remove of Key.t

  let put k v = Put (k, v)
  let remove k = Remove k
  let key_of = function Put (k, _) -> k | Remove k -> k

  let apply s = function
    | Put (k, v) -> Key_map.add k v s
    | Remove k -> Key_map.remove k s

  let transform a ~against:b ~tie =
    if Key.compare (key_of a) (key_of b) <> 0 then [ a ]
    else
      match a, b with
      (* identical idempotent intentions never conflict *)
      | Remove _, Remove _ -> [ a ]
      | Put (_, va), Put (_, vb) when Value.equal va vb -> [ a ]
      | (Put _ | Remove _), (Put _ | Remove _) ->
        if Side.incoming_wins tie.Side.value then [ a ] else []

  (* Per-key last-writer-wins: only a key's final op is observable.  Kept in
     the order the surviving ops appeared, scanning newest-first so the
     whole pass is O(n log n). *)
  let compact = function
    | ([] | [ _ ]) as ops -> ops
    | ops ->
      let seen = ref Key_map.empty in
      List.fold_left
        (fun acc op ->
          let k = key_of op in
          if Key_map.mem k !seen then acc
          else begin
            seen := Key_map.add k () !seen;
            op :: acc
          end)
        [] (List.rev ops)

  let commutes a b =
    Key.compare (key_of a) (key_of b) <> 0
    ||
    match (a, b) with
    | Remove _, Remove _ -> true
    | Put (_, va), Put (_, vb) -> Value.equal va vb
    | Put _, Remove _ | Remove _, Put _ -> false

  let equal_state = Key_map.equal Value.equal

  let pp_state ppf s =
    let pp_binding ppf (k, v) = Format.fprintf ppf "%a -> %a" Key.pp k Value.pp v in
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_binding)
      (Key_map.bindings s)

  let pp_op ppf = function
    | Put (k, v) -> Format.fprintf ppf "put(%a, %a)" Key.pp k Value.pp v
    | Remove k -> Format.fprintf ppf "remove(%a)" Key.pp k
end
