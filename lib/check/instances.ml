(* The nine operation modules of lib/ot, instantiated for bounded checking.

   Element choices mirror the exhaustive test suite: small canonical states
   (sizes 0 .. depth+1, smallest first) and op enumerations that hit every
   position and both conflict classes (two distinct insert values so value
   ties are real).  [depth = 2] reproduces the historical test_ot_exhaustive
   spaces exactly. *)

module L = Sm_ot.Op_list
module Side = Sm_ot.Side

module Str_elt = struct
  type t = string

  let equal = String.equal
  let compare = String.compare
  let pp ppf s = Format.fprintf ppf "%S" s
end

module Int_elt = struct
  type t = int

  let equal = Int.equal
  let compare = Int.compare
  let pp = Format.pp_print_int
end

(* sizes 0 .. depth+1 *)
let sizes ~depth = List.init (max 1 depth + 2) Fun.id

module Counter = struct
  include Sm_ot.Op_counter

  let name = "mcounter"
  let states ~depth = if depth <= 0 then [ 0 ] else [ 0; 2 ]
  let ops _ = [ add 1; add (-1); add 3 ]
  let shrink_op (Add n) = if n > 1 then [ add 1 ] else []
end

module Register = struct
  include Sm_ot.Op_register.Make (Str_elt)

  let name = "mregister"
  let states ~depth = if depth <= 0 then [ "a" ] else [ "a"; "b" ]

  (* [assign "a"] re-asserts a current value somewhere in the space — the
     idempotence edge. *)
  let ops _ = [ assign "x"; assign "y"; assign "a" ]
  let shrink_op (Assign s) = if String.length s > 1 then [ assign (String.sub s 0 1) ] else []
end

module Set_e = struct
  include Sm_ot.Op_set.Make (Int_elt)

  let name = "mset"

  let states ~depth =
    List.map (fun n -> Elt_set.of_list (List.init n Fun.id)) (sizes ~depth)

  (* adds/removes of present and absent elements *)
  let ops state =
    let n = Elt_set.cardinal state in
    List.concat_map (fun e -> [ add e; remove e ]) (List.init (n + 2) Fun.id)

  let shrink_op = function
    | Add e -> if e > 0 then [ add 0 ] else []
    | Remove e -> if e > 0 then [ remove 0 ] else []
end

module Map_e = struct
  include Sm_ot.Op_map.Make (Int_elt) (Str_elt)

  let name = "mmap"

  let states ~depth =
    List.map
      (fun n ->
        List.fold_left
          (fun m k -> Key_map.add k (String.make 1 (Char.chr (Char.code 'a' + k))) m)
          Key_map.empty (List.init n Fun.id))
      (sizes ~depth)

  let ops state =
    let n = Key_map.cardinal state in
    List.concat_map (fun k -> [ put k "x"; put k "y"; remove k ]) (List.init (n + 2) Fun.id)

  let shrink_op = function
    | Put (k, v) ->
      (if k > 0 then [ put 0 v ] else []) @ if String.length v > 1 then [ put k "x" ] else []
    | Remove k -> if k > 0 then [ remove 0 ] else []
end

module List_e = struct
  include L.Make (Str_elt)

  let name = "mlist"
  let states ~depth = List.map (fun n -> List.init n string_of_int) (sizes ~depth)

  let ops state =
    let n = List.length state in
    List.concat
      [ List.concat_map (fun i -> [ ins i "x"; ins i "y" ]) (List.init (n + 1) Fun.id)
      ; List.map del (List.init n Fun.id)
      ; List.map (fun i -> set i "z") (List.init n Fun.id)
      ]

  let shrink_op = function
    | Ins (i, s) ->
      (if i > 0 then [ ins (i - 1) s ] else [])
      @ if String.length s > 1 then [ ins i (String.sub s 0 1) ] else []
    | Del i -> if i > 0 then [ del (i - 1) ] else []
    | Set (i, s) -> if i > 0 then [ set (i - 1) s ] else []
end

module Queue_e = struct
  include Sm_ot.Op_queue.Make (Int_elt)

  let name = "mqueue"
  let states ~depth = List.map (fun n -> List.init n Fun.id) (sizes ~depth)
  let ops _ = [ push 7; push 8; pop ]
  let shrink_op = function Push n -> if n <> 7 then [ push 7 ] else [] | Pop -> []
end

module Stack_e = struct
  include Sm_ot.Op_stack.Make (Int_elt)

  let name = "mstack"
  let states ~depth = List.map (fun n -> List.init n Fun.id) (sizes ~depth)

  let ops state =
    let n = List.length state in
    List.concat
      [ List.map (fun i -> Push_at (i, 77)) (List.init (n + 1) Fun.id)
      ; List.map (fun i -> Pop_at i) (List.init n Fun.id)
      ]

  let shrink_op = function
    | Push_at (i, x) -> if i > 0 then [ Push_at (i - 1, x) ] else []
    | Pop_at i -> if i > 0 then [ Pop_at (i - 1) ] else []
end

module Text = struct
  include Sm_ot.Op_text

  let name = "mtext"

  let states ~depth =
    let all = [ ""; "a"; "ab"; "abcd"; "abcdef" ] in
    List.filteri (fun i _ -> i < max 1 depth + 2) (List.map Sm_ot.Op_text.of_string all)

  let ops state =
    let n = Sm_ot.Op_text.length state in
    List.concat
      [ List.concat_map (fun p -> [ ins p "X"; ins p "YY" ]) (List.init (n + 1) Fun.id)
      ; List.concat_map
          (fun p ->
            List.filter_map (fun l -> if p + l <= n then Some (Del (p, l)) else None) [ 1; 2; 3 ])
          (List.init n Fun.id)
      ]

  let shrink_op = function
    | Ins (p, s) ->
      (if p > 0 then [ Ins (p - 1, s) ] else [])
      @ if String.length s > 1 then [ ins p (String.sub s 0 1) ] else []
    | Del (p, l) -> (if p > 0 then [ Del (p - 1, l) ] else []) @ if l > 1 then [ Del (p, 1) ] else []
end

module Tree = struct
  include Sm_ot.Op_tree.Make (Str_elt)

  let name = "mtree"

  let states ~depth =
    let all =
      [ []
      ; [ leaf "a" ]
      ; [ branch "a" [ leaf "x" ]; leaf "b" ]
      ; [ branch "a" [ leaf "x"; leaf "y" ]; leaf "b"; leaf "c" ]
      ]
    in
    List.filteri (fun i _ -> i < max 1 depth + 2) all

  let rec node_paths ?(prefix = []) forest =
    List.concat
      (List.mapi
         (fun i n ->
           let here = List.rev (i :: prefix) in
           here :: node_paths ~prefix:(i :: prefix) n.children)
         forest)

  let rec gap_paths ?(prefix = []) forest =
    let here = List.init (List.length forest + 1) (fun i -> List.rev (i :: prefix)) in
    here @ List.concat (List.mapi (fun i n -> gap_paths ~prefix:(i :: prefix) n.children) forest)

  let ops state =
    List.concat
      [ List.map (fun p -> insert p (leaf "n")) (gap_paths state)
      ; List.map delete (node_paths state)
      ; List.map (fun p -> relabel p "r") (node_paths state)
      ]

  (* Shrinking a path component toward 0 keeps it a plausible address;
     shortening the path retargets an ancestor. *)
  let shrink_path p =
    (match List.rev p with
    | _ :: tl when tl <> [] -> [ List.rev tl ]  (* shorten: retarget the parent *)
    | _ -> [])
    @ List.concat
        (List.mapi
           (fun i c -> if c > 0 then [ List.mapi (fun j d -> if j = i then c - 1 else d) p ] else [])
           p)

  let shrink_op = function
    | Insert (p, n) ->
      (if n.children <> [] then [ insert p (leaf n.label) ] else [])
      @ List.map (fun p' -> insert p' n) (shrink_path p)
    | Delete p -> List.map delete (shrink_path p)
    | Relabel (p, l) -> List.map (fun p' -> relabel p' l) (shrink_path p)
end

let all : (module Enum.S) list =
  [ (module Counter)
  ; (module Register)
  ; (module Set_e)
  ; (module Map_e)
  ; (module List_e)
  ; (module Queue_e)
  ; (module Stack_e)
  ; (module Text)
  ; (module Tree)
  ]
