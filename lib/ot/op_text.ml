(* The document state is a chunked rope: O(log n + |op|) edits, O(1)
   length, and flattening only at the edges (digests, codecs). *)
type state = Rope.t

type op =
  | Ins of int * string
  | Del of int * int

let of_string = Rope.of_string
let to_string = Rope.to_string
let length = Rope.length

let ins pos s = Ins (pos, s)

let del ~pos ~len =
  if len <= 0 then invalid_arg "Op_text.del: len must be positive";
  Del (pos, len)

(* Error messages are rendered from the logical byte length only, so they
   do not depend on the rope's chunk layout. *)
let check_ins pos n =
  if pos < 0 || pos > n then
    invalid_arg (Printf.sprintf "Op_text.apply: ins position %d out of range (len %d)" pos n)

let check_del pos len n =
  if len <= 0 then invalid_arg "Op_text.apply: non-positive delete length";
  if pos < 0 || pos + len > n then
    invalid_arg (Printf.sprintf "Op_text.apply: del range [%d,%d) out of range (len %d)" pos (pos + len) n)

let apply r op =
  let n = Rope.length r in
  match op with
  | Ins (pos, t) ->
    check_ins pos n;
    Rope.insert r pos t
  | Del (pos, len) ->
    check_del pos len n;
    Rope.delete r ~pos ~len

let transform a ~against:b ~tie =
  match a, b with
  | Ins (p, s), Ins (q, t) ->
    if q < p || (q = p && not (Side.incoming_wins tie.Side.position)) then [ Ins (p + String.length t, s) ]
    else [ Ins (p, s) ]
  | Ins (p, s), Del (q, l) ->
    if p <= q then [ Ins (p, s) ]
    else if p >= q + l then [ Ins (p - l, s) ]
    else [ Ins (q, s) ] (* insertion point was deleted: collapse to the hole *)
  | Del (p, l), Ins (q, t) ->
    let tl = String.length t in
    if q <= p then [ Del (p + tl, l) ]
    else if q >= p + l then [ Del (p, l) ]
    else
      (* the insert landed strictly inside the deleted range: delete the part
         before it, then (in post-first-delete coordinates) the part after *)
      [ Del (p, q - p); Del (p + tl, l - (q - p)) ]
  | Del (p, l), Del (q, m) ->
    let overlap = max 0 (min (p + l) (q + m) - max p q) in
    let remaining = l - overlap in
    if remaining = 0 then []
    else
      let p' = if p <= q then p else if p >= q + m then p - m else q in
      [ Del (p', remaining) ]

(* Adjacent coalescing, iterated to a fixpoint.  An insert landing inside
   (or at either edge of) the previous insert's span splices into it; a
   delete wholly inside the previous insert's span cuts out of it
   (cancelling both when nothing is left); back-to-back deletes touching at
   a boundary fuse into one range.  All rules are span-arithmetic only —
   never looking at the underlying document — so they are state-independent,
   and each strictly shortens the sequence. *)
let compact ops =
  let splice s k t = String.sub s 0 k ^ t ^ String.sub s k (String.length s - k) in
  let cut s k m = String.sub s 0 k ^ String.sub s (k + m) (String.length s - k - m) in
  let rec sweep changed acc = function
    | Ins (p, s) :: Ins (q, t) :: rest when p <= q && q <= p + String.length s ->
      sweep true acc (Ins (p, splice s (q - p) t) :: rest)
    | Ins (p, s) :: Del (q, m) :: rest when p <= q && q + m <= p + String.length s ->
      if m = String.length s then sweep true acc rest
      else sweep true acc (Ins (p, cut s (q - p) m) :: rest)
    | Del (p, l) :: Del (q, m) :: rest when q = p || q + m = p ->
      sweep true acc (Del (min p q, l + m) :: rest)
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

let equal_state = Rope.equal

(* Renders exactly what [Format.fprintf ppf "%S"] would print for the
   flattened document — workspace digests hash this text, so the escaper
   must match [String.escaped] byte for byte or the chunk layout would
   leak into digests. *)
let pp_escaped ppf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Format.pp_print_string ppf "\\\""
      | '\\' -> Format.pp_print_string ppf "\\\\"
      | '\n' -> Format.pp_print_string ppf "\\n"
      | '\t' -> Format.pp_print_string ppf "\\t"
      | '\r' -> Format.pp_print_string ppf "\\r"
      | '\b' -> Format.pp_print_string ppf "\\b"
      | ' ' .. '~' -> Format.pp_print_char ppf c
      | c -> Format.fprintf ppf "\\%03d" (Char.code c))
    s

let pp_state ppf r =
  Format.pp_print_char ppf '"';
  Rope.iter_chunks (pp_escaped ppf) r;
  Format.pp_print_char ppf '"'

let pp_op ppf = function
  | Ins (p, s) -> Format.fprintf ppf "ins(%d, %S)" p s
  | Del (p, l) -> Format.fprintf ppf "del(%d, %d)" p l
