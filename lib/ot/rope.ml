(* A chunked rope: a balanced binary tree over string chunks, the classic
   heavy-edit text representation (Boehm, Atkinson & Plass).  Leaves hold up
   to [max_chunk] bytes; interior nodes cache subtree length and height so
   position lookups, splits and joins are O(log n).  Balancing follows the
   stdlib [Set] discipline — sibling heights differ by at most 2, restored
   by single/double rotations — so depth stays logarithmic in the chunk
   count under any edit sequence. *)

type t =
  | Leaf of string
  | Node of
      { l : t
      ; r : t
      ; len : int
      ; ht : int
      }

(* Chunk sizing: leaves are split when an edit would push them past
   [max_chunk]; fresh bulk text is cut into [target_chunk]-byte leaves so a
   freshly loaded document sits mid-band and absorbs edits without
   immediately splitting or merging. *)
let max_chunk = 2048
let target_chunk = 1024

let empty = Leaf ""
let length = function Leaf s -> String.length s | Node n -> n.len
let height = function Leaf _ -> 0 | Node n -> n.ht
let is_empty t = length t = 0

(* Invariant (everywhere below): a [Node]'s subtrees are nonempty — the only
   empty leaf a well-formed rope contains is the root of the empty rope. *)
let node l r = Node { l; r; len = length l + length r; ht = 1 + max (height l) (height r) }

(* One rebalancing step, exactly stdlib [Set.bal]: absorbs a height
   difference of 3 (what [join]'s recursive descent can create) with a
   single or double rotation. *)
let bal l r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Leaf _ -> assert false
    | Node { l = ll; r = lr; _ } ->
      if height ll >= height lr then node ll (node lr r)
      else (
        match lr with
        | Leaf _ -> assert false
        | Node { l = lrl; r = lrr; _ } -> node (node ll lrl) (node lrr r))
  else if hr > hl + 2 then
    match r with
    | Leaf _ -> assert false
    | Node { l = rl; r = rr; _ } ->
      if height rr >= height rl then node (node l rl) rr
      else (
        match rl with
        | Leaf _ -> assert false
        | Node { l = rll; r = rlr; _ } -> node (node l rll) (node rlr rr))
  else node l r

(* Concatenate two well-formed ropes.  Adjacent small leaves fuse (the
   leaf/leaf case), so repeated edge appends coalesce into one growing
   chunk instead of degenerating into a chunk-per-keystroke spine; the
   descent mirrors [Set.join], keeping the height invariant. *)
let rec join l r =
  match (l, r) with
  | Leaf "", t | t, Leaf "" -> t
  | Leaf a, Leaf b when String.length a + String.length b <= max_chunk -> Leaf (a ^ b)
  | _ ->
    let hl = height l and hr = height r in
    if hl > hr + 2 then (
      match l with
      | Leaf _ -> assert false
      | Node { l = ll; r = lr; _ } -> bal ll (join lr r))
    else if hr > hl + 2 then (
      match r with
      | Leaf _ -> assert false
      | Node { l = rl; r = rr; _ } -> bal (join l rl) rr)
    else node l r

let of_string s =
  let n = String.length s in
  if n <= max_chunk then Leaf s
  else begin
    (* Cut into [target_chunk]-byte leaves and build the tree balanced by
       construction (heights of the two halves differ by at most one). *)
    let chunks = (n + target_chunk - 1) / target_chunk in
    let chunk i =
      let lo = i * target_chunk in
      Leaf (String.sub s lo (min target_chunk (n - lo)))
    in
    let rec build lo hi =
      if hi - lo = 1 then chunk lo
      else
        let mid = (lo + hi) / 2 in
        node (build lo mid) (build mid hi)
    in
    build 0 chunks
  end

(* [split t i] cuts into the first [i] bytes and the rest; both halves are
   well-formed.  O(log n) joins along the cut path. *)
let rec split t i =
  match t with
  | Leaf s ->
    let n = String.length s in
    if i <= 0 then (empty, t)
    else if i >= n then (t, empty)
    else (Leaf (String.sub s 0 i), Leaf (String.sub s i (n - i)))
  | Node { l; r; _ } ->
    let ll = length l in
    if i < ll then (
      let a, b = split l i in
      (a, join b r))
    else if i > ll then (
      let a, b = split r (i - ll) in
      (join l a, b))
    else (l, r)

let insert t pos s =
  if String.length s = 0 then t
  else
    let a, b = split t pos in
    join (join a (of_string s)) b

let delete t ~pos ~len =
  let a, rest = split t pos in
  let _, b = split rest len in
  join a b

let iter_chunks f t =
  let rec go = function
    | Leaf "" -> ()
    | Leaf s -> f s
    | Node { l; r; _ } ->
      go l;
      go r
  in
  go t

let fold_chunks f acc t =
  let acc = ref acc in
  iter_chunks (fun s -> acc := f !acc s) t;
  !acc

let to_string t =
  match t with
  | Leaf s -> s
  | Node { len; _ } ->
    let b = Buffer.create len in
    iter_chunks (Buffer.add_string b) t;
    Buffer.contents b

let sub t pos len =
  let _, rest = split t pos in
  let piece, _ = split rest len in
  to_string piece

(* A chunk cursor: the stack holds right subtrees still to visit.  Lets two
   ropes (or a rope and a flat string) be compared chunk-by-chunk without
   flattening either side. *)
let rec push_left t stack = match t with Leaf s -> (s, stack) | Node { l; r; _ } -> push_left l (r :: stack)

(* Empty chunks (the root leaf of an empty rope) are skipped so the stream
   of a ["" ] rope is indistinguishable from the stream of a drained one. *)
let rec next_chunk = function
  | [] -> None
  | t :: stack ->
    let s, stack = push_left t stack in
    if String.length s = 0 then next_chunk stack else Some (s, stack)

let equal_string t s =
  length t = String.length s
  && begin
       let off = ref 0 in
       let ok = ref true in
       iter_chunks
         (fun chunk ->
           let n = String.length chunk in
           if !ok && String.sub s !off n <> chunk then ok := false;
           off := !off + n)
         t;
       !ok
     end

let equal a b =
  length a = length b
  && begin
       (* Walk both chunk streams, comparing the overlap of the current
          chunks; chunk boundaries need not line up. *)
       let rec go (ca, ia) sa (cb, ib) sb =
         let ra = String.length ca - ia and rb = String.length cb - ib in
         if ra = 0 then
           match next_chunk sa with
           | None -> rb = 0 && next_chunk sb = None
           | Some (ca, sa) -> go (ca, 0) sa (cb, ib) sb
         else if rb = 0 then
           match next_chunk sb with
           | None -> false
           | Some (cb, sb) -> go (ca, ia) sa (cb, 0) sb
         else
           let k = min ra rb in
           String.sub ca ia k = String.sub cb ib k && go (ca, ia + k) sa (cb, ib + k) sb
       in
       go ("", 0) [ a ] ("", 0) [ b ]
     end

type stats =
  { chunks : int
  ; depth : int
  ; min_leaf : int
  ; max_leaf : int
  }

let stats t =
  let chunks = ref 0 and min_leaf = ref max_int and max_leaf = ref 0 in
  iter_chunks
    (fun s ->
      incr chunks;
      min_leaf := min !min_leaf (String.length s);
      max_leaf := max !max_leaf (String.length s))
    t;
  if !chunks = 0 then { chunks = 0; depth = height t; min_leaf = 0; max_leaf = 0 }
  else { chunks = !chunks; depth = height t; min_leaf = !min_leaf; max_leaf = !max_leaf }

(* Structural invariant checker, used by the property battery: cached
   lengths/heights honest, no empty leaf below the root, leaves within the
   chunk bound, and every sibling pair balanced within 2. *)
let check t =
  let rec go ~root = function
    | Leaf s ->
      if String.length s > max_chunk then
        Error (Printf.sprintf "leaf of %d bytes exceeds max_chunk %d" (String.length s) max_chunk)
      else if String.length s = 0 && not root then Error "empty leaf below the root"
      else Ok (String.length s, 0)
    | Node { l; r; len; ht } -> (
      match go ~root:false l with
      | Error _ as e -> e
      | Ok (ll, hl) -> (
        match go ~root:false r with
        | Error _ as e -> e
        | Ok (rl, hr) ->
          if ll + rl <> len then Error (Printf.sprintf "cached len %d, actual %d" len (ll + rl))
          else if 1 + max hl hr <> ht then
            Error (Printf.sprintf "cached height %d, actual %d" ht (1 + max hl hr))
          else if abs (hl - hr) > 2 then
            Error (Printf.sprintf "unbalanced node: heights %d vs %d" hl hr)
          else Ok (len, ht)))
  in
  match go ~root:true t with Ok _ -> Ok () | Error _ as e -> e
