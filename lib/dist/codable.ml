module C = Sm_util.Codec

module type CODABLE_ELT = sig
  include Sm_ot.Op_sig.ELT

  val codec : t C.t
end

module type CODABLE_ORDERED_ELT = sig
  include Sm_ot.Op_sig.ORDERED_ELT

  val codec : t C.t
end

module Int_elt = struct
  type t = int

  let equal = Int.equal
  let compare = Int.compare
  let pp = Format.pp_print_int
  let codec = C.int
end

module String_elt = struct
  type t = string

  let equal = String.equal
  let compare = String.compare
  let pp ppf s = Format.fprintf ppf "%S" s
  let codec = C.string
end

module Counter = struct
  include Sm_ot.Op_counter

  let type_name = "counter"
  let state_codec = C.int
  let op_codec = C.map (fun (Sm_ot.Op_counter.Add n) -> n) (fun n -> Sm_ot.Op_counter.Add n) C.int

  (* Counter journals are already minimal: the packed form is the plain
     tagged op list. *)
  let journal_codec = C.list op_codec
end

module Text = struct
  include Sm_ot.Op_text

  let type_name = "text"

  (* Snapshots ship the flattened bytes, so the wire image is independent of
     the sender's representation and the receiver rebuilds in its own. *)
  let state_codec = C.map Sm_ot.Op_text.to_string Sm_ot.Op_text.of_string C.string

  let op_codec =
    C.tagged
      ~tag:(function Sm_ot.Op_text.Ins _ -> 0 | Sm_ot.Op_text.Del _ -> 1)
      ~write:(fun buf -> function
        | Sm_ot.Op_text.Ins (p, s) ->
          C.W.int buf p;
          C.W.string buf s
        | Sm_ot.Op_text.Del (p, l) ->
          C.W.int buf p;
          C.W.int buf l)
      ~read:(fun tag r ->
        match tag with
        | 0 ->
          let p = C.R.int r in
          let s = C.R.string r in
          Sm_ot.Op_text.Ins (p, s)
        | 1 ->
          let p = C.R.int r in
          let l = C.R.int r in
          Sm_ot.Op_text.Del (p, l)
        | t -> raise (C.Decode_error (Printf.sprintf "Text op: unknown tag %d" t)))

  (* The packed journal, the payload of journal frames: a uvarint count,
     then per op one header [zigzag(pos - prev_pos) * 2 + kind] (kind 0 =
     Ins, 1 = Del) followed by the insert bytes (uvarint length-prefixed)
     or the uvarint delete length.  Positions are delta-encoded against the
     previous op's position — journals hammer on nearby offsets, so most
     headers are one byte where a tagged op list spends four or more. *)
  let journal_codec =
    C.custom
      ~write:(fun buf ops ->
        C.W.value C.uvarint buf (List.length ops);
        let prev = ref 0 in
        List.iter
          (fun op ->
            let pos, kind =
              match op with Sm_ot.Op_text.Ins (p, _) -> (p, 0) | Sm_ot.Op_text.Del (p, _) -> (p, 1)
            in
            let d = pos - !prev in
            let zz = (d lsl 1) lxor (d asr (Sys.int_size - 1)) in
            C.W.value C.uvarint buf ((zz lsl 1) lor kind);
            (match op with
            | Sm_ot.Op_text.Ins (_, s) -> C.W.string buf s
            | Sm_ot.Op_text.Del (_, l) -> C.W.value C.uvarint buf l);
            prev := pos)
          ops)
      ~read:(fun r ->
        let n = C.R.value C.uvarint r in
        let prev = ref 0 in
        List.init n (fun _ ->
            let h = C.R.value C.uvarint r in
            let zz = h lsr 1 in
            let d = (zz lsr 1) lxor (-(zz land 1)) in
            let pos = !prev + d in
            if pos < 0 then raise (C.Decode_error "Text journal: negative position");
            prev := pos;
            if h land 1 = 0 then Sm_ot.Op_text.Ins (pos, C.R.string r)
            else begin
              let l = C.R.value C.uvarint r in
              if l <= 0 then raise (C.Decode_error "Text journal: non-positive delete length");
              Sm_ot.Op_text.Del (pos, l)
            end))
end

module Make_list (Elt : CODABLE_ELT) = struct
  module Op = Sm_ot.Op_list.Make (Elt)
  include Op

  let type_name = "list"
  let state_codec = C.list Elt.codec

  let op_codec =
    C.tagged
      ~tag:(function Op.Ins _ -> 0 | Op.Del _ -> 1 | Op.Set _ -> 2)
      ~write:(fun buf -> function
        | Op.Ins (i, x) ->
          C.W.int buf i;
          C.W.value Elt.codec buf x
        | Op.Del i -> C.W.int buf i
        | Op.Set (i, x) ->
          C.W.int buf i;
          C.W.value Elt.codec buf x)
      ~read:(fun tag r ->
        match tag with
        | 0 ->
          let i = C.R.int r in
          let x = C.R.value Elt.codec r in
          Op.Ins (i, x)
        | 1 -> Op.Del (C.R.int r)
        | 2 ->
          let i = C.R.int r in
          let x = C.R.value Elt.codec r in
          Op.Set (i, x)
        | t -> raise (C.Decode_error (Printf.sprintf "List op: unknown tag %d" t)))

  let journal_codec = C.list op_codec
end

module Make_queue (Elt : CODABLE_ELT) = struct
  module Op = Sm_ot.Op_queue.Make (Elt)
  include Op

  let type_name = "queue"
  let state_codec = C.list Elt.codec

  let op_codec =
    C.tagged
      ~tag:(function Op.Push _ -> 0 | Op.Pop -> 1)
      ~write:(fun buf -> function
        | Op.Push x -> C.W.value Elt.codec buf x
        | Op.Pop -> ())
      ~read:(fun tag r ->
        match tag with
        | 0 -> Op.Push (C.R.value Elt.codec r)
        | 1 -> Op.Pop
        | t -> raise (C.Decode_error (Printf.sprintf "Queue op: unknown tag %d" t)))

  let journal_codec = C.list op_codec
end

module Make_tree (Label : CODABLE_ELT) = struct
  module Op = Sm_ot.Op_tree.Make (Label)
  include Op

  let type_name = "tree"

  let node_codec =
    (* Recursive structure: encode a node as its label, child count, then the
       children — a preorder walk.  [tagged] gives us a writer/reader pair to
       recurse with; the tag itself is constant. *)
    C.tagged
      ~tag:(fun (_ : Op.node) -> 0)
      ~write:(fun buf n ->
        let rec write_node n =
          C.W.value Label.codec buf n.Op.label;
          C.W.int buf (List.length n.Op.children);
          List.iter write_node n.Op.children
        in
        write_node n)
      ~read:(fun tag r ->
        if tag <> 0 then raise (C.Decode_error (Printf.sprintf "Tree node: unknown tag %d" tag));
        let rec read_node () =
          let label = C.R.value Label.codec r in
          let n = C.R.int r in
          if n < 0 then raise (C.Decode_error "Tree node: negative child count");
          let children = List.init n (fun _ -> read_node ()) in
          { Op.label; children }
        in
        read_node ())

  let state_codec = C.list node_codec
  let path_codec = C.list C.int

  let op_codec =
    C.tagged
      ~tag:(function Op.Insert _ -> 0 | Op.Delete _ -> 1 | Op.Relabel _ -> 2)
      ~write:(fun buf -> function
        | Op.Insert (p, n) ->
          C.W.value path_codec buf p;
          C.W.value node_codec buf n
        | Op.Delete p -> C.W.value path_codec buf p
        | Op.Relabel (p, l) ->
          C.W.value path_codec buf p;
          C.W.value Label.codec buf l)
      ~read:(fun tag r ->
        match tag with
        | 0 ->
          let p = C.R.value path_codec r in
          let n = C.R.value node_codec r in
          Op.Insert (p, n)
        | 1 -> Op.Delete (C.R.value path_codec r)
        | 2 ->
          let p = C.R.value path_codec r in
          let l = C.R.value Label.codec r in
          Op.Relabel (p, l)
        | t -> raise (C.Decode_error (Printf.sprintf "Tree op: unknown tag %d" t)))

  let journal_codec = C.list op_codec
end

module Make_register (V : CODABLE_ELT) = struct
  module Op = Sm_ot.Op_register.Make (V)
  include Op

  let type_name = "register"
  let state_codec = V.codec
  let op_codec = C.map (fun (Op.Assign v) -> v) (fun v -> Op.Assign v) V.codec
  let journal_codec = C.list op_codec
end

module Make_map (Key : CODABLE_ORDERED_ELT) (Value : CODABLE_ELT) = struct
  module Op = Sm_ot.Op_map.Make (Key) (Value)
  include Op

  let type_name = "map"

  let state_codec =
    C.map Op.Key_map.bindings
      (fun bindings -> List.fold_left (fun m (k, v) -> Op.Key_map.add k v m) Op.Key_map.empty bindings)
      (C.list (C.pair Key.codec Value.codec))

  let op_codec =
    C.tagged
      ~tag:(function Op.Put _ -> 0 | Op.Remove _ -> 1)
      ~write:(fun buf -> function
        | Op.Put (k, v) ->
          C.W.value Key.codec buf k;
          C.W.value Value.codec buf v
        | Op.Remove k -> C.W.value Key.codec buf k)
      ~read:(fun tag r ->
        match tag with
        | 0 ->
          let k = C.R.value Key.codec r in
          let v = C.R.value Value.codec r in
          Op.Put (k, v)
        | 1 -> Op.Remove (C.R.value Key.codec r)
        | t -> raise (C.Decode_error (Printf.sprintf "Map op: unknown tag %d" t)))

  let journal_codec = C.list op_codec
end
