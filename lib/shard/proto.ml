module C = Sm_util.Codec
module Frame = Sm_dist.Wire.Frame

type payload =
  | Delta of (int * int * int * string) list
  | Snap of Sm_dist.Wire.entries

type c2s =
  | Hello of { client : string }
  | Resume of
      { session : int
      ; req : int
      ; cursors : (int * int) list
      }
  | Edit of
      { session : int
      ; req : int
      ; eid : int
      ; ops : Sm_dist.Wire.entries
      }
  | Poll of
      { session : int
      ; req : int
      }

type s2c =
  | Welcome of
      { session : int
      ; payload : payload
      }
  | Ack of
      { session : int
      ; req : int
      ; payload : payload
      }
  | Nack of
      { session : int
      ; req : int
      ; reason : string
      }

let delta_entries_codec = C.list (C.pair (C.pair C.int C.int) (C.pair C.int C.string))

let payload_codec =
  C.tagged
    ~tag:(function Delta _ -> 0 | Snap _ -> 1)
    ~write:(fun buf -> function
      | Delta entries ->
        C.W.value delta_entries_codec buf
          (List.map (fun (id, f, t, ops) -> ((id, f), (t, ops))) entries)
      | Snap entries -> C.W.value Sm_dist.Wire.entries_codec buf entries)
    ~read:(fun tag r ->
      match tag with
      | 0 ->
        Delta
          (List.map (fun ((id, f), (t, ops)) -> (id, f, t, ops)) (C.R.value delta_entries_codec r))
      | 1 -> Snap (C.R.value Sm_dist.Wire.entries_codec r)
      | t -> raise (C.Decode_error (Printf.sprintf "Proto.payload: unknown tag %d" t)))

let revs_codec = C.list (C.pair C.int C.int)

(* Tag 3 is unassigned so that Poll keeps its wire tag 4; a stray 3 is an
   unknown tag like any other. *)
let c2s_codec =
  C.tagged
    ~tag:(function Hello _ -> 0 | Resume _ -> 1 | Edit _ -> 2 | Poll _ -> 4)
    ~write:(fun buf -> function
      | Hello { client } -> C.W.string buf client
      | Resume { session; req; cursors } ->
        C.W.int buf session;
        C.W.int buf req;
        C.W.value revs_codec buf cursors
      | Edit { session; req; eid; ops } ->
        C.W.int buf session;
        C.W.int buf req;
        C.W.int buf eid;
        C.W.value Sm_dist.Wire.entries_codec buf ops
      | Poll { session; req } ->
        C.W.int buf session;
        C.W.int buf req)
    ~read:(fun tag r ->
      match tag with
      | 0 -> Hello { client = C.R.string r }
      | 1 ->
        let session = C.R.int r in
        let req = C.R.int r in
        let cursors = C.R.value revs_codec r in
        Resume { session; req; cursors }
      | 2 ->
        let session = C.R.int r in
        let req = C.R.int r in
        let eid = C.R.int r in
        let ops = C.R.value Sm_dist.Wire.entries_codec r in
        Edit { session; req; eid; ops }
      | 4 ->
        let session = C.R.int r in
        let req = C.R.int r in
        Poll { session; req }
      | t -> raise (C.Decode_error (Printf.sprintf "Proto.c2s: unknown tag %d" t)))

let s2c_codec =
  C.tagged
    ~tag:(function Welcome _ -> 0 | Ack _ -> 1 | Nack _ -> 2)
    ~write:(fun buf -> function
      | Welcome { session; payload } ->
        C.W.int buf session;
        C.W.value payload_codec buf payload
      | Ack { session; req; payload } ->
        C.W.int buf session;
        C.W.int buf req;
        C.W.value payload_codec buf payload
      | Nack { session; req; reason } ->
        C.W.int buf session;
        C.W.int buf req;
        C.W.string buf reason)
    ~read:(fun tag r ->
      match tag with
      | 0 ->
        let session = C.R.int r in
        let payload = C.R.value payload_codec r in
        Welcome { session; payload }
      | 1 ->
        let session = C.R.int r in
        let req = C.R.int r in
        let payload = C.R.value payload_codec r in
        Ack { session; req; payload }
      | 2 ->
        let session = C.R.int r in
        let req = C.R.int r in
        let reason = C.R.string r in
        Nack { session; req; reason }
      | t -> raise (C.Decode_error (Printf.sprintf "Proto.s2c: unknown tag %d" t)))

(* The frame kind advertises what the payload carries, so a tap (or a future
   proxy) can tell delta traffic from snapshot traffic without decoding. *)
let kind_of_s2c = function
  | Welcome { payload = Delta _; _ } | Ack { payload = Delta _; _ } -> Frame.Delta
  | Welcome { payload = Snap _; _ } | Ack { payload = Snap _; _ } -> Frame.Snapshot
  | Nack _ -> Frame.Control

let seal_c2s ?ctx msg = Frame.seal ?ctx Frame.Control (C.encode c2s_codec msg)

let open_c2s frame =
  match Frame.open_ frame with
  | Frame.Control, ctx, payload -> (ctx, C.decode c2s_codec payload)
  | k, _, _ ->
    raise
      (Frame.Bad_frame
         (Printf.sprintf "client frames are control frames, got %s" (Frame.kind_to_string k)))

let seal_s2c ?ctx msg = Frame.seal ?ctx (kind_of_s2c msg) (C.encode s2c_codec msg)

let open_s2c frame =
  let kind, ctx, payload = Frame.open_ frame in
  let msg = C.decode s2c_codec payload in
  if kind_of_s2c msg <> kind then
    raise
      (Frame.Bad_frame
         (Printf.sprintf "frame advertises %s but carries a %s payload" (Frame.kind_to_string kind)
            (Frame.kind_to_string (kind_of_s2c msg))));
  (ctx, msg)

let payload_bytes = function
  | Delta entries -> List.fold_left (fun a (_, _, _, ops) -> a + String.length ops) 0 entries
  | Snap entries -> List.fold_left (fun a (_, _, st) -> a + String.length st) 0 entries
