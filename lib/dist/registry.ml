module Ws = Sm_mergeable.Workspace

module type CODABLE_DATA = sig
  include Sm_mergeable.Data.S

  val state_codec : state Sm_util.Codec.t

  val journal_codec : op list Sm_util.Codec.t
  (* the packed whole-journal form *)
end

type ('s, 'o) rkey =
  { wire_id : int
  ; wkey : ('s, 'o) Ws.key
  ; state_codec : 's Sm_util.Codec.t
  ; journal_codec : 'o list Sm_util.Codec.t
  }

type packed = V : ('s, 'o) rkey -> packed

type ctx =
  { ws : Ws.t ref
  ; do_sync : unit -> [ `Granted | `Refused ]
  ; rank : int
  ; argument : string
  }

type t =
  { mutable values : packed array (* indexed by wire id *)
  ; tasks : (string, ctx -> unit) Hashtbl.t
  }

let create () = { values = [||]; tasks = Hashtbl.create 8 }

let value (type s o) t ~name (module D : CODABLE_DATA with type state = s and type op = o) :
    (s, o) rkey =
  let rkey =
    { wire_id = Array.length t.values
    ; wkey = Ws.create_key (module D) ~name
    ; state_codec = D.state_codec
    ; journal_codec = D.journal_codec
    }
  in
  t.values <- Array.append t.values [| V rkey |];
  rkey

(* [f] over the registered values in wire-id order, keeping the [Some]s. *)
let filter_values t f =
  Array.fold_right (fun v acc -> match f v with Some x -> x :: acc | None -> acc) t.values []

let workspace_key rk = rk.wkey

let find_value t id =
  if id >= 0 && id < Array.length t.values then t.values.(id)
  else invalid_arg (Printf.sprintf "Registry: unknown wire id %d" id)

let wire_name t id =
  let (V rk) = find_value t id in
  Ws.key_name rk.wkey

(* --- task ctx -------------------------------------------------------------- *)

let read ctx rk = Ws.read !(ctx.ws) rk.wkey
let update ctx rk op = Ws.update !(ctx.ws) rk.wkey op
let sync ctx = ctx.do_sync ()
let rank ctx = ctx.rank
let argument ctx = ctx.argument
let make_ctx ~ws ~do_sync ~rank ~argument = { ws; do_sync; rank; argument }

let task t ~name body =
  if Hashtbl.mem t.tasks name then invalid_arg (Printf.sprintf "Registry: duplicate task %S" name);
  Hashtbl.replace t.tasks name body;
  name

let find_task t name = Hashtbl.find t.tasks name

(* --- wire plumbing ---------------------------------------------------------- *)

let encode_snapshot t ws =
  filter_values t (fun (V rk) ->
      if Ws.mem ws rk.wkey then
        Some (rk.wire_id, Sm_util.Codec.encode rk.state_codec (Ws.read ws rk.wkey))
      else None)

let build_workspace t snapshot =
  let ws = Ws.create () in
  List.iter
    (fun (id, bytes) ->
      let (V rk) = find_value t id in
      Ws.init ws rk.wkey (Sm_util.Codec.decode rk.state_codec bytes))
    snapshot;
  ws

(* Compacted like [encode_delta]'s suffixes (apply-equivalent, DESIGN §5c):
   a Node's journal upload and a shard client's pending batch are the same
   encoding. *)
let encode_journal t ws =
  filter_values t (fun (V rk) ->
      if Ws.mem ws rk.wkey then
        match Ws.journal ws rk.wkey with
        | [] -> None
        | ops -> Some (rk.wire_id, Sm_util.Codec.encode rk.journal_codec (Ws.compact rk.wkey ops))
      else None)

(* --- per-wire-id revisions: remote merges and shard delta sync -------------- *)

let applied_ops = Sm_obs.Metrics.counter "registry.applied_delta_ops"

let revisions t ws =
  filter_values t (fun (V rk) ->
      if Ws.mem ws rk.wkey then Some (rk.wire_id, Ws.version_of ws rk.wkey) else None)

let encode_delta ?memo t ws ~since =
  filter_values t (fun (V rk) ->
      if not (Ws.mem ws rk.wkey) then None
      else
        let to_rev = Ws.version_of ws rk.wkey in
        let from_rev = since rk.wire_id in
        if from_rev >= to_rev then None
        else
          let encode () =
            let ops = Ws.compact rk.wkey (Ws.journal_since ws rk.wkey ~version:from_rev) in
            Sm_util.Codec.encode rk.journal_codec ops
          in
          let bytes =
            match memo with
            | None -> encode ()
            | Some tbl -> (
              let key = (rk.wire_id, from_rev, to_rev) in
              match Hashtbl.find_opt tbl key with
              | Some b -> b
              | None ->
                let b = encode () in
                Hashtbl.add tbl key b;
                b)
          in
          Some (rk.wire_id, from_rev, to_rev, bytes))

(* Compacted suffixes are apply-equivalent to the journal slice but not
   op-for-op aligned with it, so a partially applied delta cannot be
   prefix-skipped.  The shard protocol never produces partial overlap
   (stop-and-wait sessions + per-session reply replay): a delta is either
   entirely stale ([to_rev <= cursor], a duplicate — skipped) or applies
   exactly at the cursor. *)
let apply_delta t ~into ~cursor entries =
  List.iter
    (fun (id, from_rev, to_rev, bytes) ->
      let cur = cursor id in
      if to_rev > cur then begin
        if from_rev <> cur then
          invalid_arg
            (Printf.sprintf "Registry.apply_delta: gap for wire id %d (have rev %d, delta %d..%d)"
               id cur from_rev to_rev);
        let (V rk) = find_value t id in
        let ops = Sm_util.Codec.decode rk.journal_codec bytes in
        Sm_obs.Metrics.add applied_ops (List.length ops);
        Ws.update_trimming into rk.wkey ops
      end)
    entries

let merge_edit t ~into ~base_rev entries =
  List.fold_left
    (fun acc (id, bytes) ->
      let (V rk) = find_value t id in
      let ops = Sm_util.Codec.decode rk.journal_codec bytes in
      Ws.merge_ops into rk.wkey ~ops ~base_version:(base_rev id);
      acc + List.length ops)
    0 entries
