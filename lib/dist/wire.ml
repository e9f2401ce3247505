module C = Sm_util.Codec

(* --- framing ---------------------------------------------------------------- *)

module Frame = struct
  exception Bad_frame of string

  exception
    Unsupported_version of
      { got : int
      ; speaks : int
      }

  type kind =
    | Control
    | Delta
    | Snapshot

  let magic = "SM"

  (* Magic, u16 version, kind byte, u32 payload length, then a u8 trace
     context length and that many context bytes (the
     {!Sm_obs.Trace_ctx.codec} encoding, 0 bytes without a context), then the
     payload.  Journal payloads use each type's packed binary codec.  This is
     the only layout: [seal] always stamps [version] and [open_] rejects any
     other number with {!Unsupported_version}. *)
  let version = 3

  let kind_to_string = function Control -> "control" | Delta -> "delta" | Snapshot -> "snapshot"
  let kind_tag = function Control -> 0 | Delta -> 1 | Snapshot -> 2

  let kind_of_tag = function
    | 0 -> Control
    | 1 -> Delta
    | 2 -> Snapshot
    | t -> raise (Bad_frame (Printf.sprintf "unknown frame kind %d" t))

  let header_len = 2 + 2 + 1 + 4 (* magic + u16 version + kind + u32 length *)

  let ctx_bytes ctx = C.encode Sm_obs.Trace_ctx.codec ctx

  let seal ?ctx kind payload =
    let n = String.length payload in
    if n > 0xFFFF_FFFF then invalid_arg "Wire.Frame.seal: payload too large";
    let cb = match ctx with None -> "" | Some ctx -> ctx_bytes ctx in
    let cn = String.length cb in
    if cn > 0xFF then invalid_arg "Wire.Frame.seal: context too large";
    let b = Bytes.create (header_len + 1 + cn + n) in
    Bytes.blit_string magic 0 b 0 2;
    Bytes.set_uint16_be b 2 version;
    Bytes.set_uint8 b 4 (kind_tag kind);
    Bytes.set_int32_be b 5 (Int32.of_int n);
    Bytes.set_uint8 b header_len cn;
    Bytes.blit_string cb 0 b (header_len + 1) cn;
    Bytes.blit_string payload 0 b (header_len + 1 + cn) n;
    Bytes.unsafe_to_string b

  let open_ frame =
    let len = String.length frame in
    if len < header_len then
      raise (Bad_frame (Printf.sprintf "short frame: %d bytes (< %d-byte header)" len header_len));
    if String.sub frame 0 2 <> magic then
      raise
        (Bad_frame
           (Printf.sprintf "bad magic %S: not a Spawn/Merge frame" (String.sub frame 0 2)));
    let v = String.get_uint16_be frame 2 in
    if v <> version then raise (Unsupported_version { got = v; speaks = version });
    let kind = kind_of_tag (String.get_uint8 frame 4) in
    let n = Int32.to_int (String.get_int32_be frame 5) land 0xFFFF_FFFF in
    if len < header_len + 1 then
      raise (Bad_frame (Printf.sprintf "version-%d frame truncated before context" v));
    let cn = String.get_uint8 frame header_len in
    if len - header_len - 1 - cn <> n then
      raise
        (Bad_frame
           (Printf.sprintf "frame length mismatch: header says %d payload bytes, got %d" n
              (len - header_len - 1 - cn)));
    let ctx =
      if cn = 0 then None
      else
        match C.decode Sm_obs.Trace_ctx.codec (String.sub frame (header_len + 1) cn) with
        | ctx -> Some ctx
        | exception C.Decode_error msg ->
          raise (Bad_frame (Printf.sprintf "bad frame context: %s" msg))
    in
    (kind, ctx, String.sub frame (header_len + 1 + cn) n)
end

let seal_control ?ctx payload = Frame.seal ?ctx Frame.Control payload

let open_control frame =
  match Frame.open_ frame with
  | Frame.Control, ctx, payload -> (ctx, payload)
  | k, _, _ ->
    raise
      (Frame.Bad_frame
         (Printf.sprintf "expected a control frame, got a %s frame" (Frame.kind_to_string k)))

type entries = (int * int * string) list

type down =
  | Spawn of
      { uid : int
      ; task : string
      ; argument : string
      ; snapshot : entries
      }
  | Reply of
      { uid : int
      ; granted : bool
      ; snapshot : entries
      }
  | Stop

type up =
  | Sync_request of
      { uid : int
      ; journal : entries
      }
  | Task_completed of
      { uid : int
      ; journal : entries
      }
  | Task_failed of
      { uid : int
      ; reason : string
      }

let entries_codec = C.list (C.triple C.int C.int C.string)

let down_codec =
  C.tagged
    ~tag:(function Spawn _ -> 0 | Reply _ -> 1 | Stop -> 2)
    ~write:(fun buf -> function
      | Spawn { uid; task; argument; snapshot } ->
        C.W.int buf uid;
        C.W.string buf task;
        C.W.string buf argument;
        C.W.value entries_codec buf snapshot
      | Reply { uid; granted; snapshot } ->
        C.W.int buf uid;
        C.W.bool buf granted;
        C.W.value entries_codec buf snapshot
      | Stop -> ())
    ~read:(fun tag r ->
      match tag with
      | 0 ->
        let uid = C.R.int r in
        let task = C.R.string r in
        let argument = C.R.string r in
        let snapshot = C.R.value entries_codec r in
        Spawn { uid; task; argument; snapshot }
      | 1 ->
        let uid = C.R.int r in
        let granted = C.R.bool r in
        let snapshot = C.R.value entries_codec r in
        Reply { uid; granted; snapshot }
      | 2 -> Stop
      | t -> raise (C.Decode_error (Printf.sprintf "Wire.down: unknown tag %d" t)))

let up_codec =
  C.tagged
    ~tag:(function Sync_request _ -> 0 | Task_completed _ -> 1 | Task_failed _ -> 2)
    ~write:(fun buf -> function
      | Sync_request { uid; journal } | Task_completed { uid; journal } ->
        C.W.int buf uid;
        C.W.value entries_codec buf journal
      | Task_failed { uid; reason } ->
        C.W.int buf uid;
        C.W.string buf reason)
    ~read:(fun tag r ->
      match tag with
      | 0 ->
        let uid = C.R.int r in
        let journal = C.R.value entries_codec r in
        Sync_request { uid; journal }
      | 1 ->
        let uid = C.R.int r in
        let journal = C.R.value entries_codec r in
        Task_completed { uid; journal }
      | 2 ->
        let uid = C.R.int r in
        let reason = C.R.string r in
        Task_failed { uid; reason }
      | t -> raise (C.Decode_error (Printf.sprintf "Wire.up: unknown tag %d" t)))

let uid_of_up = function
  | Sync_request { uid; _ } | Task_completed { uid; _ } | Task_failed { uid; _ } -> uid

(* Trace lane ids: local Runtime tasks use their small allocation-ordered
   ids, so the distributed layer parks far above them — the coordinator on
   one fixed lane, each remote task on a lane derived from its uid.  Shared
   here because both the coordinator and the node sides tag events. *)
let obs_coordinator_tid = 1_000_000
let obs_task_tid uid = 1_000_001 + uid
let obs_task_name ~rank ~uid = Printf.sprintf "rank%d/task%d" rank uid
