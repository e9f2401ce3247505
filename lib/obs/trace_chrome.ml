(* Which begin kind a given end kind closes. *)
let opener = function
  | Event.Task_end -> Some Event.Task_start
  | Event.Merge_end -> Some Event.Merge_begin
  | Event.Sync_end -> Some Event.Sync_begin
  | Event.Phase_end -> Some Event.Phase_begin
  | Event.Epoch_end -> Some Event.Epoch_begin
  | _ -> None

let is_opener = function
  | Event.Task_start | Event.Merge_begin | Event.Sync_begin | Event.Phase_begin
  | Event.Epoch_begin ->
    true
  | _ -> false

let str_arg name (e : Event.t) =
  match List.assoc_opt name e.args with Some (Event.S s) -> Some s | _ -> None

let span_name (e : Event.t) =
  match e.kind with
  | Event.Task_start -> "task " ^ e.task
  | Event.Merge_begin -> "merge:" ^ Option.value ~default:"?" (str_arg "kind" e)
  | Event.Sync_begin -> "sync"
  | Event.Phase_begin -> Option.value ~default:"phase" (str_arg "name" e)
  | Event.Epoch_begin -> "epoch"
  | k -> Event.kind_to_string k

let args_json (e : Event.t) =
  Json.Obj
    (("kind", Json.String (Event.kind_to_string e.kind))
    :: ("task", Json.String e.task)
    :: List.map (fun (k, v) -> (k, Trace_jsonl.arg_to_json v)) e.args)

(* Pair begin/end events per thread id into Chrome "X" (complete) slices;
   everything unpaired becomes an instant.  The per-tid stack tolerates
   interleaved span kinds (an end closes the nearest matching begin). *)
let to_json events =
  let evs = List.sort (fun (a : Event.t) b -> compare (a.ts_ns, a.seq) (b.ts_ns, b.seq)) events in
  let t0 = match evs with [] -> 0 | e :: _ -> e.Event.ts_ns in
  let last_ts = List.fold_left (fun _ (e : Event.t) -> e.ts_ns) t0 evs in
  let us ts = float_of_int (ts - t0) /. 1000.0 in
  let stacks : (int, Event.t list) Hashtbl.t = Hashtbl.create 16 in
  let names : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  let complete (b : Event.t) ~until ~(closing : Event.t option) =
    let extra = match closing with None -> [] | Some e -> e.args in
    let merged = { b with Event.args = b.Event.args @ extra } in
    out :=
      Json.Obj
        [ ("name", Json.String (span_name b))
        ; ("ph", Json.String "X")
        ; ("pid", Json.Int 1)
        ; ("tid", Json.Int b.task_id)
        ; ("ts", Json.Float (us b.ts_ns))
        ; ("dur", Json.Float (Float.max 0.001 (us until -. us b.ts_ns)))
        ; ("args", args_json merged)
        ]
      :: !out
  in
  let instant (e : Event.t) =
    out :=
      Json.Obj
        [ ("name", Json.String (Event.kind_to_string e.kind))
        ; ("ph", Json.String "i")
        ; ("s", Json.String "t")
        ; ("pid", Json.Int 1)
        ; ("tid", Json.Int e.task_id)
        ; ("ts", Json.Float (us e.ts_ns))
        ; ("args", args_json e)
        ]
      :: !out
  in
  List.iter
    (fun (e : Event.t) ->
      if not (Hashtbl.mem names e.task_id) then Hashtbl.replace names e.task_id e.task;
      if is_opener e.kind then
        Hashtbl.replace stacks e.task_id
          (e :: Option.value ~default:[] (Hashtbl.find_opt stacks e.task_id))
      else
        match opener e.kind with
        | None -> instant e
        | Some bk -> (
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.task_id) in
          let rec split acc = function
            | [] -> None
            | (b : Event.t) :: rest when b.kind = bk -> Some (b, List.rev_append acc rest)
            | b :: rest -> split (b :: acc) rest
          in
          match split [] stack with
          | Some (b, rest) ->
            Hashtbl.replace stacks e.task_id rest;
            complete b ~until:e.ts_ns ~closing:(Some e)
          | None -> instant e))
    evs;
  (* Spans still open at the end of the trace run to the last timestamp. *)
  Hashtbl.iter
    (fun _ stack -> List.iter (fun b -> complete b ~until:last_ts ~closing:None) stack)
    stacks;
  let metadata =
    Hashtbl.fold
      (fun tid name acc ->
        Json.Obj
          [ ("name", Json.String "thread_name")
          ; ("ph", Json.String "M")
          ; ("pid", Json.Int 1)
          ; ("tid", Json.Int tid)
          ; ("args", Json.Obj [ ("name", Json.String name) ])
          ]
        :: acc)
      names []
  in
  Json.Obj
    [ ("traceEvents", Json.List (metadata @ List.rev !out))
    ; ("displayTimeUnit", Json.String "ms")
    ]

let write_file events path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Json.to_string (to_json events)))
