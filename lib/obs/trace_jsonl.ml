exception Decode_error of string

let arg_to_json = function
  | Event.I i -> Json.Int i
  | Event.F f -> Json.Float f
  | Event.S s -> Json.String s
  | Event.B b -> Json.Bool b

let arg_of_json = function
  | Json.Int i -> Event.I i
  | Json.Float f -> Event.F f
  | Json.String s -> Event.S s
  | Json.Bool b -> Event.B b
  (* Json prints [Float nan] as [null] (no JSON literal exists for it), so
     [null] decodes back to an nan-valued float argument. *)
  | Json.Null -> Event.F Float.nan
  | Json.List _ | Json.Obj _ -> raise (Decode_error "Trace_jsonl: argument is not a scalar")

let event_to_json (e : Event.t) =
  Json.Obj
    [ ("seq", Json.Int e.seq)
    ; ("ts_ns", Json.Int e.ts_ns)
    ; ("kind", Json.String (Event.kind_to_string e.kind))
    ; ("task", Json.String e.task)
    ; ("task_id", Json.Int e.task_id)
    ; ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) e.args))
    ]

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> raise (Decode_error (Printf.sprintf "Trace_jsonl: missing or ill-typed field %S" name))

let event_of_json j : Event.t =
  let kind_s = field "kind" Json.to_str j in
  let kind =
    match Event.kind_of_string kind_s with
    | Some k -> k
    | None -> raise (Decode_error (Printf.sprintf "Trace_jsonl: unknown kind %S" kind_s))
  in
  let args =
    match Json.member "args" j with
    | Some (Json.Obj fields) -> List.map (fun (k, v) -> (k, arg_of_json v)) fields
    | Some _ -> raise (Decode_error "Trace_jsonl: args is not an object")
    | None -> []
  in
  { seq = field "seq" Json.to_int j
  ; ts_ns = field "ts_ns" Json.to_int j
  ; kind
  ; task = field "task" Json.to_str j
  ; task_id = field "task_id" Json.to_int j
  ; args
  }

let event_to_line e = Json.to_string (event_to_json e)

let event_of_line line =
  match Json.of_string line with
  | j -> event_of_json j
  | exception Json.Parse_error msg -> raise (Decode_error ("Trace_jsonl: " ^ msg))

let sink oc =
  let lock = Mutex.create () in
  Sink.make
    ~flush:(fun () -> Mutex.protect lock (fun () -> flush oc))
    (fun e ->
      let line = event_to_line e in
      Mutex.protect lock (fun () ->
          output_string oc line;
          output_char oc '\n'))

let file_sink path =
  let oc = open_out path in
  let inner = sink oc in
  Sink.make
    ~flush:inner.Sink.flush
    ~close:(fun () ->
      inner.Sink.flush ();
      close_out oc)
    inner.Sink.emit

let lane_file name =
  String.map (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' as c -> c | _ -> '_') name

(* Per-lane routing: one JSONL file per task name under [dir], so a
   multi-component run (clients + shards in one process) leaves the same
   lane-per-file layout a true multi-process run does — ready for
   [Trace_stitch.of_files]. *)
let dir_sink ?(lane = fun (e : Event.t) -> e.Event.task) dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let lock = Mutex.create () in
  let files : (string, out_channel) Hashtbl.t = Hashtbl.create 8 in
  let chan name =
    match Hashtbl.find_opt files name with
    | Some oc -> oc
    | None ->
      let oc = open_out (Filename.concat dir (lane_file name ^ ".jsonl")) in
      Hashtbl.replace files name oc;
      oc
  in
  Sink.make
    ~flush:(fun () -> Mutex.protect lock (fun () -> Hashtbl.iter (fun _ oc -> flush oc) files))
    ~close:(fun () ->
      Mutex.protect lock (fun () ->
          Hashtbl.iter (fun _ oc -> close_out oc) files;
          Hashtbl.reset files))
    (fun e ->
      let line = event_to_line e in
      Mutex.protect lock (fun () ->
          let oc = chan (lane e) in
          output_string oc line;
          output_char oc '\n'))

let fold_channel ic ~init ~f =
  let rec go acc =
    match input_line ic with
    | line -> go (if String.trim line = "" then acc else f acc (event_of_line line))
    | exception End_of_file -> acc
  in
  go init

let fold path ~init ~f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> fold_channel ic ~init ~f)

let load path = List.rev (fold path ~init:[] ~f:(fun acc e -> e :: acc))
