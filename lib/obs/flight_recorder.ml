(* The flight recorder is the always-on counterpart of the sink: a bounded
   ring of recent events per component, recorded regardless of the sink
   verbosity, so a crash or refusal can ship its last-N-events post-mortem
   even from a run that traced nothing.  Recording is one gated branch plus
   a ring store; dumping renders the *structural* view (kind/task/args, no
   seq/ts), which is what makes dumps byte-comparable across executors and
   reruns of the same seed. *)

type t =
  { name : string
  ; cap : int
  ; ring : Event.t option array
  ; mutable head : int  (* next write slot *)
  ; mutable len : int
  ; mutable recorded : int  (* total ever recorded, evicted included *)
  }

let default_capacity = 256

(* One global on/off switch, separate from the sink verbosity: the recorder
   defaults ON (it is the post-mortem of last resort) and the overhead
   bench gates that this default stays within noise of recorder-off. *)
let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Process-global registry, newest instance wins per name: components that
   are re-created per run (shard servers in a fuzz loop) keep one live
   recorder per lane, and [dump_all] sees exactly the latest run's rings. *)
let registry : (string * t) list ref = ref []
let registry_lock = Mutex.create ()

let create ?(capacity = default_capacity) name =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity must be positive";
  let t = { name; cap = capacity; ring = Array.make capacity None; head = 0; len = 0; recorded = 0 } in
  Mutex.protect registry_lock (fun () ->
      registry := (name, t) :: List.remove_assoc name !registry);
  t

let name t = t.name
let capacity t = t.cap
let length t = t.len
let recorded t = t.recorded

let record t e =
  if Atomic.get enabled_flag then begin
    t.ring.(t.head) <- Some e;
    t.head <- (t.head + 1) mod t.cap;
    if t.len < t.cap then t.len <- t.len + 1;
    t.recorded <- t.recorded + 1
  end

let clear t =
  Array.fill t.ring 0 t.cap None;
  t.head <- 0;
  t.len <- 0

(* Oldest-first: the ring's eviction order is the dump's reading order. *)
let events t =
  let start = (t.head - t.len + t.cap) mod t.cap in
  List.init t.len (fun i ->
      match t.ring.((start + i) mod t.cap) with
      | Some e -> e
      | None -> assert false)

(* Structural dump lines: kind, task and structural args only.  seq/ts_ns
   are run-local (allocation- and clock-ordered) and would make two
   identical post-mortems compare unequal; what a dump must witness is the
   event *sequence*, which survives intact. *)
let line_of_event (e : Event.t) =
  let kind, task, args = Event.structure e in
  Json.to_string
    (Json.Obj
       [ ("kind", Json.String (Event.kind_to_string kind))
       ; ("task", Json.String task)
       ; ("args", Json.Obj (List.map (fun (k, v) -> (k, Trace_jsonl.arg_to_json v)) args))
       ])

let dump_lines t = List.map line_of_event (events t)

let all () = List.sort (fun (a, _) (b, _) -> String.compare a b) !registry

let dump_all () = List.map (fun (name, t) -> (name, dump_lines t)) (all ())

(* --- hazard-triggered dumps -------------------------------------------------- *)

(* [trigger] snapshots every registered ring at the moment something went
   wrong (a Nack, a chaos resume, a DetSan hazard) and keeps the latest
   snapshot for whoever reports the failure — the fuzz targets embed it in
   their reports, [write_dir] persists it for CI artifacts. *)
let last : (string * (string * string list) list) option ref = ref None

let trigger ~reason =
  if Atomic.get enabled_flag then
    let dumps = dump_all () in
    Mutex.protect registry_lock (fun () -> last := Some (reason, dumps))

let last_trigger () = !last
let clear_trigger () = Mutex.protect registry_lock (fun () -> last := None)

(* Run isolation for fuzz loops: a shrunk 1-shard replay must not dump the
   stale shard1..3 rings a previous 4-shard run left registered. *)
let reset () =
  Mutex.protect registry_lock (fun () ->
      registry := [];
      last := None)

let write_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, lines) ->
      let path = Filename.concat dir (Trace_jsonl.lane_file name ^ ".flight.jsonl") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            lines))
    (dump_all ())
