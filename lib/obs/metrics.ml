type counter =
  { cname : string
  ; cell : int Atomic.t
  }

type histogram =
  { hname : string
  ; hlock : Mutex.t
  ; samples : float Sm_util.Vec.t
  }

type metric =
  | Counter of counter
  | Histogram of histogram

(* Recording is gated on one flag so the hot paths (OT transform counting,
   workspace-copy timing) cost an atomic load and a branch when profiling is
   off.  Reading is always allowed. *)
let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let is_enabled () = Atomic.get enabled_flag

let registry : (string, metric) Hashtbl.t = Hashtbl.create 32
let registry_lock = Mutex.create ()

let register name make cast =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> cast m
      | None ->
        let m = make () in
        Hashtbl.replace registry name m;
        cast m)

let counter name =
  register name
    (fun () -> Counter { cname = name; cell = Atomic.make 0 })
    (function
      | Counter c -> c
      | Histogram _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is a histogram" name))

let histogram name =
  register name
    (fun () ->
      Histogram
        { hname = name
        ; hlock = Mutex.create ()
        ; samples = Sm_util.Vec.create ()
        })
    (function
      | Histogram h -> h
      | Counter _ -> invalid_arg (Printf.sprintf "Metrics.histogram: %S is a counter" name))

let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1
let value c = Atomic.get c.cell

let observe h x =
  if Atomic.get enabled_flag then Mutex.protect h.hlock (fun () -> Sm_util.Vec.push h.samples x)

let observe_ns h ~since = observe h (float_of_int (Clock.now_ns () - since))

let samples h = Mutex.protect h.hlock (fun () -> Sm_util.Vec.to_list h.samples)

let summary h =
  match samples h with [] -> None | xs -> Some (Sm_util.Stats.summarize xs)

let percentile h ~p =
  match samples h with [] -> None | xs -> Some (Sm_util.Stats.percentile xs ~p)

let time h f =
  if Atomic.get enabled_flag then begin
    let t0 = Clock.now_ns () in
    Fun.protect ~finally:(fun () -> observe_ns h ~since:t0) f
  end
  else f ()

let sorted_metrics () =
  Mutex.protect registry_lock (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  |> List.sort (fun a b ->
         let name = function Counter c -> c.cname | Histogram h -> h.hname in
         String.compare (name a) (name b))

let counters () =
  List.filter_map (function Counter c -> Some (c.cname, value c) | Histogram _ -> None)
    (sorted_metrics ())

let histograms () =
  List.filter_map
    (function
      | Histogram h -> Option.map (fun s -> (h.hname, s)) (summary h)
      | Counter _ -> None)
    (sorted_metrics ())

let raw_histograms () =
  List.filter_map
    (function
      | Histogram h -> ( match samples h with [] -> None | xs -> Some (h.hname, xs))
      | Counter _ -> None)
    (sorted_metrics ())

let reset () =
  List.iter
    (function
      | Counter c -> Atomic.set c.cell 0
      | Histogram h ->
        Mutex.protect h.hlock (fun () -> Sm_util.Vec.clear h.samples))
    (sorted_metrics ())

let dump ppf () =
  List.iter
    (function
      | Counter c ->
        let v = value c in
        if v <> 0 then Format.fprintf ppf "%-32s %d@." c.cname v
      | Histogram h -> (
        match summary h with
        | None -> ()
        | Some s ->
          let p95 = Option.value ~default:nan (percentile h ~p:95.0) in
          Format.fprintf ppf "%-32s n=%d mean=%.0f p50=%.0f p95=%.0f max=%.0f@." h.hname s.n
            s.mean s.median p95 s.max))
    (sorted_metrics ())
