let with_ ?(level = Verbosity.Debug) ?(args = []) ?hist ~task ~task_id name f =
  let traced = Verbosity.enabled level in
  let timed = match hist with Some _ -> Metrics.is_enabled () | None -> false in
  if not (traced || timed) then f ()
  else begin
    if traced then
      Sink.emit (Event.make ~task ~task_id ~args:(("name", Event.S name) :: args) Event.Phase_begin);
    let t0 = if timed then Clock.now_ns () else 0 in
    Fun.protect
      ~finally:(fun () ->
        (match hist with
        | Some h when timed -> Metrics.observe_ns h ~since:t0
        | Some _ | None -> ());
        if traced then
          Sink.emit (Event.make ~task ~task_id ~args:[ ("name", Event.S name) ] Event.Phase_end))
      f
  end
