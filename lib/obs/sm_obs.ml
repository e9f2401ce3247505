(** The observability facade: [Sm_obs] re-exports every obs module and
    offers the two operations instrumentation sites actually use — the
    verbosity check and the emit.

    The intended site shape keeps the disabled path to one load+branch and
    allocates the event only when it will be consumed:

    {[
      if Sm_obs.on Sm_obs.Debug then
        Sm_obs.emit (Sm_obs.Event.make ~task ~task_id ~args Sm_obs.Event.Merge_child)
    ]} *)

module Clock = Clock
module Verbosity = Verbosity
module Event = Event
module Metrics = Metrics
module Sink = Sink
module Span = Span
module Json = Json
module Trace_jsonl = Trace_jsonl
module Trace_chrome = Trace_chrome
module Doc_profile = Doc_profile
module Trace_model = Trace_model
module Trace_diff = Trace_diff
module Trace_ctx = Trace_ctx
module Trace_stitch = Trace_stitch
module Critical_path = Critical_path
module Attribution = Attribution
module Expo = Expo
module Flight_recorder = Flight_recorder

type level = Verbosity.level =
  | Off
  | Error
  | Info
  | Debug
  | Trace

let set_level = Verbosity.set
let level = Verbosity.get
let on = Verbosity.enabled
let set_sink = Sink.set
let reset_sink = Sink.reset
let emit = Sink.emit
let flush = Sink.flush

let note ?(level = Verbosity.Trace) ?(args = []) ~task ~task_id name =
  if Verbosity.enabled level then
    emit (Event.make ~task ~task_id ~args:(("name", Event.S name) :: args) Event.Note)
