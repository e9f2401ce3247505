module M = Trace_model

type row =
  { task : string
  ; task_id : int
  ; spawns : int
  ; clones : int
  ; spawn_cells : int
  ; merge_batches : int
  ; children_merged : int
  ; ops_folded : int
  ; transforms : int
  ; compact_in : int
  ; compact_out : int
  ; merged_ok : int
  ; aborted : int
  ; validation_failed : int
  ; merge_ns : int
  ; sync_waits : int
  ; sync_ns : int
  ; epochs : int
  ; epoch_edits : int
  ; delta_bytes : int
  ; snapshot_bytes : int
  ; self_ns : int
  ; span_ns : int
  }

let row_of_task (t : M.task) =
  let records = M.merge_records t in
  let count o = List.length (List.filter (fun r -> r.M.mc_outcome = o) records) in
  { task = t.M.name
  ; task_id = t.M.id
  ; spawns = List.length t.M.children - t.M.clones_spawned
  ; clones = t.M.clones_spawned
  ; spawn_cells = t.M.spawn_cells
  ; merge_batches = List.length t.M.merges
  ; children_merged = List.length records
  ; ops_folded = List.fold_left (fun a r -> a + r.M.mc_ops) 0 records
  ; transforms = List.fold_left (fun a r -> a + r.M.mc_transforms) 0 records
  ; compact_in = List.fold_left (fun a r -> a + r.M.mc_compact_in) 0 records
  ; compact_out = List.fold_left (fun a r -> a + r.M.mc_compact_out) 0 records
  ; merged_ok = count M.Merged
  ; aborted = count M.Aborted
  ; validation_failed = count M.Validation_failed
  ; merge_ns = M.merge_wait_ns t
  ; sync_waits = List.length t.M.syncs
  ; sync_ns = M.sync_wait_ns t
  ; epochs = t.M.epochs
  ; epoch_edits = t.M.epoch_edits
  ; delta_bytes = t.M.delta_bytes
  ; snapshot_bytes = t.M.snapshot_bytes
  ; self_ns = M.self_ns t
  ; span_ns = M.span_ns t
  }

let of_model model = List.map row_of_task (List.filter (fun (t : M.task) -> t.M.started) (M.tasks model))

let totals rows =
  List.fold_left
    (fun acc r ->
      { acc with
        spawns = acc.spawns + r.spawns
      ; clones = acc.clones + r.clones
      ; spawn_cells = acc.spawn_cells + r.spawn_cells
      ; merge_batches = acc.merge_batches + r.merge_batches
      ; children_merged = acc.children_merged + r.children_merged
      ; ops_folded = acc.ops_folded + r.ops_folded
      ; transforms = acc.transforms + r.transforms
      ; compact_in = acc.compact_in + r.compact_in
      ; compact_out = acc.compact_out + r.compact_out
      ; merged_ok = acc.merged_ok + r.merged_ok
      ; aborted = acc.aborted + r.aborted
      ; validation_failed = acc.validation_failed + r.validation_failed
      ; merge_ns = acc.merge_ns + r.merge_ns
      ; sync_waits = acc.sync_waits + r.sync_waits
      ; sync_ns = acc.sync_ns + r.sync_ns
      ; epochs = acc.epochs + r.epochs
      ; epoch_edits = acc.epoch_edits + r.epoch_edits
      ; delta_bytes = acc.delta_bytes + r.delta_bytes
      ; snapshot_bytes = acc.snapshot_bytes + r.snapshot_bytes
      ; self_ns = acc.self_ns + r.self_ns
      ; span_ns = acc.span_ns + r.span_ns
      })
    { task = "TOTAL"
    ; task_id = -1
    ; spawns = 0
    ; clones = 0
    ; spawn_cells = 0
    ; merge_batches = 0
    ; children_merged = 0
    ; ops_folded = 0
    ; transforms = 0
    ; compact_in = 0
    ; compact_out = 0
    ; merged_ok = 0
    ; aborted = 0
    ; validation_failed = 0
    ; merge_ns = 0
    ; sync_waits = 0
    ; sync_ns = 0
    ; epochs = 0
    ; epoch_edits = 0
    ; delta_bytes = 0
    ; snapshot_bytes = 0
    ; self_ns = 0
    ; span_ns = 0
    }
    rows

let transforms_observed rows = (totals rows).transforms

(* The trace-derived totals under the very names the live {!Metrics}
   registry uses, so a post-hoc [sm-trace attribute] (or [expo]) can be
   compared 1:1 against a `bench --obs` dump of the same run. *)
let metric_view rows =
  let t = totals rows in
  [ ("ot.compact_in", t.compact_in)
  ; ("ot.compact_out", t.compact_out)
  ; ("ot.transform_calls", t.transforms)
  ; ("runtime.clones", t.clones)
  ; ("runtime.merged_children", t.children_merged)
  ; ("runtime.ops_merged", t.ops_folded)
  ; ("runtime.spawns", t.spawns)
  ; ("runtime.syncs", t.sync_waits)
  ; ("runtime.validation_failures", t.validation_failed)
  ; ("shard.epochs", t.epochs)
  ; ("shard.epoch_edits", t.epoch_edits)
  ; ("shard.delta_bytes", t.delta_bytes)
  ; ("shard.snapshot_bytes", t.snapshot_bytes)
  ]

let to_json rows =
  let obj r =
    Json.Obj
      [ ("task", Json.String r.task)
      ; ("task_id", Json.Int r.task_id)
      ; ("spawns", Json.Int r.spawns)
      ; ("clones", Json.Int r.clones)
      ; ("spawn_cells", Json.Int r.spawn_cells)
      ; ("merge_batches", Json.Int r.merge_batches)
      ; ("children_merged", Json.Int r.children_merged)
      ; ("ops_folded", Json.Int r.ops_folded)
      ; ("transforms", Json.Int r.transforms)
      ; ("compact_in", Json.Int r.compact_in)
      ; ("compact_out", Json.Int r.compact_out)
      ; ("merged", Json.Int r.merged_ok)
      ; ("aborted", Json.Int r.aborted)
      ; ("validation_failed", Json.Int r.validation_failed)
      ; ("merge_ns", Json.Int r.merge_ns)
      ; ("sync_waits", Json.Int r.sync_waits)
      ; ("sync_ns", Json.Int r.sync_ns)
      ; ("epochs", Json.Int r.epochs)
      ; ("epoch_edits", Json.Int r.epoch_edits)
      ; ("delta_bytes", Json.Int r.delta_bytes)
      ; ("snapshot_bytes", Json.Int r.snapshot_bytes)
      ; ("self_ns", Json.Int r.self_ns)
      ; ("span_ns", Json.Int r.span_ns)
      ]
  in
  Json.Obj
    [ ("tasks", Json.List (List.map obj rows))
    ; ("totals", obj (totals rows))
    ; ( "metrics"
      , Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (metric_view rows)) )
    ]

let pp ppf rows =
  let ms ns = float_of_int ns /. 1e6 in
  Format.fprintf ppf "%-24s %6s %6s %7s %7s %6s %5s %5s %9s %9s %9s@." "task" "spawns"
    "merges" "folded" "ops" "xform" "abrt" "vfail" "merge" "sync" "self";
  let line r =
    Format.fprintf ppf "%-24s %6d %6d %7d %7d %6d %5d %5d %7.2fms %7.2fms %7.2fms@." r.task
      r.spawns r.merge_batches r.children_merged r.ops_folded r.transforms r.aborted
      r.validation_failed (ms r.merge_ns) (ms r.sync_ns) (ms r.self_ns)
  in
  let by_span = List.sort (fun a b -> compare b.span_ns a.span_ns) rows in
  List.iter line by_span;
  line (totals rows);
  Format.fprintf ppf "@.trace-derived metric totals (compare with a --obs dump):@.";
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %d@." k v) (metric_view rows);
  let t = totals rows in
  if t.compact_in > 0 then
    Format.fprintf ppf "  %-32s %.2f (%d -> %d ops)@." "compaction ratio"
      (float_of_int t.compact_out /. float_of_int t.compact_in)
      t.compact_in t.compact_out;
  if t.spawn_cells > 0 then
    Format.fprintf ppf "  %-32s %d cells shared@." "spawn cost" t.spawn_cells;
  if t.epochs > 0 then
    Format.fprintf ppf "  %-32s %d epochs, %d edits folded@." "shard epochs" t.epochs
      t.epoch_edits;
  if t.snapshot_bytes > 0 && t.delta_bytes > 0 then
    Format.fprintf ppf "  %-32s %.1f%% (%d of %d snapshot bytes)@." "delta/snapshot bytes"
      (100. *. float_of_int t.delta_bytes /. float_of_int t.snapshot_bytes)
      t.delta_bytes t.snapshot_bytes
