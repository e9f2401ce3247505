(* The metric catalog, the statistics over it, and the run files both the
   runner and [compare] read and write.

   BENCHMARK.json is the one list of the benchmark's metrics: their names,
   units and directions, and the end-to-end metrics' regression bounds.
   This file adds only the metrics a run prints without a gate. *)

module J = Sm_obs.Json

type metric =
  { name : string
  ; unit : string
  ; gate : ([ `Lower | `Higher ] * float) option  (* direction and bound; None: no verdict *)
  }

(* Printed by untraced runs after BENCHMARK.json's end-to-end metrics. *)
let extra_end_to_end =
  [ ("latency_samples", "count") (* the samples behind the latency percentiles *)
  ; ("failed_ratio", "ratio") (* must be 0: ops never acknowledged, or hops missing *)
  ; ("bytes_per_op", "B/op") (* exact for a seed *)
  ; ("check_s", "s") (* the output check, outside the timed window *)
  ]

(* Printed by traced runs after BENCHMARK.json's per-layer metrics.  Every
   workload reports every metric of its mode, so runs compare name by name;
   a layer a workload does not have reads 0. *)
let extra_per_layer =
  [ (* seconds per traced pass *)
    ("shard.client.replay_s", "s")
  ; ("shard.client.edit_s", "s")
  ; ("shard.client.flush_s", "s")
  ; ("shard.client.poll_s", "s")
  ; ("shard.client.idle_tick_s", "s")
  ; ("shard.client.chaos_s", "s")
  ; ("shard.server.intake_s", "s")
  ; ("shard.server.epoch_s", "s")
  ; ("shard.server.merge_s", "s")
  ; ("shard.server.reply_s", "s")
  ; ("runtime.spawn_s", "s")
  ; ("runtime.merge_s", "s")
  ; ("runtime.exit_s", "s")
  ; ("runtime.sync_wait_s", "s")
  ; ("runtime.ws_copy_s", "s")
  ; ("load.loop_s", "s")
  ; (* work counts of one pass *)
    ("ot.compact_in", "count")
  ; ("shard.epochs", "count")
  ; ("ack_ticks_p50", "ticks")
  ; ("client.acks", "count")
  ; ("client.resumes", "count")
  ; ("shard.rejected_frames", "count")
  ; ("shard.nacks", "count")
  ; ("netpipe.sends", "count")
  ; ("netpipe.delivered", "count")
  ; ("netpipe.dropped_fault", "count")
  ; ("ws.cow_hits", "count")
  ; ("runtime.spawns", "count")
  ; ("runtime.syncs", "count")
  ; ("runtime.merged_children", "count")
  ; ("runtime.ops_merged", "count")
  ; ("runtime.merge_us_per_child", "us")
  ; ("sim.cycles", "count")
  ; ("executor.job_threads", "count")
  ]

(* --- statistics ------------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by the exclusive method — what Python's
   [statistics.quantiles(xs, n=4)] returns. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* --- files ------------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc s;
      output_char oc '\n')

(* The metrics of a mode ("end_to_end" or "per_layer"): BENCHMARK.json's,
   read from the current directory, then the extras.  Fails on a malformed
   entry or a name listed twice. *)
let metrics key extras =
  let str m k = Option.bind (J.member k m) J.to_str in
  let listed =
    Option.value ~default:[]
      (Option.bind (J.member key (J.of_string (read_file "BENCHMARK.json"))) J.to_list)
    |> List.map (fun m ->
           match (str m "name", str m "unit") with
           | Some name, Some unit ->
             let gate =
               match (str m "better", Option.bind (J.member "bound" m) J.to_float) with
               | Some better, Some bound -> Some ((if better = "higher" then `Higher else `Lower), bound)
               | _ -> None
             in
             { name; unit; gate }
           | _ -> failwith ("BENCHMARK.json: a " ^ key ^ " metric without a name or unit"))
  in
  let all = listed @ List.map (fun (name, unit) -> { name; unit; gate = None }) extras in
  List.iteri
    (fun i m ->
      if List.exists (fun m' -> m'.name = m.name) (List.filteri (fun j _ -> j < i) all) then
        failwith ("metric " ^ m.name ^ " is listed twice"))
    all;
  all

let end_to_end () = metrics "end_to_end" extra_end_to_end
let per_layer () = metrics "per_layer" extra_per_layer

(* A set of runs is a file [{"runs": [...]}]; a single run's file reads as
   a set of one. *)
let runs_of_file path =
  let j = J.of_string (read_file path) in
  match J.member "runs" j with
  | Some runs -> Option.value ~default:[] (J.to_list runs)
  | None -> [ j ]

let append path run =
  let runs = if Sys.file_exists path then runs_of_file path else [] in
  write_file path (J.to_string (J.Obj [ ("runs", J.List (runs @ [ run ])) ]))
