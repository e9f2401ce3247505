module Obs = Sm_obs
module Netpipe = Sm_sim.Netpipe

type row =
  { shard : int
  ; sessions : int
  ; cursor_lag : int
  ; epochs : int
  ; edits : int
  ; replays : int
  ; rejects : int
  ; nacks : int
  ; delta_bytes : int
  ; snapshot_bytes : int
  ; merge_p50_ns : float option
  ; merge_p95_ns : float option
  }

let merge_histogram shard_id = Obs.Metrics.histogram (Printf.sprintf "shard%d.merge_ns" shard_id)

let row_of_server s =
  let shard = Server.shard_id s in
  let h = merge_histogram shard in
  { shard
  ; sessions = Server.session_count s
  ; cursor_lag = Server.max_cursor_lag s
  ; epochs = Server.epochs_run s
  ; edits = Server.edits_merged s
  ; replays = Server.replayed_replies s
  ; rejects = Server.rejected_frames s
  ; nacks = Server.nacks_sent s
  ; delta_bytes = Server.delta_bytes_sent s
  ; snapshot_bytes = Server.snapshot_bytes_sent s
  ; merge_p50_ns = Obs.Metrics.percentile h ~p:50.0
  ; merge_p95_ns = Obs.Metrics.percentile h ~p:95.0
  }

let rows servers = List.map row_of_server servers

(* --- hot documents (conflict profiler, aggregated over shards) -------------- *)

let hot_docs ?(limit = 10) servers =
  let acc : (string, Server.doc_stat) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun (doc, (d : Server.doc_stat)) ->
          match Hashtbl.find_opt acc doc with
          | Some t ->
            t.Server.d_merges <- t.Server.d_merges + d.Server.d_merges;
            t.Server.d_ops <- t.Server.d_ops + d.Server.d_ops;
            t.Server.d_transforms <- t.Server.d_transforms + d.Server.d_transforms;
            t.Server.d_compact_in <- t.Server.d_compact_in + d.Server.d_compact_in;
            t.Server.d_compact_out <- t.Server.d_compact_out + d.Server.d_compact_out
          | None ->
            Hashtbl.replace acc doc
              { Server.d_merges = d.Server.d_merges
              ; d_ops = d.Server.d_ops
              ; d_transforms = d.Server.d_transforms
              ; d_compact_in = d.Server.d_compact_in
              ; d_compact_out = d.Server.d_compact_out
              })
        (Server.doc_stats s))
    servers;
  let all = Hashtbl.fold (fun doc d l -> (doc, d) :: l) acc [] in
  let sorted =
    List.sort
      (fun (n1, (a : Server.doc_stat)) (n2, (b : Server.doc_stat)) ->
        match compare b.Server.d_transforms a.Server.d_transforms with
        | 0 -> (
          match compare b.Server.d_ops a.Server.d_ops with
          | 0 -> String.compare n1 n2
          | c -> c)
        | c -> c)
      all
  in
  List.filteri (fun i _ -> i < limit) sorted

(* --- text report (the sm-top table) ----------------------------------------- *)

let ns_str = function
  | None -> "-"
  | Some ns when ns >= 1e6 -> Printf.sprintf "%.1fms" (ns /. 1e6)
  | Some ns when ns >= 1e3 -> Printf.sprintf "%.1fus" (ns /. 1e3)
  | Some ns -> Printf.sprintf "%.0fns" ns

let pp_rows ppf rows =
  Format.fprintf ppf "%-5s %5s %5s %6s %6s %7s %7s %5s %9s %9s %9s %9s@." "shard" "sess" "lag"
    "epochs" "edits" "replays" "rejects" "nacks" "deltaB" "snapB" "merge p50" "p95";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-5d %5d %5d %6d %6d %7d %7d %5d %9d %9d %9s %9s@." r.shard r.sessions
        r.cursor_lag r.epochs r.edits r.replays r.rejects r.nacks r.delta_bytes r.snapshot_bytes
        (ns_str r.merge_p50_ns) (ns_str r.merge_p95_ns))
    rows

let pp_hot_docs ppf docs =
  match docs with
  | [] -> Format.fprintf ppf "(no epoch merges profiled)@."
  | _ ->
    Format.fprintf ppf "%-24s %6s %6s %6s %12s %6s@." "document" "merges" "ops" "xform" "compact"
      "ratio";
    List.iter
      (fun (doc, (d : Server.doc_stat)) ->
        let ratio =
          if d.Server.d_compact_in = 0 then "-"
          else
            Printf.sprintf "%.2f"
              (float_of_int d.Server.d_compact_out /. float_of_int d.Server.d_compact_in)
        in
        Format.fprintf ppf "%-24s %6d %6d %6d %6d->%-5d %6s@." doc d.Server.d_merges
          d.Server.d_ops d.Server.d_transforms d.Server.d_compact_in d.Server.d_compact_out ratio)
      docs

(* Workspace sharing counter (process-global): how many cells hit their
   copy-on-first-write. *)
let pp_ws ppf () =
  Format.fprintf ppf "ws: cow_hits=%d@." (Obs.Metrics.value Sm_mergeable.Workspace.cow_hits)

let pp_net ppf (st : Netpipe.stats) =
  Format.fprintf ppf
    "net: sends=%d delivered=%d dropped(closed)=%d dropped(fault)=%d dup=%d delayed=%d \
     reordered=%d@."
    st.sends st.delivered st.dropped_closed st.dropped_fault st.duplicated st.delayed st.reordered

let report ?limit servers =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  pp_rows ppf (rows servers);
  Format.fprintf ppf "@.";
  pp_hot_docs ppf (hot_docs ?limit servers);
  Format.fprintf ppf "@.";
  pp_ws ppf ();
  pp_net ppf (Netpipe.stats ());
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* --- Prometheus exposition --------------------------------------------------- *)

let shard_counters r =
  let k fmt = Printf.sprintf fmt r.shard in
  [ (k "shard%d.sessions", r.sessions)
  ; (k "shard%d.cursor_lag", r.cursor_lag)
  ; (k "shard%d.epochs", r.epochs)
  ; (k "shard%d.edits_merged", r.edits)
  ; (k "shard%d.replayed_replies", r.replays)
  ; (k "shard%d.rejected_frames", r.rejects)
  ; (k "shard%d.nacks", r.nacks)
  ; (k "shard%d.delta_bytes", r.delta_bytes)
  ; (k "shard%d.snapshot_bytes", r.snapshot_bytes)
  ]

let net_counters () =
  let st = Netpipe.stats () in
  [ ("net.sends", st.sends)
  ; ("net.delivered", st.delivered)
  ; ("net.dropped_closed", st.dropped_closed)
  ; ("net.dropped_fault", st.dropped_fault)
  ; ("net.duplicated", st.duplicated)
  ; ("net.delayed", st.delayed)
  ; ("net.reordered", st.reordered)
  ]

let expo_text servers =
  let counters =
    Obs.Metrics.counters ()
    @ List.concat_map shard_counters (rows servers)
    @ net_counters ()
  in
  Obs.Expo.render ~counters ~histograms:(Obs.Metrics.raw_histograms ())
