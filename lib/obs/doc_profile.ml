type t =
  { doc : string
  ; mutable merges : int
  ; mutable ops : int
  ; mutable transforms : int
  ; mutable compact_in : int
  ; mutable compact_out : int
  }

type table = (string, t) Hashtbl.t

let create () : table = Hashtbl.create 16

(* One lookup and five adds: this runs once per merged entry on the shard's
   epoch path. *)
let add ?(merges = 1) (tbl : table) ~doc ~ops ~transforms ~compact_in ~compact_out =
  let d =
    match Hashtbl.find_opt tbl doc with
    | Some d -> d
    | None ->
      let d = { doc; merges = 0; ops = 0; transforms = 0; compact_in = 0; compact_out = 0 } in
      Hashtbl.replace tbl doc d;
      d
  in
  d.merges <- d.merges + merges;
  d.ops <- d.ops + ops;
  d.transforms <- d.transforms + transforms;
  d.compact_in <- d.compact_in + compact_in;
  d.compact_out <- d.compact_out + compact_out

(* Transform calls are the conflict cost the profiler is hunting; ties break
   on ops then name so the table is deterministic. *)
let compare_hottest a b =
  match compare b.transforms a.transforms with
  | 0 -> ( match compare b.ops a.ops with 0 -> String.compare a.doc b.doc | c -> c)
  | c -> c

let hottest ?limit (tbl : table) =
  let sorted = List.sort compare_hottest (Hashtbl.fold (fun _ d acc -> d :: acc) tbl []) in
  match limit with None -> sorted | Some n -> List.filteri (fun i _ -> i < n) sorted

let to_json docs =
  Json.List
    (List.map
       (fun d ->
         Json.Obj
           [ ("doc", Json.String d.doc)
           ; ("merges", Json.Int d.merges)
           ; ("ops", Json.Int d.ops)
           ; ("transforms", Json.Int d.transforms)
           ; ("compact_in", Json.Int d.compact_in)
           ; ("compact_out", Json.Int d.compact_out)
           ])
       docs)

let pp ppf = function
  | [] -> Format.fprintf ppf "(no epoch merges profiled)@."
  | docs ->
    Format.fprintf ppf "%-24s %6s %6s %6s %12s %6s@." "document" "merges" "ops" "xform" "compact"
      "ratio";
    List.iter
      (fun d ->
        let ratio =
          if d.compact_in = 0 then "-"
          else Printf.sprintf "%.2f" (float_of_int d.compact_out /. float_of_int d.compact_in)
        in
        Format.fprintf ppf "%-24s %6d %6d %6d %6d->%-5d %6s@." d.doc d.merges d.ops d.transforms
          d.compact_in d.compact_out ratio)
      docs
