exception Worker_failure of int * exn

let m_chunk_tasks = Sm_obs.Metrics.counter "par.chunk_tasks"
let h_par_ns = Sm_obs.Metrics.histogram "par.region_ns"

(* Every Par combinator runs inside a named span on the calling task, so
   traces show data-parallel regions as one slice over their fork/join. *)
let par_span ctx name ~items f =
  Sm_obs.Span.with_ ~hist:h_par_ns
    ~args:[ ("items", Sm_obs.Event.I items) ]
    ~task:(Runtime.task_name ctx) ~task_id:(Runtime.task_id ctx) name f

(* Split [0..n-1] into at most [chunks] contiguous ranges. *)
let ranges n chunks =
  let chunks = max 1 (min chunks n) in
  let base = n / chunks and extra = n mod chunks in
  let rec go i start acc =
    if i = chunks then List.rev acc
    else
      let len = base + if i < extra then 1 else 0 in
      go (i + 1) (start + len) ((start, len) :: acc)
  in
  if n = 0 then [] else go 0 0 []

(* Core fork/join: [compute chunk i] for every index, one child per chunk
   (each owns its chunk's slots), joined deterministically, the lowest-index
   failure re-raised. *)
let run_chunks ?(chunks = 8) ~span ctx n ~(compute : int -> int -> unit) =
  par_span ctx span ~items:n @@ fun () ->
  let failures : (int * exn) option array = Array.make (max 1 chunks) None in
  let rs = ranges n chunks in
  Sm_obs.Metrics.add m_chunk_tasks (List.length rs);
  let handles =
    List.mapi
      (fun chunk_idx (start, len) ->
        Runtime.spawn ctx (fun _child ->
            let rec go i =
              if i < start + len then
                match compute chunk_idx i with
                | () -> go (i + 1)
                | exception e -> failures.(chunk_idx) <- Some (i, e)
            in
            go start))
      rs
  in
  Runtime.merge_all_from_set ctx handles;
  Array.iter
    (function
      | Some (index, e) -> raise (Worker_failure (index, e))
      | None -> ())
    failures

let tabulate ?chunks ctx n f =
  if n < 0 then invalid_arg "Par.tabulate: negative length";
  let out = Array.make n None in
  run_chunks ?chunks ~span:"par.chunks" ctx n ~compute:(fun _ i -> out.(i) <- Some (f i));
  List.init n (fun i -> match out.(i) with Some v -> v | None -> assert false)

let mapi ?chunks ctx f xs =
  let input = Array.of_list xs in
  tabulate ?chunks ctx (Array.length input) (fun i -> f i input.(i))

let map ?chunks ctx f xs = mapi ?chunks ctx (fun _ x -> f x) xs
let iter ?chunks ctx f xs = ignore (map ?chunks ctx f xs)

(* Each chunk folds its own partial left to right; the partials are then
   combined in chunk order. *)
let reduce ?(chunks = 8) ctx ~map:f ~combine ~init xs =
  let input = Array.of_list xs in
  let partials = Array.make (max 1 chunks) None in
  run_chunks ~chunks ~span:"par.reduce" ctx (Array.length input) ~compute:(fun chunk i ->
      let v = f input.(i) in
      partials.(chunk) <- Some (match partials.(chunk) with None -> v | Some a -> combine a v));
  Array.fold_left (fun acc -> function Some v -> combine acc v | None -> acc) init partials

let both ctx fa fb =
  par_span ctx "par.both" ~items:2 @@ fun () ->
  let a = ref None and b = ref None in
  let ha = Runtime.spawn ctx (fun _ -> a := Some (fa ())) in
  let hb = Runtime.spawn ctx (fun _ -> b := Some (fb ())) in
  Runtime.merge_all_from_set ctx [ ha; hb ];
  match (!a, !b, Runtime.error ha, Runtime.error hb) with
  | Some va, Some vb, _, _ -> (va, vb)
  | None, _, Some e, _ -> raise (Worker_failure (0, e))
  | _, None, _, Some e -> raise (Worker_failure (1, e))
  | _ -> assert false
