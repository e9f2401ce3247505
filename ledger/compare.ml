(* [ledger compare A B]: two sets of runs, metric by metric and workload by
   workload — the median and quartiles of each side, the change from A to
   B, and a verdict against the bound BENCHMARK.json fixes for the metric:

   - within: B's median is no worse than A's by more than the bound;
   - regressed: it is worse by more than the bound;
   - unresolved: either side's quartile spread is wider than the bound, so
     the change cannot be told from noise — unless every run of B reads
     better than every run of A.

   Per-layer metrics (traced runs) and the extra metrics have no bound;
   their change is printed without a verdict.  Exits 1 when any row
   regressed or is unresolved. *)

module J = Sm_obs.Json

let str key run = Option.value ~default:"" (Option.bind (J.member key run) J.to_str)
let traced run = Option.value ~default:false (Option.bind (J.member "traced" run) J.to_bool)

let value name run =
  Option.bind (J.member "metrics" run) (J.member name)
  |> Fun.flip Option.bind (J.member "value")
  |> Fun.flip Option.bind J.to_float

let summary xs =
  let q1, q3 = Catalog.quartiles xs in
  Printf.sprintf "%.5g [%.4g, %.4g] n=%d" (Catalog.median xs) q1 q3 (List.length xs)

(* How much worse [b] is than [a], as a share of [a]; negative is better. *)
let worse better a b =
  if a = 0. then 0. else match better with `Lower -> (b -. a) /. a | `Higher -> (a -. b) /. a

let spread xs =
  let q1, q3 = Catalog.quartiles xs in
  let m = Catalog.median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let verdict (m : Catalog.metric) a b =
  match m.gate with
  | None -> "-"
  | Some (better, bound) ->
    let all_better = List.for_all (fun y -> List.for_all (fun x -> worse better x y < 0.) a) b in
    if Float.max (spread a) (spread b) > bound && not all_better then "unresolved"
    else if worse better (Catalog.median a) (Catalog.median b) > bound then "regressed"
    else "within"

let main = function
  | [ a; b ] ->
    let modes = [ (false, Catalog.end_to_end ()); (true, Catalog.per_layer ()) ] in
    let runs_a = Catalog.runs_of_file a and runs_b = Catalog.runs_of_file b in
    let workloads = List.sort_uniq compare (List.map (str "workload") (runs_a @ runs_b)) in
    let bad = ref 0 in
    Printf.printf "%-15s %-36s %-36s %-36s %9s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
      "B median [q1, q3]" "change" "bound" "verdict";
    List.iter
      (fun w ->
        List.iter
          (fun (is_traced, metrics) ->
            let pick runs = List.filter (fun r -> str "workload" r = w && traced r = is_traced) runs in
            let ra = pick runs_a and rb = pick runs_b in
            if ra <> [] && rb <> [] then
              List.iter
                (fun (m : Catalog.metric) ->
                  let xs = List.filter_map (value m.name) ra and ys = List.filter_map (value m.name) rb in
                  (* a layer neither side has reads 0 throughout: skip it *)
                  if List.exists (fun v -> v <> 0.) (xs @ ys) then begin
                    let v = verdict m xs ys in
                    if v = "regressed" || v = "unresolved" then incr bad;
                    let ma = Catalog.median xs and mb = Catalog.median ys in
                    Printf.printf "%-15s %-36s %-36s %-36s %+8.2f%% %6s  %s\n" w
                      (Printf.sprintf "%s (%s)" m.name m.unit)
                      (summary xs) (summary ys)
                      (if ma = 0. then 0. else 100. *. (mb -. ma) /. Float.abs ma)
                      (match m.gate with Some (_, x) -> Printf.sprintf "%.0f%%" (100. *. x) | None -> "-")
                      v
                  end)
                metrics)
          modes)
      workloads;
    Printf.printf "%d rows regressed or unresolved\n" !bad;
    if !bad = 0 then 0 else 1
  | _ ->
    prerr_endline "usage: ledger.exe compare A B   (from the directory holding BENCHMARK.json)";
    2
