(* Prometheus text exposition format, version 0.0.4: one `# TYPE` line per
   metric, counters as bare samples, histograms as summaries (quantile
   series + _sum + _count).  No labels beyond the quantile, no timestamps:
   scrape time is the collector's business. *)

let sanitize name =
  let buf = Buffer.create (String.length name + 3) in
  Buffer.add_string buf "sm_";
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char buf c
      | '0' .. '9' when i > 0 -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let quantiles = [ 0.5; 0.9; 0.95; 0.99 ]

(* Exposition floats: Prometheus accepts Go-syntax numerals; OCaml's %g is
   compatible for finite values, and non-finite samples are skipped at the
   histogram layer below (they cannot arise from Clock timing, but nothing
   stops a caller observing [infinity] as an open histogram bound).  This
   mirrors — deliberately does NOT reuse — {!Json.float_repr}'s rule: Json
   keeps the infinities as the overflowing numerals 1e999/-1e999 so a
   [Metrics.dump] round-trips through {!Json.of_string}, whereas the
   Prometheus text format has no such idiom, so here they are filtered
   before the quantile/_sum/_count math rather than rendered.  [_count]
   therefore counts finite samples only. *)
let float_str f = Printf.sprintf "%g" f

let render ~counters ~histograms =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    counters;
  List.iter
    (fun (name, samples) ->
      let samples = List.filter (fun x -> Float.is_finite x) samples in
      match samples with
      | [] -> ()
      | _ ->
        let n = sanitize name in
        let count = List.length samples in
        let sum = List.fold_left ( +. ) 0.0 samples in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
        List.iter
          (fun q ->
            let v = Sm_util.Stats.percentile samples ~p:(q *. 100.0) in
            Buffer.add_string buf
              (Printf.sprintf "%s{quantile=\"%s\"} %s\n" n (float_str q) (float_str v)))
          quantiles;
        Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" n (float_str sum));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n count))
    histograms;
  Buffer.contents buf

let text () = render ~counters:(Metrics.counters ()) ~histograms:(Metrics.raw_histograms ())

let write_file path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (text ()))

(* --- the periodic in-process reporter --------------------------------------- *)

type reporter =
  { stop_flag : bool Atomic.t
  ; thread : Thread.t
  }

let start ?(period_s = 5.0) emit =
  if period_s <= 0.0 then invalid_arg "Expo.start: period must be positive";
  let stop_flag = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        (* Sleep in short slices so [stop] returns promptly even with a
           multi-second period. *)
        let rec sleep remaining =
          if (not (Atomic.get stop_flag)) && remaining > 0.0 then begin
            let slice = Float.min 0.05 remaining in
            Thread.delay slice;
            sleep (remaining -. slice)
          end
        in
        let rec loop () =
          sleep period_s;
          if not (Atomic.get stop_flag) then begin
            (try emit (text ()) with _ -> ());
            loop ()
          end
        in
        loop ())
      ()
  in
  { stop_flag; thread }

let stop r =
  Atomic.set r.stop_flag true;
  Thread.join r.thread
