module Np = Sm_sim.Netpipe
module Rng = Sm_util.Det_rng

type spec =
  { drop : float
  ; dup : float
  ; delay : float
  ; reorder : float
  }

let no_faults = { drop = 0.; dup = 0.; delay = 0.; reorder = 0. }
let default_faults = { drop = 0.05; dup = 0.05; delay = 0.10; reorder = 0.10 }
let lossless s = s.drop = 0. && s.dup = 0. && s.delay = 0. && s.reorder = 0.

(* One scenario: a few client connections, each driven single-threadedly —
   connect, accept, a burst of sends (some after an early close, to hit the
   closed-connection drop path), then drain the server end.  Single-threaded
   on purpose: the only concurrency Netpipe itself needs is in its queues,
   and a sequential driver makes the whole observation (message lists and
   stats) a pure function of the seed. *)
let scenario ~seed ~faults =
  let rng = Rng.create ~seed in
  let hook_drops = ref 0 in
  Np.reset_stats ();
  Np.on_dropped_send (Some (fun _ -> incr hook_drops));
  Np.set_faults
    (if lossless faults then None
     else
       Some
         (Np.Faults.make ~drop:faults.drop ~dup:faults.dup ~delay:faults.delay
            ~reorder:faults.reorder ~seed:(Int64.logxor seed 0x6e657470L) ()));
  Fun.protect
    ~finally:(fun () ->
      Np.set_faults None;
      Np.on_dropped_send None)
    (fun () ->
      let listener = Np.listen () in
      let nconns = 1 + Rng.int rng ~bound:3 in
      let expected_closed = ref 0 in
      let conns =
        List.init nconns (fun ci ->
            let client = Np.connect listener in
            let server =
              match Np.accept listener with
              | Some c -> c
              | None -> failwith "accept returned None on a live listener"
            in
            let nmsgs = 5 + Rng.int rng ~bound:20 in
            let cut = if Rng.bool rng then Some (Rng.int rng ~bound:nmsgs) else None in
            (* every post-cut send is exactly one closed-connection drop,
               fault plane or not — the strengthened conservation law *)
            (match cut with Some c -> expected_closed := !expected_closed + (nmsgs - c) | None -> ());
            let sent = ref [] in
            for i = 0 to nmsgs - 1 do
              (match cut with Some c when i = c -> Np.close client | _ -> ());
              let msg = Printf.sprintf "c%d-m%d" ci i in
              (match cut with Some c when i >= c -> () | _ -> sent := msg :: !sent);
              Np.send client msg
            done;
            if cut = None then Np.close client;
            let received = ref [] in
            let rec drain () =
              match Np.recv server with
              | Some m ->
                received := m :: !received;
                drain ()
              | None -> ()
            in
            drain ();
            (List.rev !sent, List.rev !received))
      in
      Np.shutdown listener;
      (conns, Np.stats (), !hook_drops, !expected_closed))

let check ?(faults = no_faults) ~seed () =
  let conns, stats, hook_drops, expected_closed = scenario ~seed ~faults in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let total_received = List.fold_left (fun acc (_, r) -> acc + List.length r) 0 conns in
  if stats.Np.delivered + stats.Np.dropped_closed
     <> stats.Np.sends + stats.Np.duplicated - stats.Np.dropped_fault
  then
    fail "conservation violated: delivered %d + closed %d <> sends %d + dup %d - drop %d"
      stats.Np.delivered stats.Np.dropped_closed stats.Np.sends stats.Np.duplicated
      stats.Np.dropped_fault
  else if hook_drops <> stats.Np.dropped_closed then
    fail "on_dropped_send fired %d times for %d closed-connection drops" hook_drops
      stats.Np.dropped_closed
  else if stats.Np.dropped_closed <> expected_closed then
    fail "%d sends landed after a close but dropped_closed says %d" expected_closed
      stats.Np.dropped_closed
  else if total_received <> stats.Np.delivered then
    fail "received %d messages but delivered counter says %d" total_received stats.Np.delivered
  else if
    List.exists
      (fun (sent, received) -> List.exists (fun m -> not (List.mem m sent)) received)
      conns
  then fail "received a message that was never sent (before the early close)"
  else if lossless faults && List.exists (fun (sent, received) -> received <> sent) conns then
    fail "fault-free run is not exact FIFO"
  else begin
    let buf = Buffer.create 256 in
    List.iteri
      (fun i (sent, received) ->
        Buffer.add_string buf
          (Printf.sprintf "conn %d: sent %d received [%s]\n" i (List.length sent)
             (String.concat ";" received)))
      conns;
    Buffer.add_string buf
      (Printf.sprintf "stats: s%d d%d dc%d df%d dup%d del%d ro%d" stats.Np.sends
         stats.Np.delivered stats.Np.dropped_closed stats.Np.dropped_fault stats.Np.duplicated
         stats.Np.delayed stats.Np.reordered);
    Ok (Digest.to_hex (Digest.string (Buffer.contents buf)))
  end

(* Both fault specs, each run twice: the laws must hold, and the two runs
   must observe the same digest (fault decisions are a function of the
   seed). *)
let target =
  let check ~seed =
    let check_spec (label, faults) =
      let fail oracle detail =
        Some (Target.fail ~target:"net" ~seed ~oracle (Printf.sprintf "%s: %s" label detail))
      in
      match (check ~faults ~seed (), check ~faults ~seed ()) with
      | Error e, _ | _, Error e -> fail "conservation" e
      | Ok a, Ok b when a <> b ->
        fail "determinism"
          (Printf.sprintf "fault decisions are not seed-deterministic: %s <> %s" a b)
      | Ok _, Ok _ -> None
    in
    match List.find_map check_spec [ ("no faults", no_faults); ("faulty", default_faults) ] with
    | None -> Ok ()
    | Some f -> Error f
  in
  { Target.name = "net"; check }
