(* The service workloads' load generator: a copy of [Sm_shard.Load.run]'s
   tick loop, step for step — the same Det_rng splits, the same call order,
   the same fault plane and disconnect/resume chaos — calling the
   Service/Server/Client functions directly so each call can be stamped and
   timed from here.  The whole fleet runs on one thread over in-memory
   Netpipe queues; each editor is stop-and-wait (at most one batch in
   flight), so the loop is closed and its clock is simulated ticks.

   [--self-check] holds the copy to the original: same ticks, epochs,
   merged batches, bytes, retransmits, resumes and shard digests. *)

module Load = Sm_shard.Load
module Service = Sm_shard.Service
module Server = Sm_shard.Server
module Client = Sm_shard.Client
module Netpipe = Sm_sim.Netpipe
module Rng = Sm_util.Det_rng
module Ws = Sm_mergeable.Workspace

(* The clock the library's own histograms use (shard<k>.merge_ns among
   them), so a layer split out of one of them subtracts like from like. *)
let now_ns = Sm_obs.Clock.now_ns

(* --- profiles -------------------------------------------------------------- *)

(* The service gate's document set: 32 documents, 28 texts of ~1 KB and 4
   trees, so the fleet spreads over per-document contention. *)
let seed_text =
  String.concat ""
    (List.init 16 (fun k ->
         Printf.sprintf "line %02d: the quick brown fox jumps over the lazy dog.\n" k))

let service_specs =
  List.init 32 (fun i ->
      if i mod 8 = 7 then `Tree (Printf.sprintf "doc/tree%02d" i, [])
      else `Text (Printf.sprintf "doc/text%02d" i, seed_text))

(* hot-doc: the first two texts and the first tree of the same set. *)
let hot_specs =
  List.filteri (fun i _ -> i = 0 || i = 1 || i = 7) service_specs

let fleet ~seed mode =
  { Load.default with
    Load.seed
  ; shards = 4
  ; clients = 1000
  ; ops_per_client = 50
  ; specs = service_specs
  ; mode
  }

let chaos ~seed =
  { (fleet ~seed `Delta) with
    Load.faults = Some { Load.drop = 0.02; dup = 0.02; delay = 0.02; reorder = 0.02 }
  ; disconnect_prob = 0.002
  ; resume_after = 12
  }

let hot_doc ~seed =
  { Load.default with
    Load.seed
  ; shards = 1
  ; clients = 16
  ; ops_per_client = 4000
  ; specs = hot_specs
  ; think_max = 0
  ; burst_max = 256
  }

(* --- layers ---------------------------------------------------------------- *)

(* Each call lands in exactly one layer; the generator's own bookkeeping
   (the loop, quiescence tests, Det_rng draws between calls) is the rest. *)
let l_intake = 0 (* Server.tick that ran no epoch: accept + decode + buffer *)
let l_epoch = 1 (* Server.tick whose epoch ran: merge pass + replies *)
let l_edit = 2 (* Client.edit: generate one op and apply it to the view *)
let l_flush = 3 (* Client.flush: encode and send a batch *)
let l_replay = 4 (* Client.tick that applied a reply (ready false -> true) *)
let l_idle = 5 (* any other Client.tick: drain, retransmit timers *)
let l_poll = 6 (* Client.poll in the drain phase *)
let l_chaos = 7 (* crash decisions, Client.disconnect, Client.resume *)
let n_layers = 8

(* --- one pass -------------------------------------------------------------- *)

type actor =
  { name : string
  ; client : Client.t
  ; rng : Rng.t
  ; shard : int
  ; mutable remaining : int
  ; mutable think : int
  ; mutable resume_at : int  (* tick to reconnect at; -1 while connected *)
  ; mutable polled : bool
  ; mutable batch_t0 : int  (* clock at the batch's first flush; -1 when none in flight *)
  ; mutable batch_tick : int
  ; mutable batch_ops : int
  }

type deployment =
  { profile : Load.profile
  ; svc : Service.t
  ; actors : actor array
  }

(* Docs, [Service.create] and every [Client.connect]: what a deployment
   pays before the first edit.  Installs the profile's fault plane first,
   as [Load.run] does, so the Hello frames draw from it. *)
let setup (p : Load.profile) =
  let docs = Service.make_docs p.specs in
  let svc = Service.create docs ~shards:p.shards ~mode:p.mode ~epoch_ticks:p.epoch_ticks in
  Netpipe.reset_stats ();
  Netpipe.set_faults
    (Option.map
       (fun (f : Load.faults) ->
         Netpipe.Faults.make ~drop:f.drop ~dup:f.dup ~delay:f.delay ~reorder:f.reorder
           ~seed:(Int64.logxor p.seed 0x6e657470697065L) ())
       p.faults);
  let master = Rng.create ~seed:p.seed in
  let actors =
    Array.init p.clients (fun i ->
        let shard = i mod p.shards in
        let rng = Rng.split master in
        let name = Printf.sprintf "client%d" i in
        let client =
          Client.connect ~reg:(Service.registry docs) ~name ~obs_tid:(Client.obs_client_tid i)
            ~init:(Service.client_init svc ~shard) (Service.listener svc shard)
        in
        { name
        ; client
        ; rng
        ; shard
        ; remaining = p.ops_per_client
        ; think = (if p.think_max > 0 then Rng.int rng ~bound:(p.think_max + 1) else 0)
        ; resume_at = -1
        ; polled = false
        ; batch_t0 = -1
        ; batch_tick = 0
        ; batch_ops = 0
        })
  in
  { profile = p; svc; actors }

type pass =
  { wall_ns : int  (* the tick loop, to quiescence *)
  ; unacked : int  (* ops in batches whose Ack never applied *)
  ; ack_ns : int list  (* per batch: first flush -> the tick applying its Ack *)
  ; ack_ticks : int list
  ; layer_ns : int array  (* traced passes only; zeros otherwise *)
  ; gc : Gc.stat * Gc.stat  (* around the tick loop *)
  ; report : Load.report  (* the same fields Load.run reports *)
  ; check_ns : int
  }

let finished a =
  Client.failed a.client <> None || (a.remaining = 0 && a.resume_at < 0 && Client.synced a.client)

let drive ~traced d =
  let p = d.profile and svc = d.svc and actors = d.actors in
  let layer_ns = Array.make n_layers 0 in
  let timed l f =
    if traced then begin
      let t0 = now_ns () in
      let r = f () in
      layer_ns.(l) <- layer_ns.(l) + (now_ns () - t0);
      r
    end
    else f ()
  in
  let tick = ref 0 in
  let placed = ref 0 in
  let ack_ns = ref [] and ack_ticks = ref [] in
  let quiesced () = Array.for_all finished actors && Service.idle svc in
  let drained () =
    Array.for_all (fun a -> Client.failed a.client <> None || (a.polled && finished a)) actors
  in
  let server_tick s =
    if traced then begin
      let e0 = Server.epochs_run s in
      let t0 = now_ns () in
      Server.tick s;
      let dt = now_ns () - t0 in
      let l = if Server.epochs_run s > e0 then l_epoch else l_intake in
      layer_ns.(l) <- layer_ns.(l) + dt
    end
    else Server.tick s
  in
  let client_tick a =
    let c = a.client in
    let was_ready = traced && Client.ready c in
    let t0 = if traced then now_ns () else 0 in
    Client.tick c;
    if traced || a.batch_t0 >= 0 then begin
      let t1 = now_ns () in
      let ready = Client.ready c in
      if traced then begin
        let l = if ready && not was_ready then l_replay else l_idle in
        layer_ns.(l) <- layer_ns.(l) + (t1 - t0)
      end;
      if ready && a.batch_t0 >= 0 then begin
        ack_ns := (t1 - a.batch_t0) :: !ack_ns;
        ack_ticks := (!tick - a.batch_tick) :: !ack_ticks;
        a.batch_t0 <- -1
      end
    end
  in
  let step ~drain a =
    if Client.failed a.client = None then
      if a.resume_at >= 0 then begin
        if !tick >= a.resume_at then begin
          timed l_chaos (fun () -> Client.resume a.client (Service.listener svc a.shard));
          a.resume_at <- -1
        end
      end
      else begin
        client_tick a;
        if
          p.disconnect_prob > 0.
          && timed l_chaos (fun () ->
                 Client.connected a.client
                 && (not (Client.synced a.client))
                 && Rng.float a.rng < p.disconnect_prob)
        then begin
          timed l_chaos (fun () -> Client.disconnect a.client);
          a.resume_at <- !tick + p.resume_after
        end
        else if drain then begin
          if (not a.polled) && Client.synced a.client then begin
            timed l_poll (fun () -> Client.poll a.client);
            a.polled <- true
          end
        end
        else if a.remaining > 0 && Client.ready a.client then begin
          if a.think > 0 then a.think <- a.think - 1
          else begin
            match Service.docs_on svc a.shard with
            | [] -> a.remaining <- 0
            | docs_here ->
              let burst = min a.remaining (1 + Rng.int a.rng ~bound:p.burst_max) in
              for _ = 1 to burst do
                let doc = Rng.pick a.rng docs_here in
                timed l_edit (fun () ->
                    Client.edit a.client (Service.edit_doc ~rng:a.rng ~ins_bias:p.ins_bias doc))
              done;
              let t0 = now_ns () in
              Client.flush a.client;
              if traced then layer_ns.(l_flush) <- layer_ns.(l_flush) + (now_ns () - t0);
              if not (Client.ready a.client) then begin
                a.batch_t0 <- t0;
                a.batch_tick <- !tick;
                a.batch_ops <- burst
              end;
              a.remaining <- a.remaining - burst;
              placed := !placed + burst;
              a.think <- (if p.think_max > 0 then Rng.int a.rng ~bound:(p.think_max + 1) else 0)
          end
        end
      end
  in
  let shards = Array.init (Service.shard_count svc) (Service.shard svc) in
  let drain = ref false in
  let gc0 = Gc.quick_stat () in
  let t_start = now_ns () in
  while !tick < p.max_ticks && not (!drain && drained ()) do
    if (not !drain) && quiesced () then drain := true;
    Array.iter server_tick shards;
    let drain = !drain in
    Array.iter (step ~drain) actors;
    incr tick
  done;
  let wall_ns = now_ns () - t_start in
  let gc = (gc0, Gc.quick_stat ()) in
  (* Outside the clock: every surviving view must equal its shard. *)
  let c0 = now_ns () in
  let failures =
    Array.to_list actors
    |> List.filter_map (fun a -> Option.map (fun r -> (a.name, r)) (Client.failed a.client))
  in
  let digests = Array.map Server.digest shards in
  let converged =
    failures = [] && quiesced () && drained ()
    && Array.for_all
         (fun a -> String.equal (Ws.digest (Client.view a.client)) digests.(a.shard))
         actors
  in
  let check_ns = now_ns () - c0 in
  let report =
    { Load.converged
    ; shard_digests = Array.to_list digests
    ; ticks = !tick
    ; ops_applied = !placed
    ; edits_merged = Service.edits_merged svc
    ; epochs = Service.epochs_run svc
    ; delta_bytes = Service.delta_bytes_sent svc
    ; snapshot_bytes = Service.snapshot_bytes_sent svc
    ; retransmits = Array.fold_left (fun acc a -> acc + Client.retransmits a.client) 0 actors
    ; resumes = Array.fold_left (fun acc a -> acc + Client.resumes a.client) 0 actors
    ; failures
    }
  in
  let unacked =
    Array.fold_left (fun acc a -> if a.batch_t0 >= 0 then acc + a.batch_ops else acc) 0 actors
  in
  { wall_ns
  ; unacked
  ; ack_ns = !ack_ns
  ; ack_ticks = !ack_ticks
  ; layer_ns
  ; gc
  ; report
  ; check_ns
  }

(* One pass: drive the set-up fleet to quiescence, then clear the fault
   plane as [Load.run] does. *)
let run ~traced d =
  Fun.protect ~finally:(fun () -> Netpipe.set_faults None) (fun () -> drive ~traced d)

(* --- self-check ------------------------------------------------------------ *)

(* Small delta, snapshot and chaos profiles through this copy and through
   [Load.run]: every observable of the report must agree. *)
let self_check () =
  let small = { Load.default with Load.shards = 2; clients = 8 } in
  let profiles =
    [ ("delta", small)
    ; ("snapshot", { small with Load.mode = `Snapshot })
    ; ( "chaos"
      , { small with
          Load.faults = Some { Load.drop = 0.05; dup = 0.05; delay = 0.05; reorder = 0.05 }
        ; disconnect_prob = 0.02
        ; resume_after = 6
        } )
    ]
  in
  List.map
    (fun (label, profile) ->
      let reference = Load.run profile in
      let ours = (run ~traced:false (setup profile)).report in
      let traced = (run ~traced:true (setup profile)).report in
      let fields (r : Load.report) =
        [ ("converged", string_of_bool r.converged)
        ; ("ticks", string_of_int r.ticks)
        ; ("ops placed", string_of_int r.ops_applied)
        ; ("epochs", string_of_int r.epochs)
        ; ("edits merged", string_of_int r.edits_merged)
        ; ("delta bytes", string_of_int r.delta_bytes)
        ; ("snapshot bytes", string_of_int r.snapshot_bytes)
        ; ("retransmits", string_of_int r.retransmits)
        ; ("resumes", string_of_int r.resumes)
        ; ("shard digests", String.concat "," r.shard_digests)
        ]
      in
      let ok =
        List.for_all2
          (fun (name, want) ((_, a), (_, b)) ->
            let same = String.equal want a && String.equal want b in
            if not same then
              Printf.printf "self-check %s: %s differs: Load.run %s, ledger %s, traced %s\n" label
                name want a b;
            same)
          (fields reference)
          (List.combine (fields ours) (fields traced))
      in
      let ok = ok && reference.converged in
      Printf.printf "self-check %-8s %s (%d ticks, %d epochs, %d retransmits, %d resumes)\n" label
        (if ok then "ok" else "FAILED")
        reference.ticks reference.epochs reference.retransmits reference.resumes;
      ok)
    profiles
  |> List.for_all Fun.id
