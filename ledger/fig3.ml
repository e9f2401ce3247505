(* fig3-l0: the Listing-4 network simulation at zero host workload, so a
   repetition is nothing but Spawn/Merge overhead — task spawn, Sync
   park/wake and Mqueue merges (the paper's Section III).  Repetitions run
   on one long-lived executor, as the Figure-3 bench does, so they exclude
   domain start-up.

   The simulation body is a copy of [Sm_sim.Sim_spawnmerge.run], so each
   MergeAll round — every host synced and merged once — can be stamped from
   here; [--self-check] holds it to the original's digests. *)

module W = Sm_sim.Workload
module R = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace
module Mc = Sm_mergeable.Mcounter

module Mq = Sm_mergeable.Mqueue.Make (struct
  type t = W.message

  let equal = W.equal_message
  let pp = W.pp_message
end)

let now_ns = Fleet.now_ns

let config ~seed =
  { W.hosts = 40
  ; messages = 100
  ; ttl = 100
  ; load = 0
  ; mode = W.Ring_destination
  ; topology = W.Full
  ; seed
  }

(* One domain beside the main one: two domains on a two-core machine. *)
let setup () = Sm_core.Executor.create ~domains:1 ()

(* A repetition's wall splits into contiguous stretches of the root task:
   spawning the hosts, the MergeAll rounds, and the rest (run entry and
   exit: executor hand-off, thread joins). *)
type rep =
  { wall_ns : int
  ; spawn_ns : int
  ; rounds_ns : int list  (* one per MergeAll round, in order *)
  ; gc : Gc.stat * Gc.stat
  ; report : W.report
  }

let run executor (c : W.config) =
  W.validate c;
  let trace = W.Trace.create ~hosts:c.hosts in
  let t_body = ref 0 and t_rounds = ref 0 in
  let rounds = ref [] in
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  R.run ~executor (fun root ->
      t_body := now_ns ();
      let ws = R.workspace root in
      let queues =
        Array.init c.hosts (fun i ->
            let k = Mq.key ~name:(Printf.sprintf "queue-%d" i) in
            Ws.init ws k [];
            k)
      in
      let live = Mc.key ~name:"live-messages" in
      Ws.init ws live c.messages;
      List.iter (fun (host, m) -> Mq.push ws queues.(host) m) (W.initial_messages c);
      let host_body i ctx =
        let hws = R.workspace ctx in
        let rec loop () =
          match R.sync ctx with
          | Error _ -> ()
          | Ok () ->
            if Mc.get hws live > 0 then begin
              (match Mq.pop hws queues.(i) with
              | None -> ()
              | Some m -> (
                W.Trace.record trace ~host:i m;
                match W.process c ~host:i m with
                | Some m', destination -> Mq.push hws queues.(destination) m'
                | None, _ -> Mc.decr hws live));
              loop ()
            end
        in
        loop ()
      in
      for i = 0 to c.hosts - 1 do
        ignore (R.spawn root (host_body i))
      done;
      t_rounds := now_ns ();
      let last = ref !t_rounds in
      while R.has_children root do
        R.merge_all root;
        let t = now_ns () in
        rounds := (t - !last) :: !rounds;
        last := t
      done);
  let wall_ns = now_ns () - t0 in
  { wall_ns
  ; spawn_ns = !t_rounds - !t_body
  ; rounds_ns = List.rev !rounds
  ; gc = (gc0, Gc.quick_stat ())
  ; report = W.Trace.finish trace ~elapsed_s:(float_of_int wall_ns /. 1e9)
  }

(* The copy against [Sim_spawnmerge] on a small network. *)
let self_check () =
  let cfg = { (config ~seed:3L) with W.hosts = 6; messages = 12; ttl = 9 } in
  let executor = setup () in
  Fun.protect ~finally:(fun () -> Sm_core.Executor.shutdown executor) @@ fun () ->
  let reference = Sm_sim.Sim_spawnmerge.run ~executor cfg in
  let cycles = Sm_sim.Sim_spawnmerge.cycles_of_last_run () in
  let ours = run executor cfg in
  let ok =
    ours.report.order_digest = reference.order_digest
    && ours.report.event_digest = reference.event_digest
    && ours.report.hops = reference.hops
    && List.length ours.rounds_ns = cycles
  in
  Printf.printf "self-check fig3     %s (%d rounds, order digest %s)\n"
    (if ok then "ok" else "FAILED")
    cycles reference.order_digest;
  ok
