module R = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace

module Msg_elt = struct
  type t = Workload.message

  let equal = Workload.equal_message
  let pp = Workload.pp_message
end

module Mq = Sm_mergeable.Mqueue.Make (Msg_elt)
module Mc = Sm_mergeable.Mcounter

let last_cycles = ref 0
let cycles_of_last_run () = !last_cycles

(* Listing 4.  The trace array is written by each host for its own slot only
   and read after the run — observation, not shared state the algorithm
   uses. *)
let run_with ~runner (c : Workload.config) =
  Workload.validate c;
  let trace = Workload.Trace.create ~hosts:c.hosts in
  let start = Unix.gettimeofday () in
  runner (fun root ->
      let ws = R.workspace root in
      let queues =
        Array.init c.hosts (fun i ->
            let k = Mq.key ~name:(Printf.sprintf "queue-%d" i) in
            Ws.init ws k [];
            k)
      in
      let live = Mc.key ~name:"live-messages" in
      Ws.init ws live c.messages;
      List.iter (fun (host, m) -> Mq.push ws queues.(host) m) (Workload.initial_messages c);
      let host_body i ctx =
        let hws = R.workspace ctx in
        let rec loop () =
          match R.sync ctx with
          | Error _ -> () (* aborted by the parent: stop *)
          | Ok () ->
            if Mc.get hws live > 0 then begin
              (match Mq.pop hws queues.(i) with
              | None -> () (* my queue is empty this cycle *)
              | Some m -> (
                Workload.Trace.record trace ~host:i m;
                match Workload.process c ~host:i m with
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
      let cycles = ref 0 in
      while R.has_children root do
        R.merge_all root;
        incr cycles
      done;
      last_cycles := !cycles);
  Workload.Trace.finish trace ~elapsed_s:(Unix.gettimeofday () -. start)

let run ?executor c = run_with ~runner:(fun body -> R.run ?executor body) c

let run_cooperative c = run_with ~runner:(fun body -> R.Coop.run body) c
