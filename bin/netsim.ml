(* netsim — run the paper's network simulation from the command line.

     dune exec bin/netsim.exe -- --hosts 20 --messages 100 --ttl 100 \
       --load 1000 --impl spawnmerge --mode hash --runs 3

   Prints one line per run (time, hops, digests) so determinism is visible
   directly: spawn/merge runs repeat both digests; conventional hash-mode
   runs repeat only the event digest. *)

module W = Sm_sim.Workload

type impl =
  | Spawnmerge
  | Coop
  | Conventional
  | Dist

let run_once ~impl ~executor ~nodes ~chaos cfg =
  match impl with
  | Spawnmerge -> Sm_sim.Sim_spawnmerge.run ~executor cfg
  | Coop -> Sm_sim.Sim_spawnmerge.run_cooperative cfg
  | Conventional -> Sm_sim.Sim_conventional.run cfg
  | Dist -> Sm_sim.Sim_dist.run ~nodes ?chaos cfg

let main hosts messages ttl load impl mode topology seed runs per_host nodes delay reorder =
  let cfg = { W.hosts; messages; ttl; load; mode; topology; seed } in
  (match W.validate cfg with
  | () -> ()
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2);
  if (delay > 0. || reorder > 0.) && impl <> Dist then begin
    prerr_endline "netsim: fault flags only apply to --impl dist";
    exit 2
  end;
  let chaos =
    if delay > 0. || reorder > 0. then
      Some
        (Sm_dist.Coordinator.Chaos.make ~hold_prob:(delay +. reorder)
           ~max_hold:(if delay > 0. then 4 else 1)
           ~seed:(Int64.logxor seed 0x6368616f73L) ())
    else None
  in
  let executor = Sm_core.Executor.create () in
  Format.printf "%d hosts, %d messages, ttl %d, load %d, %s destinations, seed %Ld (%s)@."
    hosts messages ttl load
    (match mode with W.Hash_destination -> "hash" | W.Ring_destination -> "ring")
    seed
    (match impl with
    | Spawnmerge -> "spawn/merge"
    | Coop -> "spawn/merge, cooperative scheduler"
    | Conventional -> "conventional threads+locks"
    | Dist -> Printf.sprintf "spawn/merge, distributed on %d nodes%s" nodes
                (if chaos <> None then " + chaos relay" else ""));
  Format.printf "%-5s %-12s %-8s %-18s %-18s@." "run" "time" "hops" "event digest" "order digest";
  for i = 1 to runs do
    let r = run_once ~impl ~executor ~nodes ~chaos cfg in
    Format.printf "%-5d %9.1f ms %-8d %-18s %-18s@." i (r.W.elapsed_s *. 1000.0) r.W.hops
      r.W.event_digest r.W.order_digest;
    if per_host && i = runs then begin
      Format.printf "@.hops per host (last run):@.";
      Array.iteri (fun h n -> Format.printf "  host %-3d %d@." h n) r.W.per_host
    end
  done;
  (match impl with
  | Spawnmerge | Coop ->
    Format.printf "(%d merge cycles in the last run)@." (Sm_sim.Sim_spawnmerge.cycles_of_last_run ())
  | Dist -> Format.printf "(%d rounds in the last run)@." (Sm_sim.Sim_dist.rounds_of_last_run ())
  | Conventional -> ());
  Sm_core.Executor.shutdown executor

open Cmdliner

let hosts =
  Arg.(value & opt int 20 & info [ "hosts" ] ~docv:"N" ~doc:"Number of simulated hosts.")

let messages =
  Arg.(value & opt int 100 & info [ "messages" ] ~docv:"N" ~doc:"Initial messages in the network.")

let ttl = Arg.(value & opt int 100 & info [ "ttl" ] ~docv:"N" ~doc:"Hops each message lives.")

let load =
  Arg.(
    value
    & opt int 0
    & info [ "load"; "l" ] ~docv:"N" ~doc:"SHA-1 iterations per processed message (the paper's $(i,l)).")

let impl =
  let variants =
    Arg.enum
      [ ("spawnmerge", Spawnmerge)
      ; ("coop", Coop)
      ; ("conventional", Conventional)
      ; ("dist", Dist)
      ]
  in
  Arg.(
    value
    & opt variants Spawnmerge
    & info [ "impl" ] ~docv:"IMPL"
        ~doc:
          "Implementation: $(b,spawnmerge), $(b,coop) (single-threaded effects scheduler), \
           $(b,conventional), or $(b,dist) (remote tasks on coordinator worker nodes).")

let mode =
  let variants = Arg.enum [ ("hash", W.Hash_destination); ("ring", W.Ring_destination) ] in
  Arg.(
    value
    & opt variants W.Hash_destination
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Destination rule: $(b,hash) (the racy, 'non-deterministic' variant) or $(b,ring) \
           (deterministic by construction).")

let topology =
  let variants =
    Arg.enum
      [ ("full", W.Full); ("ring", W.Ring_topology); ("star", W.Star); ("grid", W.Grid) ]
  in
  Arg.(
    value
    & opt variants W.Full
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "Network shape for hash destinations: $(b,full) (the paper's setup), $(b,ring),            $(b,star), or $(b,grid).")

let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"S" ~doc:"Workload RNG seed.")

let runs = Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc:"Repeat the simulation N times.")

let per_host =
  Arg.(value & flag & info [ "per-host" ] ~doc:"Print per-host hop counts for the last run.")

let nodes =
  Arg.(
    value & opt int 2 & info [ "nodes" ] ~docv:"N" ~doc:"Worker nodes for $(b,--impl dist).")

let fault name doc = Arg.(value & opt float 0. & info [ name ] ~docv:"P" ~doc)

let delay =
  fault "delay"
    "Per-message probability that the chaos relay holds an upstream message across 1-4 relay \
     ticks ($(b,--impl dist) only).  Digests must not change.  The coordinator protocol \
     assumes reliable channels, so the relay never drops or duplicates; the lossy fault \
     plane lives in Netpipe: try $(b,sm-shard demo --drop)."

let reorder =
  fault "reorder"
    "Per-message probability of an adjacent swap in the chaos relay ($(b,--impl dist) only).  \
     Digests must not change."

let cmd =
  let doc = "the paper's network simulation, under either synchronization regime" in
  let man =
    [ `S Manpage.s_description
    ; `P
        "Simulates a network of message-passing hosts (Boelmann et al., IPDPSW 2014, Section \
         II-H/III).  Each processed message costs $(b,--load) SHA-1 iterations; destinations \
         follow $(b,--mode).  With $(b,--impl spawnmerge) the simulation is deterministic in \
         every mode: repeat with $(b,--runs) and compare the digests."
    ]
  in
  Cmd.v
    (Cmd.info "netsim" ~version:"1.0" ~doc ~man)
    Term.(
      const main $ hosts $ messages $ ttl $ load $ impl $ mode $ topology $ seed $ runs
      $ per_host $ nodes $ delay $ reorder)

let () = exit (Cmd.eval cmd)
