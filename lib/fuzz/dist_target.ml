module D = Sm_dist.Coordinator
module Reg = Sm_dist.Registry
module Ws = Sm_mergeable.Workspace
module Rng = Sm_util.Det_rng

(* One registry for the whole process, as in an MPI binary: coordinator and
   nodes share it by construction. *)
let registry = Reg.create ()

module Counter = Sm_dist.Codable.Counter
module Ilist = Sm_dist.Codable.Make_list (Sm_dist.Codable.Int_elt)
module Sreg = Sm_dist.Codable.Make_register (Sm_dist.Codable.String_elt)

let kc = Reg.value registry ~name:"fuzz.counter" (module Counter)
let kl = Reg.value registry ~name:"fuzz.list" (module Ilist)
let kr = Reg.value registry ~name:"fuzz.register" (module Sreg)

let t_add =
  Reg.task registry ~name:"fuzz-add" (fun ctx ->
      Reg.update ctx kc (Sm_ot.Op_counter.add (int_of_string (Reg.argument ctx))))

let t_append =
  Reg.task registry ~name:"fuzz-append" (fun ctx ->
      let x = int_of_string (Reg.argument ctx) in
      Reg.update ctx kl (Ilist.Op.ins (List.length (Reg.read ctx kl)) x))

let t_assign =
  Reg.task registry ~name:"fuzz-assign" (fun ctx ->
      Reg.update ctx kr (Sreg.Op.assign (Reg.argument ctx)))

let t_sync_rounds =
  Reg.task registry ~name:"fuzz-sync-rounds" (fun ctx ->
      let rounds = int_of_string (Reg.argument ctx) in
      for _ = 1 to rounds do
        Reg.update ctx kc (Sm_ot.Op_counter.add 1);
        ignore (Reg.sync ctx)
      done)

let digest ?chaos_seed ~seed () =
  let rng = Rng.create ~seed in
  let nodes = 2 + Rng.int rng ~bound:2 in
  let ntasks = 3 + Rng.int rng ~bound:6 in
  let spawns =
    List.init ntasks (fun i ->
        match Rng.int rng ~bound:4 with
        | 0 -> (t_add, string_of_int (1 + Rng.int rng ~bound:9))
        | 1 -> (t_append, string_of_int i)
        | 2 -> (t_assign, Printf.sprintf "r%d" (Rng.int rng ~bound:8))
        | _ -> (t_sync_rounds, string_of_int (1 + Rng.int rng ~bound:3)))
  in
  let chaos =
    Option.map (fun seed -> D.Chaos.make ~hold_prob:0.35 ~max_hold:5 ~seed ()) chaos_seed
  in
  let cluster = D.cluster ~nodes ?chaos registry in
  Fun.protect
    ~finally:(fun () -> D.shutdown cluster)
    (fun () ->
      D.run cluster (fun ctx ->
          let ws = D.workspace ctx in
          Ws.init ws (Reg.workspace_key kc) 0;
          Ws.init ws (Reg.workspace_key kl) [];
          Ws.init ws (Reg.workspace_key kr) "initial";
          List.iter (fun (name, argument) -> ignore (D.spawn ctx name ~argument)) spawns;
          while D.live_tasks ctx > 0 do
            D.merge_all ctx
          done;
          Ws.digest ws))

let target =
  let check ~seed =
    let fail detail = Error (Target.fail ~target:"dist" ~seed ~oracle:"chaos-invariance" detail) in
    let plain = digest ~seed () in
    let chaotic = digest ~chaos_seed:(Int64.logxor seed 0x63686130L) ~seed () in
    let chaotic' = digest ~chaos_seed:(Int64.logxor seed 0x63686131L) ~seed () in
    if plain <> chaotic then
      fail (Printf.sprintf "chaos changed the digest: %s <> %s" plain chaotic)
    else if plain <> chaotic' then
      fail (Printf.sprintf "chaos (second seed) changed the digest: %s <> %s" plain chaotic')
    else Ok ()
  in
  { Target.name = "dist"; check }
