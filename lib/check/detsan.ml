module Rt = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace

type hazard =
  | Nondet_merge of
      { task : string
      ; prim : string
      }
  | Key_minted_in_task of
      { key : string
      ; tasks : string list
      }
  | Unmerged_children of
      { task : string
      ; children : string list
      }
  | Op_after_digest of
      { key : string
      }

let pp_hazard ppf = function
  | Nondet_merge { task; prim } ->
    Format.fprintf ppf
      "non-deterministic merge: task %s called %s — the merged result depends on scheduling; any \
       digest downstream of it is not reproducible (use merge_all / merge_all_from_set, or \
       record/replay a Trace)"
      task prim
  | Key_minted_in_task { key; tasks } ->
    Format.fprintf ppf
      "workspace key %S minted while task%s %s running — re-minting keys per run changes key \
       identities and makes digests incomparable; create keys once at module level (see Detcheck)"
      key
      (if List.length tasks = 1 then "" else "s")
      (String.concat ", " tasks)
  | Unmerged_children { task; children } ->
    Format.fprintf ppf
      "task %s finished with unmerged child%s %s — they are merged by the implicit MergeAll, so \
       the merge point is invisible in the code; merge explicitly before returning"
      task
      (if List.length children = 1 then "" else "ren")
      (String.concat ", " children)
  | Op_after_digest { key } ->
    Format.fprintf ppf
      "operation recorded on %S after its workspace was digested — the digest was taken too \
       early and does not cover the final state"
      key

let hazard_tag = function
  | Nondet_merge _ -> "nondet-merge"
  | Key_minted_in_task _ -> "key-in-task"
  | Unmerged_children _ -> "unmerged-children"
  | Op_after_digest _ -> "op-after-digest"

(* The closed taxonomy, one tag per constructor — the shared vocabulary
   static twins (Sm_lint findings) key on.  Keep in sync with [hazard]. *)
let hazard_tags = [ "nondet-merge"; "key-in-task"; "unmerged-children"; "op-after-digest" ]

(* At most one observation at a time: the hook is process-global.  Nested
   or concurrent [observe] calls would silently steal each other's events. *)
let busy = Mutex.create ()

let observe f =
  Mutex.lock busy;
  let mu = Mutex.create () in
  let hazards = ref [] in
  (* reverse order *)
  let live = ref [] in
  (* task names currently between start and body end *)
  let digested = ref [] in
  (* ws uids already digested *)
  let protected g =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) g
  in
  (* A hazard is exactly the moment the flight recorder exists for: freeze
     every ring as the post-mortem before the run unwinds any further. *)
  let add h =
    Sm_obs.Flight_recorder.trigger ~reason:(Format.asprintf "detsan: %a" pp_hazard h);
    protected (fun () -> hazards := h :: !hazards)
  in
  Ws.Sanitizer_hook.install (function
    | Ws.Sanitizer_hook.Nondet_merge { task; prim } -> add (Nondet_merge { task; prim })
    | Ws.Sanitizer_hook.Task_started { task } -> protected (fun () -> live := task :: !live)
    | Ws.Sanitizer_hook.Task_finished { task; unmerged } ->
      protected (fun () -> live := List.filter (fun t -> not (String.equal t task)) !live);
      if unmerged <> [] then add (Unmerged_children { task; children = unmerged })
    | Ws.Sanitizer_hook.Key_created { key } ->
      let tasks = protected (fun () -> List.rev !live) in
      if tasks <> [] then add (Key_minted_in_task { key; tasks })
    | Ws.Sanitizer_hook.Updated { ws_id; key } ->
      if protected (fun () -> List.mem ws_id !digested) then add (Op_after_digest { key })
    | Ws.Sanitizer_hook.Digested { ws_id } ->
      protected (fun () -> if not (List.mem ws_id !digested) then digested := ws_id :: !digested));
  let result =
    Fun.protect
      ~finally:(fun () ->
        Ws.Sanitizer_hook.uninstall ();
        Mutex.unlock busy)
      f
  in
  (* First occurrence of each distinct hazard, in observation order: a
     merge_any in a loop is one finding, not a thousand. *)
  let seen = Hashtbl.create 16 in
  let dedup =
    List.filter
      (fun h ->
        let k = Format.asprintf "%a" pp_hazard h in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      (List.rev !hazards)
  in
  (result, dedup)

let run ?executor program =
  let digest, hazards =
    observe (fun () ->
        let ws =
          Rt.run ?executor (fun ctx ->
              program ctx;
              Rt.workspace ctx)
        in
        Ws.digest ws)
  in
  (hazards, digest)
