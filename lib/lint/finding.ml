type severity =
  | Error
  | Warning
  | Note

let severity_name = function Error -> "error" | Warning -> "warning" | Note -> "note"

type t =
  { cls : string
  ; severity : severity
  ; task : int
  ; step : int
  ; detail : string
  ; provenance : string list
  ; pinned : string option
  ; twin : string option
  }

let classes =
  [ ( "nondet-merge"
    , Error
    , Some "nondet-merge"
    , "a merge_any/merge_any_from_set result flows into the digested root state" )
  ; ( "key-after-spawn"
    , Error
    , Some "key-in-task"
    , "a workspace key is minted while tasks can be live (mint step)" )
  ; ( "unmerged-children"
    , Note
    , Some "unmerged-children"
    , "a spawned/cloned child has no later merge in its parent script and is left to the \
       interpreter's implicit MergeAll epilogue" )
  ; ( "merge-order"
    , Warning
    , None
    , "sibling write-sets share a key whose op classes do not converge under both merge orders: \
       a MergeAllFromSet outcome depends on the set order" )
  ; ( "conflict"
    , Note
    , None
    , "concurrent writes on one key will force OT transforms at merge (convergent, but not free)" )
  ; ( "op-after-abort"
    , Note
    , Some "op-after-digest"
    , "an abort can discard a child subtree that performed operations" )
  ; ( "sync-under-validate"
    , Note
    , None
    , "a sync inside a subtree merged with ?validate: a refusal re-parks the child for a later \
       merge attempt" )
  ; ("unreachable-task", Note, None, "no spawn/clone path from the root reaches this script")
  ]

let class_twin cls =
  List.find_map (fun (c, _, twin, _) -> if String.equal c cls then twin else None) classes

let default_severity cls =
  match List.find_opt (fun (c, _, _, _) -> String.equal c cls) classes with
  | Some (_, sev, _, _) -> sev
  | None -> Note

let make ?(severity_override : severity option) ?(provenance = []) ?pinned ~cls ~task ~step detail
    =
  let severity = Option.value severity_override ~default:(default_severity cls) in
  { cls; severity; task; step; detail; provenance; pinned; twin = class_twin cls }

let pp ppf f =
  let where =
    if f.task < 0 then "program"
    else if f.step < 0 then Printf.sprintf "task %d" f.task
    else Printf.sprintf "task %d step %d" f.task f.step
  in
  Format.fprintf ppf "%s[%s] %s: %s" (severity_name f.severity) f.cls where f.detail;
  (match f.pinned with None -> () | Some id -> Format.fprintf ppf " (pinned: %s)" id);
  (match f.twin with None -> () | Some t -> Format.fprintf ppf " (detsan twin: %s)" t);
  List.iter (fun line -> Format.fprintf ppf "@.    %s" line) f.provenance

let pp_list ppf fs =
  List.iteri (fun i f -> (if i > 0 then Format.fprintf ppf "@."); pp ppf f) fs

(* --- verdicts ---------------------------------------------------------------- *)

type verdict =
  | Clean
  | Pinned_only
  | Dirty

let verdict_name = function
  | Clean -> "clean"
  | Pinned_only -> "clean-except-pinned"
  | Dirty -> "dirty"

(* Notes are advisory and never gate; errors and warnings do unless a
   registry known-issue pinned them. *)
let gates f = match f.severity with Error | Warning -> true | Note -> false

let verdict findings =
  let gating = List.filter gates findings in
  if List.exists (fun f -> f.pinned = None) gating then Dirty
  else if gating <> [] then Pinned_only
  else Clean

let verdict_exit_code = function Clean -> 0 | Pinned_only -> 3 | Dirty -> 1

(* The soundness contract half the agreement harness enforces: a program
   with no error-severity finding that has a dynamic twin must be
   DetSan-clean on every run.  Warnings (merge-order) and notes are
   deliberately excluded — they flag order-dependence and cost, which are
   deterministic. *)
let guarantees_detsan_clean findings =
  not (List.exists (fun f -> f.severity = Error && f.twin <> None) findings)

(* The completeness half: every dynamic hazard tag must be covered by some
   static finding's twin tag. *)
let covers_hazard findings ~tag =
  List.exists (fun f -> match f.twin with Some t -> String.equal t tag | None -> false) findings
