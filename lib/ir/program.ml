module Rng = Sm_util.Det_rng

type ty =
  | Counter
  | Register
  | Text
  | List
  | Set
  | Map
  | Queue
  | Stack
  | Tree

let all_types = [ Counter; Register; Text; List; Set; Map; Queue; Stack; Tree ]

let ty_name = function
  | Counter -> "counter"
  | Register -> "register"
  | Text -> "text"
  | List -> "list"
  | Set -> "set"
  | Map -> "map"
  | Queue -> "queue"
  | Stack -> "stack"
  | Tree -> "tree"

let ty_of_name = function
  | "counter" -> Some Counter
  | "register" -> Some Register
  | "text" -> Some Text
  | "list" -> Some List
  | "set" -> Some Set
  | "map" -> Some Map
  | "queue" -> Some Queue
  | "stack" -> Some Stack
  | "tree" -> Some Tree
  | _ -> None

type op_spec =
  { ty : ty
  ; sel : int
  ; a : int
  ; b : int
  }

type merge_kind =
  | All
  | All_set
  | Any
  | Any_set

let merge_kind_name = function
  | All -> "all"
  | All_set -> "all-set"
  | Any -> "any"
  | Any_set -> "any-set"

let merge_kind_of_name = function
  | "all" -> Some All
  | "all-set" -> Some All_set
  | "any" -> Some Any
  | "any-set" -> Some Any_set
  | _ -> None

type step =
  | Op of op_spec
  | Spawn of int
  | Merge of
      { kind : merge_kind
      ; sel : int
      ; validate : int
      }
  | Sync
  | Clone of int
  | Abort of int
  | Mint of int

type t = { scripts : step list array }

let size t = Array.fold_left (fun acc s -> acc + List.length s) 0 t.scripts

let step_exists p t = Array.exists (List.exists p) t.scripts

let uses_any_merge t =
  step_exists (function Merge { kind = Any | Any_set; _ } -> true | _ -> false) t

let uses_clone t = step_exists (function Clone _ -> true | _ -> false) t
let uses_mint t = step_exists (function Mint _ -> true | _ -> false) t

(* Spawn/clone targets are a pure function of the script index and the
   payload, shared by the interpreter and the static analyzer so both agree
   on the spawn tree.  [None] when [idx] is the last script (no legal
   target exists) — the interpreter skips the step. *)
let resolve_target ~nscripts ~idx j =
  if idx >= nscripts - 1 then None else Some (idx + 1 + (j mod (nscripts - idx - 1)))

(* --- well-formedness --------------------------------------------------------- *)

(* Every payload integer must be non-negative: the interpreter reduces them
   modulo live bounds, and OCaml's [mod] preserves sign, so a negative
   payload would index arrays negatively.  The codec happily parses negative
   literals, hence the explicit gate for hand-authored programs. *)
let well_formed t =
  if Array.length t.scripts = 0 then Error "program has no tasks"
  else begin
    let bad = ref None in
    let check task step ints =
      if !bad = None && List.exists (fun n -> n < 0) ints then
        bad := Some (Printf.sprintf "task %d step %d: negative payload" task step)
    in
    Array.iteri
      (fun task steps ->
        List.iteri
          (fun i step ->
            match step with
            | Op { sel; a; b; _ } -> check task i [ sel; a; b ]
            | Spawn j | Clone j | Abort j | Mint j -> check task i [ j ]
            | Merge { sel; validate; _ } -> check task i [ sel; validate ]
            | Sync -> ())
          steps)
      t.scripts;
    match !bad with None -> Ok () | Some msg -> Error msg
  end

(* --- text form -------------------------------------------------------------- *)

let pp_step ppf = function
  | Op { ty; sel; a; b } -> Format.fprintf ppf "op %s %d %d %d" (ty_name ty) sel a b
  | Spawn i -> Format.fprintf ppf "spawn %d" i
  | Merge { kind; sel; validate } ->
    Format.fprintf ppf "merge %s %d %d" (merge_kind_name kind) sel validate
  | Sync -> Format.fprintf ppf "sync"
  | Clone i -> Format.fprintf ppf "clone %d" i
  | Abort i -> Format.fprintf ppf "abort %d" i
  | Mint i -> Format.fprintf ppf "mint %d" i

let pp ppf t =
  Format.fprintf ppf "program v1@.";
  Array.iteri
    (fun i steps ->
      Format.fprintf ppf "task %d@." i;
      List.iter (fun s -> Format.fprintf ppf "  %a@." pp_step s) steps)
    t.scripts;
  Format.fprintf ppf "end@."

let to_string t = Format.asprintf "%a" pp t

let of_string s =
  let bad line msg = invalid_arg (Printf.sprintf "Program.of_string: line %d: %s" line msg) in
  let int line w =
    match int_of_string_opt w with Some n -> n | None -> bad line ("not an integer: " ^ w)
  in
  let parse_step line words =
    match words with
    | [ "op"; ty; sel; a; b ] -> (
      match ty_of_name ty with
      | Some ty -> Op { ty; sel = int line sel; a = int line a; b = int line b }
      | None -> bad line ("unknown type " ^ ty))
    | [ "spawn"; i ] -> Spawn (int line i)
    | [ "merge"; kind; sel; validate ] -> (
      match merge_kind_of_name kind with
      | Some kind -> Merge { kind; sel = int line sel; validate = int line validate }
      | None -> bad line ("unknown merge kind " ^ kind))
    | [ "sync" ] -> Sync
    | [ "clone"; i ] -> Clone (int line i)
    | [ "abort"; i ] -> Abort (int line i)
    | [ "mint"; i ] -> Mint (int line i)
    | _ -> bad line ("unknown step: " ^ String.concat " " words)
  in
  let lines = String.split_on_char '\n' s in
  let scripts = ref [] in
  let current = ref None in
  let flush lineno =
    match !current with
    | None -> ()
    | Some (idx, steps) ->
      if idx <> List.length !scripts then bad lineno "task indices out of order";
      scripts := List.rev steps :: !scripts;
      current := None
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let words =
        String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
      in
      match words with
      | [] -> ()
      | [ "program"; "v1" ] -> ()
      | [ "end" ] -> flush lineno
      | [ "task"; idx ] ->
        flush lineno;
        current := Some (int lineno idx, [])
      | _ -> (
        match !current with
        | None -> bad lineno "step outside a task block"
        | Some (idx, steps) -> current := Some (idx, parse_step lineno words :: steps)))
    lines;
  flush (List.length lines);
  if !scripts = [] then invalid_arg "Program.of_string: no tasks";
  { scripts = Array.of_list (List.rev !scripts) }

(* --- generation ------------------------------------------------------------- *)

type profile =
  { allow_validate : bool
  ; allow_abort : bool
  ; allow_sync : bool
  ; allow_clone : bool
  ; allow_any : bool
  }

let det_profile =
  { allow_validate = true; allow_abort = true; allow_sync = true; allow_clone = false; allow_any = false }

let full_profile =
  { allow_validate = true; allow_abort = true; allow_sync = true; allow_clone = true; allow_any = true }

let profile_flags =
  [ ("validate", (fun p -> p.allow_validate), fun p v -> { p with allow_validate = v })
  ; ("abort", (fun p -> p.allow_abort), fun p v -> { p with allow_abort = v })
  ; ("sync", (fun p -> p.allow_sync), fun p v -> { p with allow_sync = v })
  ; ("clone", (fun p -> p.allow_clone), fun p v -> { p with allow_clone = v })
  ; ("any", (fun p -> p.allow_any), fun p v -> { p with allow_any = v })
  ]

let profile_to_string p =
  match List.filter_map (fun (n, get, _) -> if get p then Some n else None) profile_flags with
  | [] -> "none"
  | names -> String.concat "," names

let profile_of_string s =
  let none = { allow_validate = false; allow_abort = false; allow_sync = false; allow_clone = false; allow_any = false } in
  match String.trim s with
  | "none" -> Some none
  | "det" -> Some det_profile
  | "full" -> Some full_profile
  | _ ->
    String.split_on_char ',' s
    |> List.fold_left
         (fun acc name ->
           match acc with
           | None -> None
           | Some p -> (
             match List.find_opt (fun (n, _, _) -> n = String.trim name) profile_flags with
             | Some (_, _, set) -> Some (set p true)
             | None -> None))
         (Some none)

let gen_op rng =
  let ty = Rng.pick rng all_types in
  Op { ty; sel = Rng.int rng ~bound:6; a = Rng.int rng ~bound:8; b = Rng.int rng ~bound:8 }

(* A correlated burst: several ops on one type with small payloads, so two
   tasks bursting the same value actually collide on positions — range
   deletes straddling concurrent inserts is what exposes order-sensitive
   transform bugs (splits), and uncorrelated single ops almost never line
   up.  Text is overweighted because its transforms are the split-richest. *)
let gen_burst rng =
  let ty = if Rng.int rng ~bound:3 = 0 then Text else Rng.pick rng all_types in
  List.init
    (2 + Rng.int rng ~bound:3)
    (fun _ ->
      Op { ty; sel = Rng.int rng ~bound:6; a = Rng.int rng ~bound:4; b = Rng.int rng ~bound:4 })

let gen_merge rng ~(profile : profile) =
  let kinds = if profile.allow_any then [ All; All_set; Any; Any_set ] else [ All; All_set ] in
  let kind = Rng.pick rng kinds in
  let validate =
    if profile.allow_validate && Rng.int rng ~bound:3 = 0 then 1 + Rng.int rng ~bound:3 else 0
  in
  Merge { kind; sel = Rng.int rng ~bound:64; validate }

(* One script.  [idx] is this script's position; spawn/clone targets must be
   strictly greater, so the last script generates no spawns.  Fan-out is
   capped at 2 spawns + 1 clone per script, bounding the whole tree at
   3^scripts tasks in the worst case — small enough at the depths the CLI
   exposes, and the interpreter has a hard task budget besides.  [Mint] is
   never generated: it exists for hand-written hazard fixtures (the static
   twin of DetSan's key-in-task class), and generated programs must stay
   clean under the detsan oracle. *)
let gen_script rng ~(profile : profile) ~idx ~nscripts ~depth =
  let nsteps = 2 + Rng.int rng ~bound:(depth + 4) in
  let spawns = ref 0 in
  let clones = ref 0 in
  let can_target = idx < nscripts - 1 in
  let target () = idx + 1 + Rng.int rng ~bound:(nscripts - idx - 1) in
  let step () =
    match Rng.int rng ~bound:100 with
    | r when r < 45 -> [ gen_op rng ]
    | r when r < 55 -> gen_burst rng
    | r when r < 70 ->
      if can_target && !spawns < 2 then begin
        incr spawns;
        [ Spawn (target ()) ]
      end
      else [ gen_op rng ]
    | r when r < 82 -> [ gen_merge rng ~profile ]
    | r when r < 90 ->
      if profile.allow_sync && idx > 0 then [ Sync ] else [ gen_op rng ]
    | r when r < 95 ->
      if profile.allow_abort then [ Abort (Rng.int rng ~bound:4) ] else [ gen_op rng ]
    | _ ->
      if profile.allow_clone && idx > 0 && can_target && !clones < 1 then begin
        incr clones;
        [ Clone (target ()) ]
      end
      else [ gen_op rng ]
  in
  List.concat (List.init nsteps (fun _ -> step ()))

let generate rng ~depth ~profile =
  let depth = max 1 depth in
  let nscripts = 2 + Rng.int rng ~bound:(2 * depth) in
  let scripts =
    Array.init nscripts (fun idx -> gen_script rng ~profile ~idx ~nscripts ~depth)
  in
  (* half the time, seed the root with text appends before everything else:
     a shared non-empty buffer is what lets concurrent range deletes straddle
     concurrent inserts — the splitting transforms where order-sensitive
     mutations (Reverse, Drop_last) actually bite *)
  if Rng.bool rng then begin
    let prelude =
      List.init
        (1 + Rng.int rng ~bound:3)
        (fun _ -> Op { ty = Text; sel = 2; a = 0; b = Rng.int rng ~bound:8 })
    in
    scripts.(0) <- prelude @ scripts.(0)
  end;
  (* the root must actually exercise concurrency: force a spawn in script 0 *)
  if not (List.exists (function Spawn _ -> true | _ -> false) scripts.(0)) then begin
    let pos = Rng.int rng ~bound:(List.length scripts.(0) + 1) in
    let target = 1 + Rng.int rng ~bound:(nscripts - 1) in
    let rec insert i = function
      | rest when i = pos -> Spawn target :: rest
      | [] -> [ Spawn target ]
      | s :: rest -> s :: insert (i + 1) rest
    in
    scripts.(0) <- insert 0 scripts.(0)
  end;
  { scripts }

(* --- shrinking -------------------------------------------------------------- *)

let shrink_int n = if n > 0 then [ 0; n / 2 ] |> List.filter (fun m -> m < n) else []

let shrink_step = function
  | Op ({ sel; a; b; _ } as op) ->
    List.concat
      [ List.map (fun sel -> Op { op with sel }) (shrink_int sel)
      ; List.map (fun a -> Op { op with a }) (shrink_int a)
      ; List.map (fun b -> Op { op with b }) (shrink_int b)
      ]
  | Spawn i -> List.map (fun i -> Spawn i) (shrink_int i)
  | Merge { kind; sel; validate } ->
    let kinds =
      match kind with
      | All -> []
      | All_set -> [ All ]
      | Any -> [ All ]
      | Any_set -> [ All_set; Any ]
    in
    List.concat
      [ List.map (fun kind -> Merge { kind; sel; validate }) kinds
      ; List.map (fun sel -> Merge { kind; sel; validate }) (shrink_int sel)
      ; List.map (fun validate -> Merge { kind; sel; validate }) (shrink_int validate)
      ]
  | Sync -> []
  | Clone i -> Spawn i :: List.map (fun i -> Clone i) (shrink_int i)
  | Abort i -> List.map (fun i -> Abort i) (shrink_int i)
  | Mint i -> List.map (fun i -> Mint i) (shrink_int i)
