module Rt = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace
module P = Sm_ir.Program

module Int_elt = Sm_ot.Op_sig.Int_elt
module String_elt = Sm_ot.Op_sig.String_elt
module Ilist = Sm_mergeable.Mlist.Make (Int_elt)
module Iset = Sm_mergeable.Mset.Make (Int_elt)
module Imap = Sm_mergeable.Mmap.Make (Int_elt) (String_elt)
module Iqueue = Sm_mergeable.Mqueue.Make (Int_elt)
module Istack = Sm_mergeable.Mstack.Make (Int_elt)
module Sreg = Sm_mergeable.Mregister.Make (String_elt)
module Stree = Sm_mergeable.Mtree.Make (String_elt)

module Keyset = struct
  type t =
    { counter : Sm_mergeable.Mcounter.handle
    ; register : Sreg.handle
    ; text : Sm_mergeable.Mtext.handle
    ; list : Ilist.handle
    ; set : Iset.handle
    ; map : Imap.handle
    ; queue : Iqueue.handle
    ; stack : Istack.handle
    ; tree : Stree.handle
    }

  (* What every key's data module becomes: the clean module, a seeded
     transform bug, or the uncompacted reference. *)
  type variant =
    | Clean
    | Mutated of Sm_check.Mutate.kind
    | Uncompacted

  let wrap : type s o.
      variant ->
      (module Sm_mergeable.Data.S with type state = s and type op = o) ->
      (module Sm_mergeable.Data.S with type state = s and type op = o) =
   fun variant data ->
    match variant with
    | Clean -> data
    | Mutated k -> Sm_check.Mutate.wrap_data k data
    | Uncompacted -> Sm_check.Uncompacted.wrap data

  let make variant =
    let key data name = Ws.create_key (wrap variant data) ~name in
    { counter = key (module Sm_mergeable.Mcounter.Data) "fuzz.counter"
    ; register = key (module Sreg.Data) "fuzz.register"
    ; text = key (module Sm_mergeable.Mtext.Data) "fuzz.text"
    ; list = key (module Ilist.Data) "fuzz.list"
    ; set = key (module Iset.Data) "fuzz.set"
    ; map = key (module Imap.Data) "fuzz.map"
    ; queue = key (module Iqueue.Data) "fuzz.queue"
    ; stack = key (module Istack.Data) "fuzz.stack"
    ; tree = key (module Stree.Data) "fuzz.tree"
    }

  let default_keys = lazy (make Clean)
  let default () = Lazy.force default_keys
  let uncompacted_keys = lazy (make Uncompacted)
  let uncompacted () = Lazy.force uncompacted_keys
  let mutated_keys : (Sm_check.Mutate.kind, t) Hashtbl.t = Hashtbl.create 4

  let mutated kind =
    match Hashtbl.find_opt mutated_keys kind with
    | Some t -> t
    | None ->
      let t = make (Mutated kind) in
      Hashtbl.add mutated_keys kind t;
      t

  let counter_value ws t = Sm_mergeable.Mcounter.get ws t.counter
  let queue_value ws t = Iqueue.get ws t.queue
end

let init (k : Keyset.t) ws =
  Ws.init ws k.counter 0;
  Ws.init ws k.register "r0";
  Ws.init ws k.text (Sm_ot.Op_text.of_string "");
  Ws.init ws k.list [];
  Ws.init ws k.set Iset.Op.Elt_set.empty;
  Ws.init ws k.map Imap.Op.Key_map.empty;
  Ws.init ws k.queue [];
  Ws.init ws k.stack [];
  Ws.init ws k.tree []

(* --- operations ------------------------------------------------------------- *)

let label n = Printf.sprintf "v%d" (n mod 16)

let apply_op (k : Keyset.t) ws { P.ty; sel; a; b } =
  match ty with
  | P.Counter ->
    let n = 1 + (a mod 4) in
    Sm_mergeable.Mcounter.add ws k.counter (if sel mod 2 = 0 then n else -n)
  | P.Register -> Sreg.set ws k.register (label a)
  | P.Text -> (
    let len = Sm_mergeable.Mtext.length ws k.text in
    match sel mod 3 with
    | 1 when len > 0 ->
      let pos = a mod len in
      let dlen = 1 + (b mod min 3 (len - pos)) in
      Sm_mergeable.Mtext.delete ws k.text ~pos ~len:dlen
    | 2 -> Sm_mergeable.Mtext.append ws k.text (label b)
    | _ -> Sm_mergeable.Mtext.insert ws k.text (a mod (len + 1)) (label b))
  | P.List -> (
    let len = Ilist.length ws k.list in
    match sel mod 3 with
    | 1 when len > 0 -> Ilist.delete ws k.list (a mod len)
    | 2 when len > 0 -> Ilist.set ws k.list (a mod len) (b mod 16)
    | _ -> Ilist.insert ws k.list (a mod (len + 1)) (b mod 16))
  | P.Set ->
    if sel mod 2 = 0 then Iset.add ws k.set (a mod 8) else Iset.remove ws k.set (a mod 8)
  | P.Map ->
    if sel mod 2 = 0 then Imap.put ws k.map (a mod 8) (label b) else Imap.remove ws k.map (a mod 8)
  | P.Queue ->
    if sel mod 2 = 0 then Iqueue.push ws k.queue (a mod 16) else ignore (Iqueue.pop ws k.queue)
  | P.Stack ->
    if sel mod 2 = 0 then Istack.push ws k.stack (a mod 16) else ignore (Istack.pop ws k.stack)
  | P.Tree -> (
    let roots = Stree.get ws k.tree in
    let nroots = List.length roots in
    let insert_somewhere () =
      let path =
        if nroots > 0 && b land 1 = 1 then begin
          let i = a mod nroots in
          let node = List.nth roots i in
          [ i; b mod (List.length node.Stree.Op.children + 1) ]
        end
        else [ a mod (nroots + 1) ]
      in
      Stree.insert ws k.tree path (Stree.Op.leaf (label b))
    in
    let existing_path () =
      let i = a mod nroots in
      let node = List.nth roots i in
      if b land 1 = 1 && node.Stree.Op.children <> [] then
        [ i; b mod (List.length node.Stree.Op.children) ]
      else [ i ]
    in
    match sel mod 3 with
    | 1 when nroots > 0 -> Stree.delete ws k.tree (existing_path ())
    | 2 when nroots > 0 -> Stree.relabel ws k.tree (existing_path ()) (label (b + 1))
    | _ -> insert_somewhere ())

(* --- execution -------------------------------------------------------------- *)

let validate_fun (k : Keyset.t) v =
  if v <= 0 then None
  else begin
    let m = 2 + ((v - 1) mod 3) in
    Some (fun child_ws -> Keyset.counter_value child_ws k mod m <> 0)
  end

(* Live-children subset for the *_set merge variants: bit [i mod 30] of the
   mask picks child [i] (mask bits recycle past 30 children). *)
let select mask handles = List.filteri (fun i _ -> (mask lsr (i mod 30)) land 1 = 1) handles

let run ?(task_budget = 256) (k : Keyset.t) (prog : P.t) ctx =
  let n = Array.length prog.P.scripts in
  let budget = Atomic.make 0 in
  let rec exec idx ~root ctx =
    let ws = Rt.workspace ctx in
    let children = ref [] in
    let live () = List.filter (fun h -> Rt.status h <> Rt.Retired) !children in
    let target j = P.resolve_target ~nscripts:n ~idx j in
    let step = function
      | P.Op spec -> apply_op k ws spec
      | P.Spawn j -> (
        match target j with
        | Some t when Atomic.fetch_and_add budget 1 < task_budget ->
          children := !children @ [ Rt.spawn ctx (exec t ~root:false) ]
        | _ -> ())
      | P.Merge { kind; sel; validate } -> (
        let validate = validate_fun k validate in
        match kind with
        | P.All -> Rt.merge_all ?validate ctx
        | P.All_set -> Rt.merge_all_from_set ?validate ctx (select sel (live ()))
        | P.Any -> ignore (Rt.merge_any ?validate ctx)
        | P.Any_set -> ignore (Rt.merge_any_from_set ?validate ctx (select sel (live ()))))
      | P.Sync -> if not root then ignore (Rt.sync ctx)
      | P.Clone j -> (
        match target j with
        | Some t
          when (not root)
               && Ws.is_pristine ws
               && Atomic.fetch_and_add budget 1 < task_budget ->
          ignore (Rt.clone ctx (exec t ~root:false))
        | _ -> ())
      | P.Abort j -> (
        match live () with
        | [] -> ()
        | l -> Rt.abort ctx (List.nth l (j mod List.length l)))
      | P.Mint j ->
        (* the DetSan key-in-task pitfall, on purpose: minting alone is the
           hazard, so the key is neither initialized nor written — state and
           digest stay untouched and the step is deterministic.  Only four
           distinct names exist so repeated mints dedup in hazard reports. *)
        ignore
          (Ws.create_key
             (module Sm_mergeable.Mcounter.Data)
             ~name:(Printf.sprintf "fuzz.minted.%d" (j mod 4)))
    in
    List.iter step prog.P.scripts.(idx);
    (* never leave children to the implicit MergeAll: sync-parked children
       resume and finish, so loop until the task tree below us is gone *)
    while Rt.has_children ctx do
      Rt.merge_all ctx
    done
  in
  init k (Rt.workspace ctx);
  exec 0 ~root:true ctx
