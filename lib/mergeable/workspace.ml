module Imap = Map.Make (Int)

exception Unbound_key of string
exception Already_bound of string

(* Sanitizer hooks, same discipline as Sm_obs gating: a single load + branch
   per site when nothing is installed.  The determinism sanitizer
   (Sm_check.Detsan) listens here to see key minting, updates and digests
   without the workspace depending on anything above it. *)
module Sanitizer_hook = struct
  type event =
    | Key_created of { key : string }
    | Updated of { ws_id : int; key : string }
    | Digested of { ws_id : int }

  let hook : (event -> unit) option ref = ref None
  let install f = hook := Some f
  let uninstall () = hook := None
  let emit ev = match !hook with None -> () | Some f -> f ev
  let active () = !hook <> None
end

(* Copy-on-write accounting, gated exactly like Control's transform_calls:
   one load + branch while Sm_obs metrics are disabled.  [ws.cow_hits]
   counts cells whose state pointer diverged from a base snapshot shared at
   spawn/clone/rebase (the "copy on first write" event — with persistent
   states the "copy" is the O(1) pointer swap the apply performs, never a
   byte copy). *)
let cow_hits = Sm_obs.Metrics.counter "ws.cow_hits"

(* A cell holds one mergeable value as an immutable snapshot plus the journal
   of operations applied since the cell was created or last rebased.
   [offset] counts journal entries dropped by [truncate]; the cell's version
   is [offset + length journal].  [state] materializes the value only up to
   [applied] (an absolute version, [offset <= applied <= version]): merges
   append transformed journal entries without touching [state], and the
   suffix [applied .. version) is folded in lazily by [force] at the next
   observation (read, update, digest, share point).  [shared] marks a state
   pointer that some other workspace aliases as its base snapshot — cleared,
   and counted as a [ws.cow_hits], the first time this cell's state moves
   past it. *)
type ('s, 'o) cell =
  { mutable state : 's
  ; mutable applied : int
  ; mutable journal : 'o Sm_util.Vec.t
  ; mutable offset : int
  ; mutable shared : bool
  }

type boxed = ..

type ('s, 'o) key =
  { id : int
  ; name : string
  ; data : (module Data.S with type state = 's and type op = 'o)
  ; inj : ('s, 'o) cell -> boxed
  ; prj : boxed -> ('s, 'o) cell option
  }

type packed = P : ('s, 'o) key * ('s, 'o) cell -> packed

type t =
  { uid : int  (** process-unique, for sanitizer provenance only *)
  ; mutable cells : packed Imap.t
  }

let next_key_id = Atomic.make 0
let next_ws_uid = Atomic.make 0

let create_key (type s o) (module D : Data.S with type state = s and type op = o) ~name :
    (s, o) key =
  let module M = struct
    type boxed += B of (s, o) cell
  end in
  if Sanitizer_hook.active () then Sanitizer_hook.emit (Sanitizer_hook.Key_created { key = name });
  { id = Atomic.fetch_and_add next_key_id 1
  ; name
  ; data = (module D)
  ; inj = (fun c -> M.B c)
  ; prj = (function M.B c -> Some c | _ -> None)
  }

let key_name k = k.name

module Versions = struct
  type t = int Imap.t

  let empty = Imap.empty
  let find id (t : t) = Option.value ~default:0 (Imap.find_opt id t)

  let pp ppf (t : t) =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf (id, v) -> Format.fprintf ppf "%d:%d" id v))
      (Imap.bindings t)
end

(* Journal compaction before transform.  Default on: compacted journals are
   apply-equivalent to the raw ones on every state (the lib/check
   compaction-equivalence property verifies this per op module), so the
   merged states and digests are unchanged while the transform cross gets
   shorter sequences.  Runtime-switchable so equivalence can be asserted
   end-to-end by diffing digests with the flag off. *)
let compaction = Atomic.make true
let set_compaction on = Atomic.set compaction on
let compaction_enabled () = Atomic.get compaction

let create () = { uid = Atomic.fetch_and_add next_ws_uid 1; cells = Imap.empty }

let ws_uid t = t.uid

let find_cell (type s o) (t : t) (k : (s, o) key) : (s, o) cell option =
  match Imap.find_opt k.id t.cells with
  | None -> None
  | Some (P (k', c)) -> k.prj (k'.inj c)

let get_cell t k =
  match find_cell t k with
  | Some c -> c
  | None -> raise (Unbound_key k.name)

let mem t k = Imap.mem k.id t.cells

let cell_count t = Imap.cardinal t.cells

let init t k state =
  if mem t k then raise (Already_bound k.name);
  let cell =
    { state; applied = 0; journal = Sm_util.Vec.create (); offset = 0; shared = false }
  in
  t.cells <- Imap.add k.id (P (k, cell)) t.cells

let cell_version c = c.offset + Sm_util.Vec.length c.journal

(* The cell's state pointer is about to move past a snapshot someone may
   alias: count the copy-on-first-write event once per sharing window. *)
let privatize c =
  if c.shared then begin
    Sm_obs.Metrics.incr cow_hits;
    c.shared <- false
  end

(* Materialize the value: fold the journal suffix [applied .. version) into
   [state].  Persistent applies never mutate the old snapshot, so aliases
   taken at share points stay valid — this is where a lazily merged journal
   finally becomes a state, and the only place a reader pays for it. *)
let force (type s o) (k : (s, o) key) (c : (s, o) cell) =
  let version = cell_version c in
  if c.applied < version then begin
    let module D = (val k.data) in
    privatize c;
    let rec go i state =
      if i >= Sm_util.Vec.length c.journal then state
      else go (i + 1) (D.apply state (Sm_util.Vec.get c.journal i))
    in
    c.state <- go (c.applied - c.offset) c.state;
    c.applied <- version
  end

let forced_state k c =
  force k c;
  c.state

let read t k = forced_state k (get_cell t k)

let update (type s o) t (k : (s, o) key) (op : o) =
  let module D = (val k.data) in
  let cell = get_cell t k in
  force k cell;
  privatize cell;
  cell.state <- D.apply cell.state op;
  Sm_util.Vec.push cell.journal op;
  cell.applied <- cell.applied + 1;
  if Sanitizer_hook.active () then
    Sanitizer_hook.emit (Sanitizer_hook.Updated { ws_id = t.uid; key = k.name })

(* Like [update], but the journal is trimmed at the new head instead of
   retaining the operation: the version still advances, and [journal_since]
   afterwards answers only from the new head.  For replicas that apply
   remote operations they will never re-ship — retaining them would make
   every replica's memory grow with the full edit history. *)
let update_trimming (type s o) t (k : (s, o) key) (op : o) =
  let module D = (val k.data) in
  let cell = get_cell t k in
  force k cell;
  privatize cell;
  cell.state <- D.apply cell.state op;
  cell.offset <- cell_version cell + 1;
  Sm_util.Vec.clear cell.journal;
  cell.applied <- cell.offset;
  if Sanitizer_hook.active () then
    Sanitizer_hook.emit (Sanitizer_hook.Updated { ws_id = t.uid; key = k.name })

let version_of t k = cell_version (get_cell t k)

let key_names t = List.map (fun (_, P (k, _)) -> k.name) (Imap.bindings t.cells)

let version_in versions k = Versions.find k.id versions
let journal t k = Sm_util.Vec.to_list (get_cell t k).journal

let journal_since t k ~version =
  let c = get_cell t k in
  if version < c.offset then
    invalid_arg
      (Printf.sprintf "Workspace.journal_since: journal of %S truncated past version %d (< %d)"
         k.name version c.offset)
  else if version >= cell_version c then []
  else Sm_util.Vec.slice c.journal ~from:(version - c.offset)

let snapshot t = Imap.map (fun (P (_, c)) -> cell_version c) t.cells

let op_count t =
  Imap.fold (fun _ (P (_, c)) acc -> acc + Sm_util.Vec.length c.journal) t.cells 0

(* Copy-on-write sharing at spawn/clone/rebase: children alias the parent's
   (persistent) state snapshots, so sharing a workspace is O(cells)
   regardless of state size.  The state a share point hands out is
   materialized and aliased, with both sides marked shared so the first
   write on either is visible as a cow hit. *)
let share_state k c =
  force k c;
  c.shared <- true;
  c.state

let fresh_copy (P (k, c)) =
  P
    ( k
    , { state = share_state k c
      ; applied = 0
      ; journal = Sm_util.Vec.create ()
      ; offset = 0
      ; shared = true
      } )

let copy t = { uid = Atomic.fetch_and_add next_ws_uid 1; cells = Imap.map fresh_copy t.cells }

let clone_full t =
  { uid = Atomic.fetch_and_add next_ws_uid 1
  ; cells =
      Imap.map
        (fun (P (k, c)) ->
          (* The journal suffix travels with the clone, so the unapplied tail
             needs no materialization: only the [applied] snapshot is shared. *)
          c.shared <- true;
          P
            ( k
            , { state = c.state
              ; applied = c.applied
              ; journal = Sm_util.Vec.copy c.journal
              ; offset = c.offset
              ; shared = true
              } ))
        t.cells
  }

let clone_trimmed t =
  { uid = Atomic.fetch_and_add next_ws_uid 1
  ; cells =
      Imap.map
        (fun (P (k, c)) ->
          let version = cell_version c in
          P
            ( k
            , { state = share_state k c
              ; applied = version
              ; journal = Sm_util.Vec.create ()
              ; offset = version
              ; shared = true
              } ))
        t.cells
  }

let adopt t ~from = t.cells <- from.cells

let integrate (type s o) (k : (s, o) key) ~(parent : (s, o) cell) ~(ops : o list) ~base_version =
  let module D = (val k.data) in
  let module C = Sm_ot.Control.Make (D) in
  if base_version < parent.offset then
    invalid_arg
      (Printf.sprintf "Workspace.merge_child: journal of %S truncated past child base (%d < %d)"
         k.name base_version parent.offset);
  let parent_since = Sm_util.Vec.slice parent.journal ~from:(base_version - parent.offset) in
  let ops = if Atomic.get compaction then C.compact ops else ops in
  let ops' = C.transform_seq ops ~against:parent_since ~tie:Sm_ot.Side.serialization in
  (* Lazy materialization: the merged operations land in the journal only.
     The parent's state catches up in [force] at its next observation — so a
     task that merges children and is itself merged away (the interior of a
     deep spawn tree) never pays an apply for the ops flowing through it. *)
  Sm_util.Vec.append_list parent.journal ops'

let merge_cell k ~parent ~child ~base_version =
  integrate k ~parent ~ops:(Sm_util.Vec.to_list child.journal) ~base_version

let merge_ops t k ~ops ~base_version = integrate k ~parent:(get_cell t k) ~ops ~base_version

let merge_child ~parent ~child ~base =
  (* Key-id order = creation order: deterministic merge of multi-key
     workspaces. *)
  Imap.iter
    (fun id (P (k, child_cell)) ->
      match Imap.find_opt id parent.cells with
      | Some (P (_, _)) ->
        let parent_cell = get_cell parent k in
        if Imap.mem id base then
          merge_cell k ~parent:parent_cell ~child:child_cell ~base_version:(Versions.find id base)
        else
          (* The child initialized a key the parent also has: either the
             parent initialized it independently (conflict) or gained it from
             another child that initialized it (same conflict, one hop
             later). *)
          raise (Already_bound k.name)
      | None ->
        (* Key initialized inside the child: install a detached cell (the
           child may keep mutating its own cell until it terminates; the
           journal is copied and the snapshot shared — persistent applies
           keep the alias safe). *)
        child_cell.shared <- true;
        let detached =
          { state = child_cell.state
          ; applied = child_cell.applied
          ; journal = Sm_util.Vec.copy child_cell.journal
          ; offset = child_cell.offset
          ; shared = true
          }
        in
        parent.cells <- Imap.add id (P (k, detached)) parent.cells)
    child.cells

let rebase_from t ~parent = t.cells <- Imap.map fresh_copy parent.cells

let is_pristine t =
  Imap.for_all (fun _ (P (_, c)) -> Sm_util.Vec.length c.journal = 0) t.cells

let truncate t ~keep =
  Imap.iter
    (fun id (P (_, c)) ->
      let keep_from = Versions.find id keep in
      (* Never drop past [applied]: the unmaterialized suffix is still needed
         to force the state.  Those entries fall to a later truncation, once
         an observation has folded them in. *)
      let drop =
        min (min (keep_from - c.offset) (c.applied - c.offset)) (Sm_util.Vec.length c.journal)
      in
      if drop > 0 then begin
        c.journal <- Sm_util.Vec.of_list (Sm_util.Vec.slice c.journal ~from:drop);
        c.offset <- c.offset + drop
      end)
    t.cells

let truncate_to_min t ~bases =
  let keep =
    Imap.mapi
      (fun id (P (_, c)) ->
        (* The oldest version any child's base still refers to; children whose
           base lacks the key never merge it, so they impose no floor. *)
        List.fold_left
          (fun acc base -> match Imap.find_opt id base with None -> acc | Some v -> min acc v)
          (cell_version c) bases)
      t.cells
  in
  truncate t ~keep

let digest t =
  if Sanitizer_hook.active () then Sanitizer_hook.emit (Sanitizer_hook.Digested { ws_id = t.uid });
  let h =
    Imap.fold
      (fun _id (P (k, c)) acc ->
        let module D = (val k.data) in
        (* no [id] here: the creation id is a process-global mint counter, so
           including it would make digests of same-named keysets (clean vs
           mutated — the fuzzer's differential oracle) incomparable *)
        let cell_repr =
          Format.asprintf "%s:%s:%a" D.type_name k.name D.pp_state (forced_state k c)
        in
        Sm_util.Fnv.combine acc (Sm_util.Fnv.hash cell_repr))
      t.cells (Sm_util.Fnv.hash "workspace")
  in
  Sm_util.Fnv.to_hex h

let equal a b =
  Imap.cardinal a.cells = Imap.cardinal b.cells
  && Imap.for_all
       (fun id (P (k, ca)) ->
         match Imap.find_opt id b.cells with
         | None -> false
         | Some (P (_, _)) -> (
           match find_cell b k with
           | None -> false
           | Some cb ->
             let module D = (val k.data) in
             D.equal_state (forced_state k ca) (forced_state k cb)))
       a.cells

let pp ppf t =
  let pp_cell ppf (_, P (k, c)) =
    let module D = (val k.data) in
    Format.fprintf ppf "%s = %a" k.name D.pp_state (forced_state k c)
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_cell)
    (Imap.bindings t.cells)
