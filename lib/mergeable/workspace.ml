module Imap = Map.Make (Int)

exception Unbound_key of string
exception Already_bound of string

(* The sanitizer hook, same discipline as Sm_obs gating: a single load +
   branch per site when nothing is installed.  The determinism sanitizer
   (Sm_check.Detsan) listens here to see key minting, updates and digests,
   and the runtime (which sits above the workspace) emits its task events
   through the same hook. *)
module Sanitizer_hook = struct
  type event =
    | Key_created of { key : string }
    | Updated of { ws_id : int; key : string }
    | Digested of { ws_id : int }
    | Task_started of { task : string }
    | Task_finished of { task : string; unmerged : string list }
    | Nondet_merge of { task : string; prim : string }

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
   of operations applied since the cell was created or last shared.
   [offset] is the version the journal starts at: the source's version at a
   trimmed share, advanced by truncation and trimming; the cell's version is
   [offset + length journal].  [state] materializes the value only up to
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

(* Everything the merge machinery derives from a mergeable type is fixed
   when its key is minted: the metered control instance ([compact],
   [transform_seq]) is built once here, not per merged cell, and [witness]
   recovers a cell's types from a binding without boxing it. *)
type ('s, 'o) key =
  { id : int
  ; name : string
  ; data : (module Data.S with type state = 's and type op = 'o)
  ; witness : ('s, 'o) cell Type.Id.t
  ; compact : 'o list -> 'o list
  ; transform_seq : 'o list -> against:'o list -> tie:Sm_ot.Side.policy -> 'o list
  }

type packed = P : ('s, 'o) key * ('s, 'o) cell -> packed

type t =
  { uid : int  (** process-unique, for sanitizer provenance only *)
  ; mutable cells : packed Imap.t
  ; mutable base : int Imap.t
        (** The parent versions (key id -> version) this workspace's journals
            are relative to: the parent's at Spawn or last Sync, empty for a
            root.  Only the share points write it: [copy] and the clones
            before anyone else holds the result, and [rebase_from] in the
            parent, under the runtime lock, with the child parked.
            [truncate_to_min] reads only [base] fields, never a running
            child's cells. *)
  }

let next_key_id = Atomic.make 0
let next_ws_uid = Atomic.make 0

let create_key (type s o) (module D : Data.S with type state = s and type op = o) ~name :
    (s, o) key =
  let module C = Sm_ot.Control.Make (D) in
  if Sanitizer_hook.active () then Sanitizer_hook.emit (Sanitizer_hook.Key_created { key = name });
  { id = Atomic.fetch_and_add next_key_id 1
  ; name
  ; data = (module D)
  ; witness = Type.Id.make ()
  ; compact = C.compact
  ; transform_seq = C.transform_seq
  }

let key_name k = k.name
let compact k ops = k.compact ops

let fresh_uid () = Atomic.fetch_and_add next_ws_uid 1
let create () = { uid = fresh_uid (); cells = Imap.empty; base = Imap.empty }

(* The cell of a binding, at [k]'s types.  Bindings are keyed by key id and
   ids are unique, so the witnesses always agree; the check recovers the
   types and allocates nothing. *)
let cell_of (type s o) (k : (s, o) key) (P (k', c)) : (s, o) cell =
  match Type.Id.provably_equal k.witness k'.witness with
  | Some Equal -> c
  | None -> raise (Unbound_key k.name)

let get_cell t k =
  match Imap.find k.id t.cells with
  | p -> cell_of k p
  | exception Not_found -> raise (Unbound_key k.name)

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

(* Like [update] over [ops], but the journal is trimmed at the new head
   instead of retaining them: the version still advances by their count,
   and [journal_since] afterwards answers only from the new head.  For
   replicas that apply remote operations they will never re-ship —
   retaining them would make every replica's memory grow with the full
   edit history.  One call per batch: one lookup, force and trim. *)
let update_trimming (type s o) t (k : (s, o) key) (ops : o list) =
  match ops with
  | [] -> ()
  | _ ->
    let module D = (val k.data) in
    let cell = get_cell t k in
    force k cell;
    privatize cell;
    cell.state <- List.fold_left D.apply cell.state ops;
    cell.offset <- cell_version cell + List.length ops;
    Sm_util.Vec.clear cell.journal;
    cell.applied <- cell.offset;
    if Sanitizer_hook.active () then
      Sanitizer_hook.emit (Sanitizer_hook.Updated { ws_id = t.uid; key = k.name })

let version_of t k = cell_version (get_cell t k)

let key_names t = List.map (fun (_, P (k, _)) -> k.name) (Imap.bindings t.cells)

let journal t k = Sm_util.Vec.to_list (get_cell t k).journal

let journal_since t k ~version =
  let c = get_cell t k in
  if version < c.offset then
    invalid_arg
      (Printf.sprintf "Workspace.journal_since: journal of %S truncated past version %d (< %d)"
         k.name version c.offset)
  else if version >= cell_version c then []
  else Sm_util.Vec.slice c.journal ~from:(version - c.offset)

let versions t = Imap.map (fun (P (_, c)) -> cell_version c) t.cells

let op_count t =
  Imap.fold (fun _ (P (_, c)) acc -> acc + Sm_util.Vec.length c.journal) t.cells 0

(* Copy-on-write sharing at spawn/clone/rebase: children alias the parent's
   (persistent) state snapshots, so sharing a workspace is O(cells)
   regardless of state size.  Both sides are marked shared so the first
   write on either is visible as a cow hit.  A trimmed share materializes
   the state and starts an empty journal at the source's version; [trim]
   writes it into an existing cell [dst]. *)
let trim k ~dst ~src =
  force k src;
  src.shared <- true;
  let version = cell_version src in
  dst.state <- src.state;
  dst.applied <- version;
  Sm_util.Vec.clear dst.journal;
  dst.offset <- version;
  dst.shared <- true

let share_trimmed (P (k, c)) =
  let fresh = { c with journal = Sm_util.Vec.create () } in
  trim k ~dst:fresh ~src:c;
  P (k, fresh)

(* A full share carries the journal and its offset, so the unapplied tail
   travels with the copy and needs no materialization: only the [applied]
   state is aliased. *)
let share_full (P (k, c)) =
  c.shared <- true;
  P
    ( k
    , { state = c.state
      ; applied = c.applied
      ; journal = Sm_util.Vec.copy c.journal
      ; offset = c.offset
      ; shared = true
      } )

let copy t = { uid = fresh_uid (); cells = Imap.map share_trimmed t.cells; base = versions t }
let clone_full t = { uid = fresh_uid (); cells = Imap.map share_full t.cells; base = t.base }
let clone_trimmed t = { uid = fresh_uid (); cells = Imap.map share_trimmed t.cells; base = t.base }

let adopt t ~from = t.cells <- from.cells

let integrate k ~parent ~ops ~base_version =
  if base_version < parent.offset then
    invalid_arg
      (Printf.sprintf "Workspace.merge_child: journal of %S truncated past child base (%d < %d)"
         k.name base_version parent.offset);
  let parent_since = Sm_util.Vec.slice parent.journal ~from:(base_version - parent.offset) in
  let ops' = k.transform_seq (k.compact ops) ~against:parent_since ~tie:Sm_ot.Side.serialization in
  (* Lazy materialization: the merged operations land in the journal only.
     The parent's state catches up in [force] at its next observation — so a
     task that merges children and is itself merged away (the interior of a
     deep spawn tree) never pays an apply for the ops flowing through it. *)
  Sm_util.Vec.append_list parent.journal ops'

let merge_ops t k ~ops ~base_version = integrate k ~parent:(get_cell t k) ~ops ~base_version

let merge_child ~parent ~child =
  (* Key-id order = creation order: deterministic merge of multi-key
     workspaces.  A cell the child never wrote has nothing to integrate: it
     costs two lookups and a length check, and allocates nothing. *)
  Imap.iter
    (fun id (P (k, child_cell) as packed) ->
      match Imap.find id parent.cells with
      | parent_packed -> (
        match Imap.find id child.base with
        | base_version ->
          if Sm_util.Vec.length child_cell.journal > 0 then
            integrate k ~parent:(cell_of k parent_packed)
              ~ops:(Sm_util.Vec.to_list child_cell.journal)
              ~base_version
        | exception Not_found ->
          (* The child initialized a key the parent also has: either the
             parent initialized it independently (conflict) or gained it from
             another child that initialized it (same conflict, one hop
             later). *)
          raise (Already_bound k.name))
      | exception Not_found ->
        (* Key initialized inside the child: install a detached cell (the
           child may keep mutating its own cell until it terminates; the
           journal is copied and the snapshot shared — persistent applies
           keep the alias safe). *)
        parent.cells <- Imap.add id (share_full packed) parent.cells)
    child.cells

(* A sync trims the parent's cells into the parked child's own cells in
   place.  Only a key set that differs from the parent's (the parent gained
   a key, or a refused child minted one) builds a new map, so the child
   always ends with exactly the parent's keys. *)
let rebase_from t ~parent =
  Imap.iter
    (fun id (P (k, pc) as packed) ->
      match Imap.find id t.cells with
      | mine -> trim k ~dst:(cell_of k mine) ~src:pc
      | exception Not_found -> t.cells <- Imap.add id (share_trimmed packed) t.cells)
    parent.cells;
  if Imap.cardinal t.cells > Imap.cardinal parent.cells then
    t.cells <- Imap.filter (fun id _ -> Imap.mem id parent.cells) t.cells;
  t.base <- versions parent

let is_pristine t =
  Imap.for_all (fun _ (P (_, c)) -> Sm_util.Vec.length c.journal = 0) t.cells

(* Drop each journal's prefix older than the oldest version any live child's
   base still refers to; children whose base lacks the key never merge it,
   so they impose no floor. *)
let truncate_to_min t ~children =
  Imap.iter
    (fun id (P (_, c)) ->
      let keep_from =
        List.fold_left
          (fun acc child ->
            match Imap.find_opt id child.base with None -> acc | Some v -> min acc v)
          (cell_version c) children
      in
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
         | Some pb ->
           let module D = (val k.data) in
           D.equal_state (forced_state k ca) (forced_state k (cell_of k pb)))
       a.cells

let pp ppf t =
  let pp_cell ppf (_, P (k, c)) =
    let module D = (val k.data) in
    Format.fprintf ppf "%s = %a" k.name D.pp_state (forced_state k c)
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_cell)
    (Imap.bindings t.cells)
