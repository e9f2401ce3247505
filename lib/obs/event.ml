type arg =
  | I of int
  | F of float
  | S of string
  | B of bool

type kind =
  | Task_start
  | Task_end
  | Spawn
  | Clone
  | Merge_begin
  | Merge_child
  | Merge_end
  | Sync_begin
  | Sync_end
  | Abort
  | Validation_fail
  | Phase_begin
  | Phase_end
  | Note
  | Epoch_begin
  | Epoch_end
  | Delta_sync
  | Req_begin
  | Req_end
  | Serve
  | Epoch_merge
  | Doc_merge

type t =
  { seq : int
  ; ts_ns : int
  ; kind : kind
  ; task : string
  ; task_id : int
  ; args : (string * arg) list
  }

let seq_counter = Atomic.make 0

let make ?(args = []) ~task ~task_id kind =
  { seq = Atomic.fetch_and_add seq_counter 1; ts_ns = Clock.now_ns (); kind; task; task_id; args }

(* ["child_id"] carries the child's process-global numeric id (a Chrome
   thread-id convenience); like [task_id] it is allocation-ordered, not
   run-stable, so the structural view drops it. *)
let structural_args args = List.filter (fun (k, _) -> not (String.equal k "child_id")) args

let structure e = (e.kind, e.task, structural_args e.args)

let equal_arg a b =
  match (a, b) with
  | I x, I y -> Int.equal x y
  | F x, F y -> Float.equal x y
  | S x, S y -> String.equal x y
  | B x, B y -> Bool.equal x y
  | (I _ | F _ | S _ | B _), _ -> false

let equal_structure a b =
  let args_a = structural_args a.args and args_b = structural_args b.args in
  a.kind = b.kind && String.equal a.task b.task
  && List.length args_a = List.length args_b
  && List.for_all2 (fun (ka, va) (kb, vb) -> String.equal ka kb && equal_arg va vb) args_a args_b

let kind_to_string = function
  | Task_start -> "task_start"
  | Task_end -> "task_end"
  | Spawn -> "spawn"
  | Clone -> "clone"
  | Merge_begin -> "merge_begin"
  | Merge_child -> "merge_child"
  | Merge_end -> "merge_end"
  | Sync_begin -> "sync_begin"
  | Sync_end -> "sync_end"
  | Abort -> "abort"
  | Validation_fail -> "validation_fail"
  | Phase_begin -> "phase_begin"
  | Phase_end -> "phase_end"
  | Note -> "note"
  | Epoch_begin -> "epoch_begin"
  | Epoch_end -> "epoch_end"
  | Delta_sync -> "delta_sync"
  | Req_begin -> "req_begin"
  | Req_end -> "req_end"
  | Serve -> "serve"
  | Epoch_merge -> "epoch_merge"
  | Doc_merge -> "doc_merge"

let all_kinds =
  [ Task_start; Task_end; Spawn; Clone; Merge_begin; Merge_child; Merge_end; Sync_begin
  ; Sync_end; Abort; Validation_fail; Phase_begin; Phase_end; Note; Epoch_begin; Epoch_end
  ; Delta_sync; Req_begin; Req_end; Serve; Epoch_merge; Doc_merge
  ]

let kind_of_string s = List.find_opt (fun k -> String.equal (kind_to_string k) s) all_kinds

let pp_arg ppf = function
  | I i -> Format.pp_print_int ppf i
  | F f -> Format.fprintf ppf "%g" f
  | S s -> Format.fprintf ppf "%S" s
  | B b -> Format.pp_print_bool ppf b

let pp ppf e =
  Format.fprintf ppf "@[<h>#%d %s %s(%d)%a@]" e.seq (kind_to_string e.kind) e.task e.task_id
    (Format.pp_print_list ~pp_sep:(fun _ () -> ())
       (fun ppf (k, v) -> Format.fprintf ppf " %s=%a" k pp_arg v))
    e.args
