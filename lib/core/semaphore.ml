module Ws = Sm_mergeable.Workspace

module Mlist_int = Sm_mergeable.Mlist.Make (Sm_ot.Op_sig.Int_elt)

type outcome =
  | Completed
  | All_blocked

type ops =
  { acquire : int -> unit
  ; release : int -> unit
  ; worker_id : int
  }

(* Raised inside a worker when the manager tore the system down (detected
   All_blocked and aborted the stragglers): the worker must not proceed as if
   its acquire had been granted. *)
exception Torn_down

(* Worker-side protocol (Section IV.A): append the request to L, then Sync
   twice (deliver, then park-until-granted); release appends -id and syncs
   once. *)
let make_ops ctx l_keys ~worker_id =
  let check s =
    if s < 0 || s >= Array.length l_keys then
      invalid_arg (Printf.sprintf "Semaphore: no semaphore %d" s)
  in
  let sync_or_raise () =
    match Runtime.sync ctx with
    | Ok () -> ()
    | Error (Runtime.Aborted | Runtime.Validation_failed) -> raise Torn_down
  in
  let acquire s =
    check s;
    Mlist_int.append (Runtime.workspace ctx) l_keys.(s) worker_id;
    sync_or_raise ();
    sync_or_raise ()
  and release s =
    check s;
    Mlist_int.append (Runtime.workspace ctx) l_keys.(s) (-worker_id);
    sync_or_raise ()
  in
  { acquire; release; worker_id }

let run_system ?executor ~values workers =
  Runtime.run ?executor (fun root ->
      let ws = Runtime.workspace root in
      let l_keys =
        Array.mapi
          (fun s value ->
            let k = Mlist_int.key ~name:(Printf.sprintf "semaphore-%d" s) in
            Ws.init ws k [ value ];
            k)
          values
      in
      let handles =
        List.mapi
          (fun i worker ->
            Runtime.spawn root (fun ctx -> worker (make_ops ctx l_keys ~worker_id:(i + 1))))
          workers
      in
      let handle_of = Hashtbl.create 16 in
      List.iteri (fun i h -> Hashtbl.replace handle_of (i + 1) h) handles;
      (* S starts as all children; denied waiters leave, granted ones return. *)
      let s_members = ref handles in
      let in_s h = List.memq h !s_members in
      let add_s h = if not (in_s h) then s_members := !s_members @ [ h ] in
      let remove_s h = s_members := List.filter (fun x -> x != h) !s_members in
      (* One pass over semaphore [s]: bump the value for releases, then grant
         FIFO while the value lasts; denied waiters are evicted from S. *)
      let process s =
        let k = l_keys.(s) in
        let remove_entry x =
          match Mlist_int.get ws k with
          | value :: tail ->
            (* Index 0 holds the value; waiters are unique, so the first
               occurrence in the tail is the entry. *)
            let rec index i = function
              | [] -> None
              | y :: rest -> if y = x then Some i else index (i + 1) rest
            in
            (match index 1 tail with
            | Some i -> Mlist_int.delete ws k i
            | None -> ());
            ignore value
          | [] -> ()
        in
        let set_value v = Mlist_int.set ws k 0 v in
        (match Mlist_int.get ws k with
        | value :: tail ->
          let releases = List.filter (fun x -> x < 0) tail in
          List.iter remove_entry releases;
          let value = value + List.length releases in
          set_value value;
          let waiters = List.filter (fun x -> x > 0) tail in
          let grant value id =
            let h = Hashtbl.find handle_of id in
            if value > 0 then begin
              remove_entry id;
              set_value (value - 1);
              add_s h;
              value - 1
            end
            else begin
              remove_s h;
              value
            end
          in
          ignore (List.fold_left grant value waiters)
        | [] -> ())
      in
      let rec loop () =
        match Runtime.merge_any_from_set root !s_members with
        | None ->
          if Runtime.has_children root then begin
            (* Deadlock-equivalent state: every live worker is parked outside
               S.  Abort them so the implicit final MergeAll unblocks each
               with an error (their acquire raises) instead of a spurious
               grant, then report. *)
            List.iter
              (fun h -> if Runtime.status h <> Runtime.Retired then Runtime.abort root h)
              handles;
            All_blocked
          end
          else Completed
        | Some h ->
          if Runtime.status h = Runtime.Retired then remove_s h;
          Array.iteri (fun s _ -> process s) l_keys;
          loop ()
      in
      loop ())
