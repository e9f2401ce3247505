exception Timeout of string

let digest_of_run ?executor program =
  Runtime.run ?executor (fun ctx ->
      program ctx;
      Runtime.merge_all ctx;
      Sm_mergeable.Workspace.digest (Runtime.workspace ctx))

let digests ?(runs = 5) ?executor program =
  List.init runs (fun _ -> digest_of_run ?executor program)

let deterministic ?runs ?executor program =
  match digests ?runs ?executor program with
  | [] -> true
  | d :: rest -> List.for_all (String.equal d) rest

type divergence =
  { run_index : int
  ; digest : string
  ; reference : string
  }

let pp_divergence ppf d =
  Format.fprintf ppf "run %d digested %s, run 0 digested %s" d.run_index d.digest d.reference

let deterministic_explained ?runs ?executor program =
  match digests ?runs ?executor program with
  | [] -> Ok ()
  | reference :: rest ->
    let rec scan i = function
      | [] -> Ok ()
      | d :: _ when not (String.equal d reference) ->
        Error { run_index = i; digest = d; reference }
      | _ :: tl -> scan (i + 1) tl
    in
    scan 1 rest

(* Run [f] on a watchdog thread and poll for its outcome.  We cannot kill the
   worker on timeout (OCaml threads are not cancellable, and the paper's own
   abort semantics refuse to kill threads); the worker is abandoned and the
   caller gets a diagnostic instead of a stalled suite. *)
let with_timeout ~timeout_s ~diag f =
  let result = Atomic.make None in
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        let outcome = match f () with v -> Ok v | exception e -> Error e in
        Atomic.set result (Some outcome))
      ()
  in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    match Atomic.get result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None ->
      if Unix.gettimeofday () > deadline then raise (Timeout (diag ()))
      else begin
        Thread.delay 0.002;
        wait ()
      end
  in
  wait ()

let cross_scheduler ?timeout_s ?(runs = 3) ?executor program =
  let check () =
    let reference =
      Runtime.Coop.run (fun ctx ->
          program ctx;
          Runtime.merge_all ctx;
          Sm_mergeable.Workspace.digest (Runtime.workspace ctx))
    in
    List.for_all (String.equal reference) (digests ~runs ?executor program)
  in
  match timeout_s with
  | None -> check ()
  | Some timeout_s ->
    with_timeout ~timeout_s
      ~diag:(fun () ->
        Printf.sprintf
          "Detcheck.cross_scheduler: no verdict after %gs — the program likely blocks the OS \
           thread (Thread.delay, blocking I/O, or an un-signalled wait), which stalls the \
           cooperative scheduler; the stuck run was abandoned"
          timeout_s)
      check
