type failure =
  { oracle : string
  ; detail : string
  ; expected : bool
  ; report : string
  ; flight : (string * string list) list
  }

type t =
  { name : string
  ; check : seed:int64 -> (unit, failure) result
  }

let sweep ?(on_failure = fun _ _ -> ()) target ~seed_base ~seeds =
  List.filter_map
    (fun i ->
      let seed = Int64.add seed_base (Int64.of_int i) in
      match target.check ~seed with
      | Ok () -> None
      | Error f ->
        on_failure seed f;
        Some (seed, f))
    (List.init seeds Fun.id)

let exit_code = function
  | [] -> 0
  | failures -> if List.for_all (fun f -> f.expected) failures then 3 else 1

let fail ~target ~seed ~oracle ?(fields = []) ?(flight = []) detail =
  let line (k, v) = Printf.sprintf "%s: %s\n" k v in
  let rerun = Printf.sprintf "sm-fuzz run --target %s --seeds 1 --seed-base 0x%Lx" target seed in
  let report =
    String.concat ""
      (Printf.sprintf "sm-fuzz %s failure report v1\n" target
      :: List.map line
           ((("seed", Printf.sprintf "0x%Lx" seed) :: fields)
           @ [ ("oracle", oracle); ("detail", detail); ("rerun", rerun) ]))
  in
  { oracle; detail; expected = false; report; flight }
