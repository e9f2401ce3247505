module Program = Sm_ir.Program

type entry =
  { name : string
  ; seed : int64
  ; depth : int
  ; profile : Program.profile
  ; mutate : Sm_check.Mutate.kind option
  ; expect : string option
  }

(* Seed 0x5 at depth 3 happens to generate a program whose text-edit bursts
   expose all four transform mutations — including Reverse, which needs a
   range delete split by a concurrent insert and is by far the rarest. *)
let mutation_seed = 0x5L

let all =
  [ { name = "clean-det"
    ; seed = 0x1L
    ; depth = 3
    ; profile = Program.det_profile
    ; mutate = None
    ; expect = None
    }
  ; { name = "clean-full"
    ; seed = 0x2L
    ; depth = 3
    ; profile = Program.full_profile
    ; mutate = None
    ; expect = None
    }
  ; { name = "catches-tie-bias"
    ; seed = mutation_seed
    ; depth = 3
    ; profile = Program.det_profile
    ; mutate = Some Sm_check.Mutate.Tie_bias
    ; expect = Some "differential"
    }
  ; { name = "catches-identity"
    ; seed = mutation_seed
    ; depth = 3
    ; profile = Program.det_profile
    ; mutate = Some Sm_check.Mutate.Identity
    ; expect = Some "differential"
    }
  ; { name = "catches-drop-last"
    ; seed = mutation_seed
    ; depth = 3
    ; profile = Program.det_profile
    ; mutate = Some Sm_check.Mutate.Drop_last
    ; expect = Some "differential"
    }
  ; { name = "catches-reverse"
    ; seed = mutation_seed
    ; depth = 3
    ; profile = Program.det_profile
    ; mutate = Some Sm_check.Mutate.Reverse
    ; expect = Some "differential"
    }
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let check ?runs env e =
  match
    Fuzzer.fuzz_one ?mutate:e.mutate ?runs env ~seed:e.seed ~depth:e.depth ~profile:e.profile ()
  with
  | Fuzzer.Passed as o -> (
    match e.expect with
    | None -> Ok o
    | Some oracle ->
      Error (Printf.sprintf "%s: expected a %s failure but every oracle passed" e.name oracle))
  | Fuzzer.Failed r as o -> (
    match e.expect with
    | Some oracle when oracle = r.Fuzzer.failure.Oracle.oracle -> Ok o
    | Some oracle ->
      Error
        (Printf.sprintf "%s: expected a %s failure but got [%s] %s" e.name oracle
           r.Fuzzer.failure.Oracle.oracle r.Fuzzer.failure.Oracle.detail)
    | None ->
      Error
        (Printf.sprintf "%s: expected a clean pass but got [%s] %s" e.name
           r.Fuzzer.failure.Oracle.oracle r.Fuzzer.failure.Oracle.detail))
