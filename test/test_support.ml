(** Shared fixtures for the test suites. *)

module Int_elt = Sm_ot.Op_sig.Int_elt
module Str_elt = Sm_ot.Op_sig.String_elt

(* Wrap a QCheck property as an alcotest case with a deterministic seed so
   failures reproduce. *)
let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck2.Test.make ~count ~name gen prop)

let check_bool name b = Alcotest.(check bool) name true b

(* Run [f] on a fresh executor with [domains] workers, shut down
   afterwards. *)
let with_executor ~domains f =
  let e = Sm_core.Executor.create ~domains () in
  Fun.protect ~finally:(fun () -> Sm_core.Executor.shutdown e) (fun () -> f e)
