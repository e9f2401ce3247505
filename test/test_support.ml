(** Shared fixtures for the test suites. *)

module Int_elt = Sm_ot.Op_sig.Int_elt
module Str_elt = Sm_ot.Op_sig.String_elt

(* Wrap a QCheck property as an alcotest case with a deterministic seed so
   failures reproduce. *)
let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck2.Test.make ~count ~name gen prop)

let check_bool name b = Alcotest.(check bool) name true b
