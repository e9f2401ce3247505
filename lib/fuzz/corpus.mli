(** The checked-in seed corpus: configurations with a known, pinned outcome.

    Each entry is a complete {!Fuzzer.fuzz_one} configuration plus the
    outcome it must produce — [expect = None] for seeds that pass every
    oracle, [Some oracle] for seeds whose (usually mutation-seeded) failure
    the fuzzer must find and shrink.  [sm-fuzz corpus --run] re-checks every
    entry and the test suite replays one byte-for-byte, so the corpus
    doubles as a regression pin on generator, oracles and shrinker. *)

type entry =
  { name : string
  ; seed : int64
  ; depth : int
  ; profile : Sm_ir.Program.profile
  ; mutate : Sm_check.Mutate.kind option
  ; expect : string option  (** failing oracle name, [None] = must pass *)
  }

val all : entry list

val find : string -> entry option

val check : ?runs:int -> Oracle.env -> entry -> (Fuzzer.outcome, string) result
(** Run the entry and compare against [expect]; [Error] describes the
    mismatch ("expected differential failure but every oracle passed"). *)
