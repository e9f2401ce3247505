(* The rope differential battery.

   The chunked rope behind [Op_text] must be observationally identical to
   the paper's flat-string model, kept here as a test-local reference: same
   documents, same lengths, same printed form (hence same workspace
   digests).  Three layers of evidence:

   - a differential sweep over every operation and operation sequence the
     lib/check enumerator produces for text, applied to the rope and to the
     flat model (apply, transform, compact and digest equality);
   - adversarial chunk-boundary fixtures on multi-chunk documents —
     inserts and deletes spanning leaf seams, whole-chunk deletes,
     repeated edge appends;
   - rope structural invariants ([Rope.check]: honest cached sizes, leaf
     bounds, balance) maintained across 10k random edits, with the depth
     staying logarithmic in the chunk count;
   - edits on both sides of each leaf bound (seam, [max_chunk], an emptied
     leaf), where the one-copy leaf edit hands over to split/join. *)

open Test_support
module T = Sm_ot.Op_text
module Rope = Sm_ot.Rope
module Tx = Sm_check.Instances.Text
module Ws = Sm_mergeable.Workspace
module Mtext = Sm_mergeable.Mtext
module Rng = Sm_util.Det_rng

(* The flat-string reference: O(n) splices, printed with [%S]. *)
let flat_apply s = function
  | T.Ins (p, t) -> String.sub s 0 p ^ t ^ String.sub s p (String.length s - p)
  | T.Del (p, l) -> String.sub s 0 p ^ String.sub s (p + l) (String.length s - p - l)

let pp_of st = Format.asprintf "%a" T.pp_state st

(* The rope state agrees with the flat document at byte, length, print and
   equality level. *)
let agrees r f =
  String.equal (T.to_string r) f
  && T.length r = String.length f
  && T.equal_state r (T.of_string f)
  && String.equal (pp_of r) (Format.asprintf "%S" f)

(* Apply [op] to the rope and the flat model of the same document and
   demand agreement. *)
let differential_step s op =
  let f = flat_apply s op in
  let r = T.apply (T.of_string s) op in
  if not (agrees r f) then
    Alcotest.failf "divergence: state %S op %s (flat %S, rope %S)" s
      (Format.asprintf "%a" T.pp_op op) f (T.to_string r);
  f

(* every enumerated single op, on every enumerated state *)
let enumerated_ops_differential () =
  let states = [ ""; "a"; "ab"; "abcd"; "abcdef" ] in
  let total = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun op ->
          ignore (differential_step s op);
          incr total)
        (Tx.ops (T.of_string s)))
    states;
  check_bool "swept a real op space" (!total > 50)

(* every enumerated 2-op sequence: apply both raw and compacted, on the rope
   and the flat model — four runs that must land on the same document *)
let enumerated_sequences_differential () =
  let states = [ ""; "ab"; "abcdef" ] in
  List.iter
    (fun s ->
      List.iter
        (fun a ->
          let s1 = differential_step s a in
          List.iter
            (fun b ->
              let s2 = differential_step s1 b in
              let compacted = T.compact [ a; b ] in
              let fc = List.fold_left flat_apply s compacted in
              let rc = List.fold_left T.apply (T.of_string s) compacted in
              check_bool "compacted flat agrees" (String.equal fc s2);
              check_bool "compacted rope agrees" (agrees rc s2))
            (Tx.ops (T.of_string s1)))
        (Tx.ops (T.of_string s)))
    states

(* every enumerated concurrent pair, transformed both ways under both tie
   winners, applied on the rope and the flat model: TP1 with the
   convergence judged against the reference *)
let enumerated_transforms_differential () =
  let states = [ ""; "ab"; "abcd" ] in
  List.iter
    (fun s ->
      let ops = Tx.ops (T.of_string s) in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              List.iter
                (fun a_wins ->
                  let tie_a = Sm_ot.Side.uniform (if a_wins then Sm_ot.Side.Incoming else Sm_ot.Side.Applied) in
                  let tie_b = Sm_ot.Side.flip tie_a in
                  let a' = T.transform a ~against:b ~tie:tie_a in
                  let b' = T.transform b ~against:a ~tie:tie_b in
                  let seq st ops = List.fold_left T.apply st ops in
                  (* four routes to the merged document: flat and rope,
                     via-a and via-b — all must agree *)
                  let flat_via_b = List.fold_left flat_apply (flat_apply s b) a' in
                  let rope_via_b = seq (T.apply (T.of_string s) b) a' in
                  let flat_via_a = List.fold_left flat_apply (flat_apply s a) b' in
                  let rope_via_a = seq (T.apply (T.of_string s) a) b' in
                  check_bool "tp1 against the flat model"
                    (agrees rope_via_b flat_via_b
                    && agrees rope_via_a flat_via_a
                    && T.equal_state rope_via_b rope_via_a))
                [ true; false ])
            ops)
        ops)
    states

(* the end-to-end digest: an edit script journaled through a workspace
   digests identically to a workspace initialized with the flat model's
   final document (a differently chunked rope of the same bytes) *)
let workspace_digest_invariant () =
  let ops =
    [ T.Ins (4, "hello world, this is a document")
    ; T.Ins (5, " there")
    ; T.Del (0, 3)
    ; T.Ins (38, String.make 2500 'z')
    ; T.Ins (2000, "seam")
    ; T.Del (1500, 600)
    ]
  in
  let k = Mtext.key ~name:"rope.digest" in
  let edited = Ws.create () in
  Mtext.init edited k "seed";
  List.iter (Ws.update edited k) ops;
  let flat = List.fold_left flat_apply "seed" ops in
  let reference = Ws.create () in
  Mtext.init reference k flat;
  Alcotest.(check string) "documents agree" flat (Mtext.get edited k);
  Alcotest.(check string) "digests agree" (Ws.digest reference) (Ws.digest edited)

(* --- chunk-boundary fixtures ------------------------------------------------- *)

let assert_valid r label =
  match Rope.check r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invariant violated: %s" label msg

(* run an op list against a rope and a flat string model, validating the
   rope and comparing content after every step *)
let run_model label initial ops =
  let rope = ref (Rope.of_string initial) in
  let model = ref initial in
  List.iteri
    (fun i op ->
      (match op with
      | T.Ins (p, s) -> rope := Rope.insert !rope p s
      | T.Del (p, l) -> rope := Rope.delete !rope ~pos:p ~len:l);
      model := flat_apply !model op;
      let step = Printf.sprintf "%s[%d]" label i in
      assert_valid !rope step;
      if not (Rope.equal_string !rope !model) then
        Alcotest.failf "%s: content diverged (rope %d bytes, model %d bytes)" step
          (Rope.length !rope) (String.length !model))
    ops;
  !rope

let seam_fixtures () =
  (* a document big enough for several chunks, with recognizable bytes *)
  let doc = String.init 8192 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let c = Rope.target_chunk in
  let big = String.make (Rope.max_chunk + 700) 'I' in
  ignore
    (run_model "seam-ins" doc
       [ T.Ins (c, "xx") (* exactly on the first seam *)
       ; T.Ins (c - 1, "yy") (* one byte left of it *)
       ; T.Ins ((2 * c) + 1, big) (* oversized insert astride a seam *)
       ; T.Ins (0, "front")
       ; T.Ins (8192 + 2 + 2 + String.length big + 5, "back")
       ]);
  ignore
    (run_model "seam-del" doc
       [ T.Del (c, c) (* a whole chunk-sized span on the seam *)
       ; T.Del (c - 3, 7) (* small range astride the seam *)
       ; T.Del (0, 1)
       ; T.Del (8192 - (2 * c) - 8 - 1, 1)
       ]);
  (* delete everything in two crossing bites, then rebuild from empty *)
  let r = run_model "seam-drain" doc [ T.Del (100, 8000); T.Del (0, 192) ] in
  check_bool "drained empty" (Rope.is_empty r);
  ignore (run_model "seam-regrow" "" [ T.Ins (0, doc); T.Del (c / 2, 2 * c); T.Ins (17, big) ])

let edge_appends () =
  (* 10k single-byte appends — the pathological editing pattern for a
     naive tree: must stay balanced and within leaf bounds throughout *)
  let r = ref Rope.empty in
  for i = 0 to 9_999 do
    r := Rope.insert !r (Rope.length !r) (String.make 1 (Char.chr (Char.code 'a' + (i mod 26))))
  done;
  assert_valid !r "append-10k";
  let st = Rope.stats !r in
  Alcotest.(check int) "length after appends" 10_000 (Rope.length !r);
  check_bool "chunks bounded below" (st.Rope.chunks <= 10_000 / 2);
  check_bool "appends coalesce into large leaves"
    (st.Rope.chunks <= (10_000 / Rope.target_chunk * 4) + 4);
  (* and the mirror image: 2k prepends *)
  let l = ref Rope.empty in
  for _ = 1 to 2_000 do
    l := Rope.insert !l 0 "qq"
  done;
  assert_valid !l "prepend-2k";
  Alcotest.(check int) "length after prepends" 4_000 (Rope.length !l);
  check_bool "prepends stay shallow" ((Rope.stats !l).Rope.depth <= 24)

(* --- rebalance invariants under random load ---------------------------------- *)

let random_ops_invariants () =
  let rng = Rng.create ~seed:0x0FE11AL in
  let rope = ref (Rope.of_string "") in
  let model = Buffer.create 4096 in
  let model_str () = Buffer.contents model in
  for i = 1 to 10_000 do
    let n = Rope.length !rope in
    let ins = n = 0 || Rng.float rng < 0.6 in
    if ins then begin
      let pos = Rng.int rng ~bound:(n + 1) in
      let len = 1 + Rng.int rng ~bound:40 in
      let s = String.init len (fun _ -> Char.chr (Char.code 'a' + Rng.int rng ~bound:26)) in
      rope := Rope.insert !rope pos s;
      let m = model_str () in
      Buffer.clear model;
      Buffer.add_string model (String.sub m 0 pos);
      Buffer.add_string model s;
      Buffer.add_string model (String.sub m pos (String.length m - pos))
    end
    else begin
      let pos = Rng.int rng ~bound:n in
      let len = 1 + Rng.int rng ~bound:(min 64 (n - pos)) in
      rope := Rope.delete !rope ~pos ~len;
      let m = model_str () in
      Buffer.clear model;
      Buffer.add_string model (String.sub m 0 pos);
      Buffer.add_string model (String.sub m (pos + len) (String.length m - pos - len))
    end;
    if i mod 500 = 0 then begin
      assert_valid !rope (Printf.sprintf "random[%d]" i);
      if not (Rope.equal_string !rope (model_str ())) then
        Alcotest.failf "random[%d]: content diverged" i
    end
  done;
  assert_valid !rope "random-final";
  check_bool "final content agrees" (Rope.equal_string !rope (model_str ()));
  (* depth bound: height-balanced with sibling skew <= 2 means depth is
     within a small factor of log2(chunks) *)
  let st = Rope.stats !rope in
  let log2 x = int_of_float (ceil (log (float_of_int (max 2 x)) /. log 2.)) in
  check_bool
    (Printf.sprintf "depth %d logarithmic in %d chunks" st.Rope.depth st.Rope.chunks)
    (st.Rope.depth <= (2 * log2 st.Rope.chunks) + 4);
  check_bool "no oversized leaf" (st.Rope.max_leaf <= Rope.max_chunk);
  check_bool "no empty leaf" (st.Rope.min_leaf >= 1);
  (* a straight rebuild of the same content is equal, chunking aside *)
  check_bool "boundary-independent equality"
    (Rope.equal !rope (Rope.of_string (model_str ())))

(* split/join round-trips at and around every kind of boundary *)
let split_join_roundtrip () =
  let doc = String.init 5000 (fun i -> Char.chr (Char.code 'A' + (i mod 26))) in
  let r = Rope.of_string doc in
  List.iter
    (fun i ->
      let a, b = Rope.split r i in
      assert_valid a (Printf.sprintf "split-left@%d" i);
      assert_valid b (Printf.sprintf "split-right@%d" i);
      Alcotest.(check int) "split lengths" 5000 (Rope.length a + Rope.length b);
      let j = Rope.join a b in
      assert_valid j (Printf.sprintf "join@%d" i);
      check_bool "join restores content" (Rope.equal_string j doc))
    [ 0; 1; Rope.target_chunk - 1; Rope.target_chunk; Rope.target_chunk + 1
    ; Rope.max_chunk; 2500; 4999; 5000 ];
  (* sub addresses slices without disturbing the rope *)
  Alcotest.(check string) "sub mid" (String.sub doc 1000 300) (Rope.sub r 1000 300);
  Alcotest.(check string) "sub whole" doc (Rope.sub r 0 5000)

(* Edits at the leaf bound.  An edit inside one leaf that keeps it nonempty
   and within [max_chunk] rewrites that leaf with one copy; one that crosses
   a seam, overflows or empties its leaf takes split/join.  Each fixture
   sits on one side of one bound, and the chunk counts show which path ran. *)
let leaf_bound_fixtures () =
  let m = Rope.max_chunk and c = Rope.target_chunk in
  let chunks r = (Rope.stats r).Rope.chunks in
  let chunks_and_max r = (chunks r, (Rope.stats r).Rope.max_leaf) in
  let pair = Alcotest.(pair int int) in
  let text n = String.init n (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let fill = T.Ins (250, String.make (m - 600) 'F') in
  (* single-leaf documents: edits at both ends and in the middle *)
  let one = text 600 in
  let r =
    run_model "single" one
      [ T.Ins (0, "<"); T.Ins (601, ">"); T.Ins (300, "mid")
      ; T.Del (0, 1); T.Del (300, 3); T.Del (600, 1) ]
  in
  Alcotest.(check int) "a single leaf stays one leaf" 1 (chunks r);
  Alcotest.(check int) "delete all but one byte" 1
    (Rope.length (run_model "single-keep-one" one [ T.Del (1, 599) ]));
  check_bool "delete the whole leaf"
    (Rope.is_empty (run_model "single-drain" one [ T.Del (0, 600) ]));
  (* an insert filling the leaf to exactly max_chunk, then one byte over *)
  Alcotest.check pair "filled to max_chunk in place" (1, m)
    (chunks_and_max (run_model "single-fill" one [ fill ]));
  check_bool "one byte over splits the leaf"
    (chunks (run_model "single-overflow" one [ fill; T.Ins (1000, "x") ]) >= 2);
  (* a four-leaf document: the seams sit at multiples of target_chunk *)
  let doc = text (4 * c) in
  Alcotest.(check int) "four leaves" 4 (chunks (Rope.of_string doc));
  Alcotest.(check int) "seam inserts join a leaf" 4
    (chunks (run_model "seam-ins" doc [ T.Ins (c, "on the seam"); T.Ins ((2 * c) + 11, "next") ]));
  Alcotest.(check int) "deletes ending and starting on a seam" 4
    (chunks (run_model "seam-del" doc [ T.Del (c - 5, 5); T.Del (c - 5, 5) ]));
  ignore (run_model "seam-cross" doc [ T.Del (c - 5, 10); T.Ins ((2 * c) - 20, String.make 40 'S') ]);
  let fill = T.Ins (c + 10, String.make (m - c) 'F') in
  Alcotest.check pair "inner leaf filled in place" (4, m)
    (chunks_and_max (run_model "inner-fill" doc [ fill ]));
  let r = run_model "inner-overflow" doc [ fill; T.Ins (c + 20, "x") ] in
  check_bool "one byte over splits the full inner leaf" ((Rope.stats r).Rope.max_leaf < m);
  Alcotest.(check int) "delete a whole leaf" 3
    (chunks (run_model "whole-leaf" doc [ T.Del (c, c) ]));
  Alcotest.check pair "delete all but one byte of a leaf" (4, 1)
    (let r = run_model "all-but-one" doc [ T.Del (c, c - 1) ] in
     (chunks r, (Rope.stats r).Rope.min_leaf))

let suite =
  [ Alcotest.test_case "differential: enumerated ops" `Quick enumerated_ops_differential
  ; Alcotest.test_case "differential: enumerated sequences + compact" `Quick
      enumerated_sequences_differential
  ; Alcotest.test_case "differential: enumerated transforms (TP1 across reps)" `Quick
      enumerated_transforms_differential
  ; Alcotest.test_case "differential: workspace digests agree" `Quick workspace_digest_invariant
  ; Alcotest.test_case "fixtures: chunk-seam inserts and deletes" `Quick seam_fixtures
  ; Alcotest.test_case "fixtures: 10k edge appends stay balanced" `Quick edge_appends
  ; Alcotest.test_case "invariants: 10k random ops" `Quick random_ops_invariants
  ; Alcotest.test_case "invariants: split/join round-trips" `Quick split_join_roundtrip
  ; Alcotest.test_case "fixtures: edits at the leaf bound" `Quick leaf_bound_fixtures
  ]
