open Test_support
module U = Sm_util

let vec_basics () =
  let v = U.Vec.create () in
  Alcotest.(check int) "empty" 0 (U.Vec.length v);
  for i = 0 to 99 do
    U.Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (U.Vec.length v);
  Alcotest.(check int) "get" 57 (U.Vec.get v 57);
  Alcotest.(check (list int)) "slice" [ 97; 98; 99 ] (U.Vec.slice v ~from:97);
  Alcotest.(check (list int)) "slice all = to_list" (U.Vec.to_list v) (U.Vec.slice v ~from:0);
  Alcotest.(check (list int)) "slice at end empty" [] (U.Vec.slice v ~from:100);
  let w = U.Vec.copy v in
  U.Vec.push w (-1);
  Alcotest.(check int) "copy isolated" 100 (U.Vec.length v);
  U.Vec.clear v;
  Alcotest.(check int) "cleared" 0 (U.Vec.length v);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (U.Vec.get v 0))

let vec_of_list_roundtrip =
  qtest "Vec.of_list/to_list roundtrip" QCheck2.Gen.(list int) (fun xs ->
      U.Vec.to_list (U.Vec.of_list xs) = xs)

let rng_deterministic () =
  let a = U.Det_rng.create ~seed:42L and b = U.Det_rng.create ~seed:42L in
  let xs = List.init 50 (fun _ -> U.Det_rng.int64 a) in
  let ys = List.init 50 (fun _ -> U.Det_rng.int64 b) in
  check_bool "same seed, same stream" (xs = ys);
  let c = U.Det_rng.create ~seed:43L in
  let zs = List.init 50 (fun _ -> U.Det_rng.int64 c) in
  check_bool "different seed differs" (xs <> zs)

let rng_split_independent () =
  let a = U.Det_rng.create ~seed:7L in
  let b = U.Det_rng.split a in
  let xs = List.init 20 (fun _ -> U.Det_rng.int64 a) in
  let ys = List.init 20 (fun _ -> U.Det_rng.int64 b) in
  check_bool "split stream differs" (xs <> ys)

let rng_bounds =
  qtest "int stays in bound"
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 10000))
    (fun (bound, seed) ->
      let rng = U.Det_rng.create ~seed:(Int64.of_int seed) in
      let x = U.Det_rng.int rng ~bound in
      x >= 0 && x < bound)

let rng_shuffle_permutes =
  qtest "shuffle permutes" QCheck2.Gen.(list_size (int_range 0 20) int) (fun xs ->
      let rng = U.Det_rng.create ~seed:1L in
      List.sort compare (U.Det_rng.shuffle rng xs) = List.sort compare xs)

(* Golden stream values: the exact outputs of the generator, pinned so a
   change to the xoshiro/SplitMix64 implementation (or a platform with
   different integer semantics) cannot silently re-seed the whole fuzzer —
   every sm-fuzz seed and corpus entry depends on these streams. *)
let rng_golden_stream () =
  let a = U.Det_rng.create ~seed:0xDEADBEEFL in
  Alcotest.(check (list int64))
    "int64 stream, seed 0xDEADBEEF"
    [ 0xc5555444a74d7e83L
    ; 0x65c30d37b4b16e38L
    ; 0x54f773200a4efa23L
    ; 0x429aed75fb958af7L
    ; 0xfb0e1dd69c255b2eL
    ; 0x9d6d02ec58814a27L
    ]
    (List.init 6 (fun _ -> U.Det_rng.int64 a));
  let b = U.Det_rng.create ~seed:1L in
  Alcotest.(check (list int))
    "bounded stream, seed 1"
    [ 78; 61; 50; 91; 85; 81; 43; 14; 60; 4; 20; 55 ]
    (List.init 12 (fun _ -> U.Det_rng.int b ~bound:100));
  let c = U.Det_rng.create ~seed:7L in
  let d = U.Det_rng.split c in
  Alcotest.(check (list int64))
    "split stream, seed 7"
    [ 0x214c58958ca2a8a5L; 0x84a76abe9e4119dcL; 0xd9dd03480cc8f2e4L; 0x6aa8bb77bb77649cL ]
    (List.init 4 (fun _ -> U.Det_rng.int64 d))

(* Chi-square uniformity sanity over 16 buckets: with 10000 draws the
   statistic (df = 15) should sit well inside [2.6, 37.7] — the 0.9999 and
   0.001 tails.  Not a PRNG certification, just a tripwire against a broken
   bound reduction (e.g. modulo bias or a stuck high bit). *)
let rng_chi_square () =
  let buckets = 16 in
  let draws = 10_000 in
  let rng = U.Det_rng.create ~seed:123L in
  let counts = Array.make buckets 0 in
  for _ = 1 to draws do
    let i = U.Det_rng.int rng ~bound:buckets in
    counts.(i) <- counts.(i) + 1
  done;
  let expected = float_of_int draws /. float_of_int buckets in
  let chi2 =
    Array.fold_left
      (fun acc n ->
        let d = float_of_int n -. expected in
        acc +. ((d *. d) /. expected))
      0. counts
  in
  check_bool
    (Printf.sprintf "chi-square %.1f not suspiciously large (df 15)" chi2)
    (chi2 < 37.7);
  check_bool (Printf.sprintf "chi-square %.1f not suspiciously uniform" chi2) (chi2 > 2.6)

let stats_basics () =
  let s = U.Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "n" 4 s.n;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.max;
  Alcotest.(check (float 1e-9)) "median" 2.0 s.median;
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944 s.stddev;
  Alcotest.(check (float 1e-9)) "p100" 4.0 (U.Stats.percentile [ 1.0; 2.0; 3.0; 4.0 ] ~p:100.0);
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (U.Stats.mean []))

let stats_single_element () =
  let s = U.Stats.summarize [ 42.0 ] in
  Alcotest.(check int) "n" 1 s.n;
  Alcotest.(check (float 1e-9)) "mean" 42.0 s.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0.0 s.stddev;
  Alcotest.(check (float 1e-9)) "min" 42.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 42.0 s.max;
  Alcotest.(check (float 1e-9)) "median" 42.0 s.median;
  Alcotest.(check (float 1e-9)) "p0" 42.0 (U.Stats.percentile [ 42.0 ] ~p:0.0);
  Alcotest.(check (float 1e-9)) "p100" 42.0 (U.Stats.percentile [ 42.0 ] ~p:100.0)

let stats_percentile_bounds () =
  let xs = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  (* nearest-rank: p=0 clamps to the smallest, p=100 is the largest *)
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (U.Stats.percentile xs ~p:0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 5.0 (U.Stats.percentile xs ~p:100.0);
  Alcotest.(check (float 1e-9)) "p50 odd n" 3.0 (U.Stats.percentile xs ~p:50.0);
  (* even n: nearest-rank takes the lower middle, not an interpolation *)
  Alcotest.(check (float 1e-9)) "p50 even n" 2.0 (U.Stats.percentile [ 1.0; 2.0; 3.0; 4.0 ] ~p:50.0);
  Alcotest.(check (float 1e-9)) "p95 of 100" 95.0
    (U.Stats.percentile (List.init 100 (fun i -> float_of_int (i + 1))) ~p:95.0)

let stats_invalid () =
  Alcotest.check_raises "empty summarize" (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (U.Stats.summarize []));
  Alcotest.check_raises "empty percentile" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (U.Stats.percentile [] ~p:50.0));
  Alcotest.check_raises "p below range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (U.Stats.percentile [ 1.0 ] ~p:(-0.1)));
  Alcotest.check_raises "p above range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (U.Stats.percentile [ 1.0 ] ~p:100.5))

let bqueue_fifo () =
  let q = U.Bqueue.create () in
  List.iter (U.Bqueue.push q) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (U.Bqueue.length q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (U.Bqueue.pop q);
  Alcotest.(check (option int)) "try_pop 2" (Some 2) (U.Bqueue.try_pop q);
  U.Bqueue.close q;
  Alcotest.(check (option int)) "drain after close" (Some 3) (U.Bqueue.pop q);
  Alcotest.(check (option int)) "closed empty" None (U.Bqueue.pop q);
  check_bool "is_closed" (U.Bqueue.is_closed q);
  Alcotest.check_raises "push after close" (Invalid_argument "Bqueue.push: closed queue") (fun () ->
      U.Bqueue.push q 9)

let bqueue_threads () =
  (* One producer thread, one consumer thread; blocking pop must deliver all
     items in order. *)
  let q = U.Bqueue.create () in
  let received = ref [] in
  let consumer =
    Thread.create
      (fun () ->
        let rec loop () =
          match U.Bqueue.pop q with
          | Some x ->
            received := x :: !received;
            loop ()
          | None -> ()
        in
        loop ())
      ()
  in
  let producer =
    Thread.create
      (fun () ->
        for i = 1 to 100 do
          U.Bqueue.push q i
        done;
        U.Bqueue.close q)
      ()
  in
  Thread.join producer;
  Thread.join consumer;
  Alcotest.(check (list int)) "all delivered in order" (List.init 100 (fun i -> i + 1))
    (List.rev !received)

let sha1_vectors () =
  (* FIPS 180-1 / RFC 3174 test vectors. *)
  Alcotest.(check string) "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (U.Sha1.hex "");
  Alcotest.(check string) "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (U.Sha1.hex "abc");
  (* "abcdbcde...nopq": fourteen sliding 4-char windows over a..q *)
  let two_block =
    String.concat "" (List.init 14 (fun i -> String.init 4 (fun j -> Char.chr (97 + i + j))))
  in
  Alcotest.(check string) "two-block"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (U.Sha1.hex two_block);
  Alcotest.(check string) "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (U.Sha1.hex (String.make 1_000_000 'a'));
  Alcotest.(check int) "raw digest length" 20 (String.length (U.Sha1.digest "x"))

let sha1_iterate () =
  Alcotest.(check string) "zero iterations is identity" "seed" (U.Sha1.iterate "seed" ~times:0);
  Alcotest.(check string) "one iteration = digest" (U.Sha1.digest "seed") (U.Sha1.iterate "seed" ~times:1);
  Alcotest.(check string) "composition" (U.Sha1.digest (U.Sha1.digest "seed")) (U.Sha1.iterate "seed" ~times:2);
  Alcotest.check_raises "negative" (Invalid_argument "Sha1.iterate: negative times") (fun () ->
      ignore (U.Sha1.iterate "x" ~times:(-1)))

let sha1_padding_boundaries =
  (* Lengths straddling the 55/56/63/64 padding boundaries must not crash and
     must be stable. *)
  qtest ~count:80 "padding boundaries" QCheck2.Gen.(int_range 50 70) (fun n ->
      let s = String.make n 'q' in
      U.Sha1.hex s = U.Sha1.hex (String.init n (fun _ -> 'q')))

let fnv_stable () =
  Alcotest.(check string) "known value" "af63dc4c8601ec8c" (U.Fnv.to_hex (U.Fnv.hash "a"));
  check_bool "order sensitive"
    (U.Fnv.combine (U.Fnv.hash "a") (U.Fnv.hash "b")
    <> U.Fnv.combine (U.Fnv.hash "b") (U.Fnv.hash "a"))

(* Every digest hashes through Fnv: a megabyte costs the boxed result, not
   words per byte, and gives the FNV-1a value a byte fold computes. *)
let fnv_allocates_nothing_per_byte () =
  let s = String.init 1_000_000 (fun i -> Char.chr (i * 7 land 255)) in
  ignore (Sys.opaque_identity (U.Fnv.hash "warm"));
  let w0 = Gc.minor_words () in
  let h = Sys.opaque_identity (U.Fnv.hash s) in
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "%.0f minor words < 100" words) (words < 100.);
  let by_fold =
    String.fold_left
      (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
      0xcbf29ce484222325L s
  in
  Alcotest.(check string) "FNV-1a value" (U.Fnv.to_hex by_fold) (U.Fnv.to_hex h)

let suite =
  [ Alcotest.test_case "vec: push/get/slice/copy" `Quick vec_basics
  ; vec_of_list_roundtrip
  ; Alcotest.test_case "rng: determinism" `Quick rng_deterministic
  ; Alcotest.test_case "rng: split independence" `Quick rng_split_independent
  ; rng_bounds
  ; rng_shuffle_permutes
  ; Alcotest.test_case "rng: golden stream values" `Quick rng_golden_stream
  ; Alcotest.test_case "rng: chi-square uniformity" `Quick rng_chi_square
  ; Alcotest.test_case "stats: summary" `Quick stats_basics
  ; Alcotest.test_case "stats: single element" `Quick stats_single_element
  ; Alcotest.test_case "stats: percentile boundaries" `Quick stats_percentile_bounds
  ; Alcotest.test_case "stats: invalid inputs" `Quick stats_invalid
  ; Alcotest.test_case "bqueue: fifo/close" `Quick bqueue_fifo
  ; Alcotest.test_case "bqueue: producer/consumer threads" `Quick bqueue_threads
  ; sha1_padding_boundaries
  ; Alcotest.test_case "fnv: stability and order" `Quick fnv_stable
  ; Alcotest.test_case "sha1: FIPS vectors" `Quick sha1_vectors
  ; Alcotest.test_case "sha1: iterate" `Quick sha1_iterate
  ; Alcotest.test_case "fnv: hashing 1 MB allocates nothing per byte" `Quick
      fnv_allocates_nothing_per_byte
  ]
