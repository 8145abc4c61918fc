(* Bapar.map_reduce: determinism under parallelism.

   The load-bearing property: for ANY job list and ANY jobs count,
   map_reduce equals the plain sequential fold — so flipping --jobs can
   never change an experiment aggregate. Checked with a merge that is
   deliberately NOT commutative (string concatenation), which fails the
   moment results are merged in completion order instead of job-index
   order. Alongside it, the monoid laws of Common.merge_rates that the
   parallel trial runner relies on, and exception behaviour. *)

(* --- map_reduce ≡ sequential fold ---------------------------------------- *)

let seq_fold ~merge ~init jobs =
  List.fold_left (fun acc job -> merge acc (job ())) init jobs

let qcheck_sum_determinism =
  QCheck.Test.make ~name:"map_reduce sum = sequential fold (pool 1-8)"
    ~count:60
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (xs, jobs) ->
      let thunks = List.map (fun x () -> (2 * x) + 1) xs in
      let expected = seq_fold ~merge:( + ) ~init:0 thunks in
      Bapar.map_reduce ~jobs ~merge:( + ) ~init:0 thunks = expected)

let qcheck_order_determinism =
  (* Non-commutative merge: catches completion-order merging. *)
  QCheck.Test.make
    ~name:"map_reduce merges in job-index order (non-commutative merge)"
    ~count:60
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (xs, jobs) ->
      let thunks = List.map (fun x () -> string_of_int x ^ ";") xs in
      let expected = seq_fold ~merge:( ^ ) ~init:"" thunks in
      Bapar.map_reduce ~jobs ~merge:( ^ ) ~init:"" thunks = expected)

(* --- merge_rates monoid laws --------------------------------------------- *)

let rates_gen =
  let open QCheck.Gen in
  let nat = int_bound 1000 in
  map
    (fun ((a, b, c, d, e), (f, g, h, i, j)) ->
      { Baexperiments.Common.trials = a;
        consistency_fail = b;
        validity_fail = c;
        termination_fail = d;
        total_rounds = e;
        total_multicasts = f;
        total_multicast_bits = g;
        total_unicasts = h;
        total_removals = i;
        total_corruptions = j })
    (pair (tup5 nat nat nat nat nat) (tup5 nat nat nat nat nat))

let rates_arb = QCheck.make rates_gen

let qcheck_merge_associative =
  QCheck.Test.make ~name:"merge_rates associative" ~count:200
    (QCheck.triple rates_arb rates_arb rates_arb)
    (fun (a, b, c) ->
      let open Baexperiments.Common in
      merge_rates a (merge_rates b c) = merge_rates (merge_rates a b) c)

let qcheck_merge_commutative =
  (* Reindexing trials permutes the singleton aggregates; commutativity
     of the merge is what makes the reindexed fold agree. *)
  QCheck.Test.make ~name:"merge_rates commutative" ~count:200
    (QCheck.pair rates_arb rates_arb)
    (fun (a, b) ->
      let open Baexperiments.Common in
      merge_rates a b = merge_rates b a)

let qcheck_merge_identity =
  QCheck.Test.make ~name:"merge_rates identity empty_rates" ~count:100
    rates_arb
    (fun a ->
      let open Baexperiments.Common in
      merge_rates empty_rates a = a && merge_rates a empty_rates = a)

(* --- unit tests ----------------------------------------------------------- *)

(* The domain each of [count] jobs ran on, in job order. *)
let domains_of ~jobs count =
  List.rev
    (Bapar.map_reduce ~jobs
       ~merge:(fun acc d -> d :: acc)
       ~init:[]
       (List.init count (fun _ () ->
            Unix.sleepf 0.001;
            Domain.self ())))

let test_empty_jobs () =
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        (Printf.sprintf "empty list yields init at jobs %d" jobs)
        42
        (Bapar.map_reduce ~jobs ~merge:( + ) ~init:42 []))
    [ 1; 4 ]

exception Boom of int

let test_exception_propagation () =
  (* The smallest-index failure wins, deterministically, and later jobs
     still ran to completion before the raise. *)
  let ran = Array.make 6 false in
  let thunks =
    List.init 6 (fun i () ->
        ran.(i) <- true;
        if i = 2 || i = 4 then raise (Boom i);
        i)
  in
  (match Bapar.map_reduce ~jobs:4 ~merge:( + ) ~init:0 thunks with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "first failing index" 2 i);
  Alcotest.(check bool) "all jobs executed" true
    (Array.for_all (fun b -> b) ran)

let test_size_and_clamp () =
  (* [jobs] below 1 is clamped to the sequential fold, not refused. *)
  Alcotest.(check int) "clamped to 1" 6
    (Bapar.map_reduce ~jobs:(-5) ~merge:( + ) ~init:0
       (List.init 4 (fun i () -> i)))

let test_sequential_spawns_nothing () =
  (* jobs:1 must run in the calling domain: observable via Domain.self
     equality inside the job. *)
  let self = Domain.self () in
  Alcotest.(check bool) "all on caller" true
    (List.for_all (fun d -> d = self) (domains_of ~jobs:1 3))

let test_parallel_actually_uses_domains () =
  (* With enough jobs, at least one job lands off the calling domain —
     the fold is not secretly sequential. 64 sleeps make starvation of
     every spawned domain vanishingly unlikely. *)
  let self = Domain.self () in
  Alcotest.(check bool) "some job ran on a worker domain" true
    (List.exists (fun d -> not (d = self)) (domains_of ~jobs:4 64))

let test_nonpositive_jobs_on_caller () =
  let self = Domain.self () in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d all on caller" jobs)
        true
        (List.for_all (fun d -> d = self) (domains_of ~jobs 3)))
    [ 0; -3 ]

let test_more_jobs_than_thunks () =
  (* Three thunks at jobs 8: each still runs exactly once and the fold
     is the sequential one. *)
  Alcotest.(check string) "sequential fold" "0;1;2;"
    (Bapar.map_reduce ~jobs:8 ~merge:( ^ ) ~init:""
       (List.init 3 (fun i () -> string_of_int i ^ ";")))

let test_default_jobs_positive () =
  let j = Bapar.default_jobs () in
  Alcotest.(check bool) "within clamp" true (j >= 1 && j <= 64)

(* --- measure determinism at the Common level ------------------------------ *)

let kernel s =
  let proto =
    Bacore.Warmup_third.protocol
      ~params:(Bacore.Params.make ~lambda:10 ~max_epochs:6 ())
  in
  let inputs = Basim.Scenario.unanimous_inputs ~n:7 true in
  let result =
    Basim.Engine.run proto
      ~adversary:(Basim.Engine.passive ~name:"p" ~model:Basim.Corruption.Adaptive)
      ~n:7 ~budget:0 ~inputs ~max_rounds:20 ~seed:s
  in
  (result, Basim.Properties.agreement ~inputs result)

let test_measure_jobs_equivalence () =
  let base = Baexperiments.Common.measure ~jobs:1 ~reps:12 ~seed:5L kernel in
  List.iter
    (fun jobs ->
      let r = Baexperiments.Common.measure ~jobs ~reps:12 ~seed:5L kernel in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d record equal" jobs)
        true (r = base);
      Alcotest.(check string)
        (Printf.sprintf "jobs %d json equal" jobs)
        (Baobs.Json.to_string (Baexperiments.Common.rates_to_json base))
        (Baobs.Json.to_string (Baexperiments.Common.rates_to_json r)))
    [ 2; 3; 4; 8 ]

let () =
  let qcheck =
    List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xba006 |]))
  in
  Alcotest.run "par"
    [ ( "determinism",
        qcheck [ qcheck_sum_determinism; qcheck_order_determinism ] );
      ( "merge-laws",
        qcheck
          [ qcheck_merge_associative; qcheck_merge_commutative;
            qcheck_merge_identity ] );
      ( "pool",
        [ Alcotest.test_case "empty jobs" `Quick test_empty_jobs;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "size and clamp" `Quick test_size_and_clamp;
          Alcotest.test_case "jobs:1 stays on caller" `Quick
            test_sequential_spawns_nothing;
          Alcotest.test_case "jobs:4 uses worker domains" `Quick
            test_parallel_actually_uses_domains;
          Alcotest.test_case "default_jobs in range" `Quick
            test_default_jobs_positive ] );
      (* 18 characters, the widest group name, as the deleted
         concurrent-drivers group was: alcotest sizes the name column to
         it, so a narrower one would re-truncate every listed test name. *)
      ( "jobs-outside-range",
        [ Alcotest.test_case "nonpositive jobs on caller" `Quick
            test_nonpositive_jobs_on_caller;
          Alcotest.test_case "more jobs than thunks" `Quick
            test_more_jobs_than_thunks ] );
      ( "measure",
        [ Alcotest.test_case "measure identical across jobs" `Quick
            test_measure_jobs_equivalence ] ) ]
