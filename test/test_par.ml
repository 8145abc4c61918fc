(* Bapar.Pool: determinism under parallelism.

   The load-bearing property: for ANY job list and ANY pool size,
   map_reduce equals the plain sequential fold — so flipping --jobs can
   never change an experiment aggregate. Checked with a merge that is
   deliberately NOT commutative (string concatenation), which fails the
   moment results are merged in completion order instead of job-index
   order. Alongside it, the monoid laws of Common.merge_rates that the
   parallel trial runner relies on, and exception/reuse behaviour. *)

let with_pool = Bapar.Pool.with_pool

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
      with_pool ~jobs (fun pool ->
          Bapar.Pool.map_reduce ~pool ~merge:( + ) ~init:0 thunks = expected))

let qcheck_order_determinism =
  (* Non-commutative merge: catches completion-order merging. *)
  QCheck.Test.make
    ~name:"map_reduce merges in job-index order (non-commutative merge)"
    ~count:60
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (xs, jobs) ->
      let thunks = List.map (fun x () -> string_of_int x ^ ";") xs in
      let expected = seq_fold ~merge:( ^ ) ~init:"" thunks in
      with_pool ~jobs (fun pool ->
          Bapar.Pool.map_reduce ~pool ~merge:( ^ ) ~init:"" thunks = expected))

let qcheck_map_order =
  QCheck.Test.make ~name:"map preserves input order" ~count:60
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (xs, jobs) ->
      with_pool ~jobs (fun pool ->
          Bapar.Pool.map ~pool (fun x -> x * x) xs
          = List.map (fun x -> x * x) xs))

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

let test_empty_jobs () =
  with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "empty list yields init" 42
        (Bapar.Pool.map_reduce ~pool ~merge:( + ) ~init:42 []);
      Alcotest.(check (list int)) "empty map" []
        (Bapar.Pool.map ~pool (fun x -> x) []))

let test_pool_reuse () =
  (* One pool, many batches of different shapes — workers must survive
     between batches and the queue must come back empty. *)
  with_pool ~jobs:3 (fun pool ->
      for batch = 1 to 20 do
        let thunks = List.init batch (fun i () -> i + batch) in
        let expected = List.fold_left ( + ) 0 (List.init batch (fun i -> i + batch)) in
        Alcotest.(check int)
          (Printf.sprintf "batch %d" batch)
          expected
          (Bapar.Pool.map_reduce ~pool ~merge:( + ) ~init:0 thunks)
      done)

exception Boom of int

let test_exception_propagation () =
  with_pool ~jobs:4 (fun pool ->
      (* The smallest-index failure wins, deterministically, and later
         jobs still ran to completion before the raise. *)
      let ran = Array.make 6 false in
      let thunks =
        List.init 6 (fun i () ->
            ran.(i) <- true;
            if i = 2 || i = 4 then raise (Boom i);
            i)
      in
      (match Bapar.Pool.map_reduce ~pool ~merge:( + ) ~init:0 thunks with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "first failing index" 2 i);
      Alcotest.(check bool) "all jobs executed" true
        (Array.for_all (fun b -> b) ran);
      (* The pool survives a raising batch. *)
      Alcotest.(check int) "pool still works" 6
        (Bapar.Pool.map_reduce ~pool ~merge:( + ) ~init:0
           (List.init 4 (fun i () -> i))))

let test_size_and_clamp () =
  with_pool ~jobs:3 (fun pool ->
      Alcotest.(check int) "size" 3 (Bapar.Pool.size pool));
  with_pool ~jobs:(-5) (fun pool ->
      Alcotest.(check int) "clamped to 1" 1 (Bapar.Pool.size pool))

let test_sequential_pool_spawns_nothing () =
  (* jobs:1 must run in the calling domain: observable via Domain.self
     equality inside the job. *)
  let self = Domain.self () in
  with_pool ~jobs:1 (fun pool ->
      let ran_on =
        Bapar.Pool.map ~pool (fun () -> Domain.self ()) [ (); (); () ]
      in
      Alcotest.(check bool) "all on caller" true
        (List.for_all (fun d -> d = self) ran_on))

let test_parallel_actually_uses_domains () =
  (* With enough jobs, at least one job lands off the calling domain —
     the pool is not secretly sequential. 64 sleeps make starvation of
     every worker vanishingly unlikely. *)
  let self = Domain.self () in
  with_pool ~jobs:4 (fun pool ->
      let ran_on =
        Bapar.Pool.map ~pool
          (fun () ->
            Unix.sleepf 0.001;
            Domain.self ())
          (List.init 64 (fun _ -> ()))
      in
      Alcotest.(check bool) "some job ran on a worker domain" true
        (List.exists (fun d -> not (d = self)) ran_on))

let test_shutdown_idempotent () =
  let pool = Bapar.Pool.create ~jobs:4 in
  ignore (Bapar.Pool.map_reduce ~pool ~merge:( + ) ~init:0
            (List.init 8 (fun i () -> i)));
  Bapar.Pool.shutdown pool;
  Bapar.Pool.shutdown pool

let test_default_jobs_positive () =
  let j = Bapar.Pool.default_jobs () in
  Alcotest.(check bool) "within clamp" true (j >= 1 && j <= 64)

(* --- concurrent batch submission ------------------------------------------ *)

let test_concurrent_batch_submission () =
  (* Several driver domains submit batches to ONE shared pool at once.
     Each driver must get exactly its own results back, in its own
     order, across many differently-shaped batches — what per-batch
     completion tracking guarantees. *)
  Bapar.Pool.with_pool ~jobs:4 (fun pool ->
      let drivers =
        Array.init 4 (fun d ->
            Domain.spawn (fun () ->
                let ok = ref true in
                for batch = 1 to 25 do
                  let xs =
                    List.init
                      (1 + ((d + batch) mod 7))
                      (fun i -> (d * 1000) + (batch * 10) + i)
                  in
                  let got = Bapar.Pool.map ~pool (fun x -> x * 3) xs in
                  if got <> List.map (fun x -> x * 3) xs then ok := false
                done;
                !ok))
      in
      Array.iteri
        (fun d domain ->
          Alcotest.(check bool)
            (Printf.sprintf "driver %d saw only its own batch results" d)
            true (Domain.join domain))
        drivers)

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
        qcheck
          [ qcheck_sum_determinism; qcheck_order_determinism; qcheck_map_order ]
      );
      ( "merge-laws",
        qcheck
          [ qcheck_merge_associative; qcheck_merge_commutative;
            qcheck_merge_identity ] );
      ( "pool",
        [ Alcotest.test_case "empty jobs" `Quick test_empty_jobs;
          Alcotest.test_case "reuse across batches" `Quick test_pool_reuse;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "size and clamp" `Quick test_size_and_clamp;
          Alcotest.test_case "jobs:1 stays on caller" `Quick
            test_sequential_pool_spawns_nothing;
          Alcotest.test_case "jobs:4 uses worker domains" `Quick
            test_parallel_actually_uses_domains;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "default_jobs in range" `Quick
            test_default_jobs_positive ] );
      ( "concurrent-drivers",
        [ Alcotest.test_case "4 domains share one pool" `Quick
            test_concurrent_batch_submission ] );
      ( "measure",
        [ Alcotest.test_case "measure identical across jobs" `Quick
            test_measure_jobs_equivalence ] ) ]
