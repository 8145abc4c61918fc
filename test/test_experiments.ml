(* Smoke tests for the experiment suite: every experiment must execute at
   low repetitions, produce non-empty tables, and — where the claim is
   sharp enough to assert — reproduce the paper's direction. *)

let tables_of entry = entry.Baexperiments.All.run ~reps:2 ()

let test_all_experiments_execute () =
  List.iter
    (fun entry ->
      let tables = tables_of entry in
      Alcotest.(check bool)
        (entry.Baexperiments.All.id ^ " produces tables")
        true
        (tables <> []);
      List.iter
        (fun t ->
          let rendered = Bastats.Table.render t in
          Alcotest.(check bool)
            (entry.Baexperiments.All.id ^ " table non-empty")
            true
            (String.length rendered > 40))
        tables)
    Baexperiments.All.experiments

let test_experiment_ids_unique () =
  let ids =
    List.map (fun e -> e.Baexperiments.All.id) Baexperiments.All.experiments
  in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_run_one_dispatch () =
  (* run_one must find experiments case-insensitively and reject unknowns.
     Use E6, the cheapest. *)
  Alcotest.(check bool) "e6 found" true (Baexperiments.All.run_one ~quick:true "e6");
  Alcotest.(check bool) "unknown rejected" false
    (Baexperiments.All.run_one ~quick:true "E42")

let test_common_measure_counts () =
  let rates =
    Baexperiments.Common.measure ~reps:4 ~seed:1L (fun seed ->
        let inputs = Basim.Scenario.unanimous_inputs ~n:7 true in
        let proto = Bacore.Warmup_third.protocol ~params:(Bacore.Params.make ~lambda:10 ~max_epochs:6 ()) in
        let result =
          Basim.Engine.run proto
            ~adversary:(Basim.Engine.passive ~name:"p" ~model:Basim.Corruption.Adaptive)
            ~n:7 ~budget:0 ~inputs ~max_rounds:20 ~seed
        in
        (result, Basim.Properties.agreement ~inputs result))
  in
  Alcotest.(check int) "trials" 4 rates.Baexperiments.Common.trials;
  Alcotest.(check int) "no failures" 0 rates.Baexperiments.Common.consistency_fail;
  Alcotest.(check bool) "rounds positive" true
    (Baexperiments.Common.mean_rounds rates > 0.0)

let test_common_seed_derivation () =
  let a = Baexperiments.Common.seed_of 1L 0 in
  let b = Baexperiments.Common.seed_of 1L 1 in
  let a' = Baexperiments.Common.seed_of 1L 0 in
  Alcotest.(check int64) "stable" a a';
  Alcotest.(check bool) "distinct" true (a <> b)

(* Every aggregate in EXPERIMENTS.md is a function of these derived
   seeds, so their exact values are part of the reproduction: pin a
   sample so a silent change to the derivation (Rng.split_named, the
   label scheme, …) fails loudly rather than shifting every table. *)
let test_seed_of_regression_pins () =
  List.iter
    (fun (base, k, expected) ->
      Alcotest.(check int64)
        (Printf.sprintf "seed_of %Ld %d" base k)
        expected
        (Baexperiments.Common.seed_of base k))
    [ (101L, 0, -4890805870649240105L);
      (101L, 1, -4432694470564943428L);
      (101L, 9, -7475388173511984057L);
      (103L, 0, 2979518030656827812L);
      (103L, 5, -3530997928206117773L);
      (109L, 2, 4789723745784372894L);
      (1L, 0, -5978117107769374440L);
      (2L, 11, -7529093808955307694L) ]

let test_seed_of_pairwise_distinct () =
  (* 10k trials per base, plus cross-base: one collision would silently
     correlate two Monte-Carlo trials. *)
  let module S = Set.Make (Int64) in
  let reps = 10_000 in
  let all = ref S.empty in
  List.iter
    (fun base ->
      let seen = ref S.empty in
      for k = 0 to reps - 1 do
        seen := S.add (Baexperiments.Common.seed_of base k) !seen
      done;
      Alcotest.(check int)
        (Printf.sprintf "base %Ld: %d distinct" base reps)
        reps (S.cardinal !seen);
      all := S.union !all !seen)
    [ 101L; 103L ];
  Alcotest.(check int) "no cross-base collisions" (2 * reps)
    (S.cardinal !all)

(* --- Parallel/sequential golden equivalence ------------------------------- *)

(* E1, E2 and E8 rendered end-to-end with ~jobs:1 and ~jobs:4 on the
   same base seed: every table must be byte-identical — the determinism
   guarantee README documents for --jobs, asserted at the level users
   see. *)
let run_rendered ~jobs id =
  Baexperiments.Common.set_jobs jobs;
  match
    List.find_opt
      (fun e -> e.Baexperiments.All.id = id)
      Baexperiments.All.experiments
  with
  | None -> Alcotest.fail ("no experiment " ^ id)
  | Some entry ->
      let tables = entry.Baexperiments.All.run ~reps:2 () in
      Baexperiments.Common.set_jobs 1;
      List.map Bastats.Table.render tables

let test_golden_parallel_tables () =
  List.iter
    (fun id ->
      let seq = run_rendered ~jobs:1 id in
      let par = run_rendered ~jobs:4 id in
      Alcotest.(check (list string)) (id ^ " tables identical") seq par)
    [ "E1"; "E2"; "E8" ]

(* The same equivalence one level down, on the rates records and their
   JSON, for an E8-style kernel (takeover of a static committee). *)
let test_golden_parallel_rates () =
  let kernel s =
    let proto =
      Babaselines.Static_committee.protocol ~committee_size:12
    in
    let inputs = Basim.Scenario.unanimous_inputs ~n:60 false in
    let result =
      Basim.Engine.run proto
        ~adversary:(Baattacks.Takeover.make ~force:true ())
        ~n:60 ~budget:24 ~inputs ~max_rounds:6 ~seed:s
    in
    (result, Basim.Properties.agreement ~inputs result)
  in
  let seq = Baexperiments.Common.measure ~jobs:1 ~reps:6 ~seed:109L kernel in
  let par = Baexperiments.Common.measure ~jobs:4 ~reps:6 ~seed:109L kernel in
  Alcotest.(check bool) "rates records identical" true (seq = par);
  Alcotest.(check string) "rates_to_json identical"
    (Baobs.Json.to_string (Baexperiments.Common.rates_to_json seq))
    (Baobs.Json.to_string (Baexperiments.Common.rates_to_json par))

let test_rate_formatting () =
  Alcotest.(check string) "rate" "1/4 (25.0%)" (Baexperiments.Common.rate 1 4);
  Alcotest.(check string) "pct" "50.0%" (Baexperiments.Common.pct 0.5)

(* --- Pinned property tests ------------------------------------------------ *)

let experiments_qcheck_tests =
  (* Trial-seed derivation backs every experiment's reproducibility:
     it must be a pure function of (base, index) and collision-free
     across the indices one sweep uses. *)
  [ QCheck.Test.make
      ~name:"seed_of: deterministic and injective over trial indices"
      ~count:200
      QCheck.(
        make
          ~print:(fun (b, i, j) -> Printf.sprintf "(%d, %d, %d)" b i j)
          Gen.(tup3 (0 -- 1_000) (0 -- 500) (0 -- 500)))
      (fun (base, i, j) ->
        let base = Int64.of_int base in
        let si = Baexperiments.Common.seed_of base i in
        Baexperiments.Common.seed_of base i = si
        && (i = j || si <> Baexperiments.Common.seed_of base j)) ]

(* E7's Lemma-12 rate counts only iterations whose Propose round ran. Each
   quick run ends on a Status round, whose iteration draws no proposer;
   counting those iterations too read 37.5% (3/8). *)
let test_e7_lemma12_quick_cell () =
  let row =
    Baexperiments.E7_stochastic_lemmas.run ~reps:3 ()
    |> List.concat_map Bastats.Table.rows
    |> List.find (fun row ->
           List.hd row = "unique-proposer iteration rate (L12)")
  in
  Alcotest.(check string) "measured" "60.0% (3/5)" (List.nth row 1)

let () =
  Alcotest.run "experiments"
    [ ( "suite",
        [ Alcotest.test_case "all execute" `Slow test_all_experiments_execute;
          Alcotest.test_case "ids unique" `Quick test_experiment_ids_unique;
          Alcotest.test_case "run_one dispatch" `Quick test_run_one_dispatch ] );
      ( "common",
        [ Alcotest.test_case "measure" `Quick test_common_measure_counts;
          Alcotest.test_case "seed derivation" `Quick test_common_seed_derivation;
          Alcotest.test_case "seed_of regression pins" `Quick
            test_seed_of_regression_pins;
          Alcotest.test_case "seed_of pairwise distinct" `Quick
            test_seed_of_pairwise_distinct;
          Alcotest.test_case "formatting" `Quick test_rate_formatting ] );
      ( "e7",
        [ Alcotest.test_case "L12 quick cell" `Quick test_e7_lemma12_quick_cell
        ] );
      ( "golden-parallel",
        [ Alcotest.test_case "E1/E2/E8 tables jobs 1 = jobs 4" `Slow
            test_golden_parallel_tables;
          Alcotest.test_case "rates and json jobs 1 = jobs 4" `Quick
            test_golden_parallel_rates ] );
      ( "qcheck",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xba00c |]))
          experiments_qcheck_tests ) ]
