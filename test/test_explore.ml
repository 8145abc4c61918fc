(* Tests for the bounded adversary-schedule model checker:
   schedule codec round-trips, interpreter-vs-handwritten equivalence,
   minimizer soundness, and the headline rediscovery results (DFS finds
   E1- and E8-class violations from the spec alone, deterministically). *)

open Basim
open Bacore

(* --- schedule JSON round-trip (qcheck) ----------------------------------- *)

let gen_name =
  QCheck.Gen.(
    map
      (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (int_range 1 12)
         (oneofl
            [ 'a'; 'b'; 'z'; 'A'; 'Z'; '0'; '9'; '-'; '_'; '/'; ' '; '"'; '\\' ])))

let gen_dst =
  QCheck.Gen.(
    oneof
      [ return Schedule.Everyone;
        return Schedule.Lower_half;
        return Schedule.Upper_half;
        map (fun l -> Schedule.Nodes l) (list_size (int_range 0 4) (int_bound 9))
      ])

let gen_action =
  QCheck.Gen.(
    oneof
      [ map (fun i -> Schedule.Corrupt i) (int_bound 9);
        map2
          (fun victim index -> Schedule.Remove { victim; index })
          (int_bound 9) (int_bound 3);
        (let* src = int_bound 9 in
         let* kind = oneofl [ "propose"; "ack"; "vote"; "result" ] in
         let* bit = bool in
         let* dst = gen_dst in
         return (Schedule.Inject { src; kind; bit; dst }));
        return Schedule.Halt ])

let gen_schedule =
  QCheck.Gen.(
    let* name = gen_name in
    let* model =
      oneofl
        [ Corruption.Static; Corruption.Adaptive; Corruption.Strongly_adaptive ]
    in
    let* setup = list_size (int_bound 3) (int_bound 9) in
    let* steps =
      list_size (int_bound 4)
        (let* round = int_bound 7 in
         let* actions = list_size (int_range 1 4) gen_action in
         return (round, actions))
    in
    return { Schedule.name; model; setup; steps })

let arb_schedule =
  QCheck.make gen_schedule ~print:(fun s ->
      Baobs.Json.to_string (Schedule.to_json s))

let schedule_roundtrip =
  QCheck.Test.make ~name:"schedule JSON round-trip" ~count:300 arb_schedule
    (fun s -> Schedule.of_json (Schedule.to_json s) = s)

let schedule_string_roundtrip =
  QCheck.Test.make ~name:"schedule JSON round-trip via printer" ~count:300
    arb_schedule (fun s ->
      Schedule.of_json
        (Baobs.Json.of_string (Baobs.Json.to_string (Schedule.to_json s)))
      = s)

let roundtrip_tests = [ schedule_roundtrip; schedule_string_roundtrip ]

(* --- interpreter vs hand-written attack ---------------------------------- *)

(* The schedule transcription of Split_vote.sub_third must produce a
   byte-identical seeded trace: same engine, same seed, same actions in
   the same order. This anchors the interpreter's semantics to the
   hand-written attacks the repo already trusts. *)
let test_transcription_equivalence () =
  let n = 20 and budget = 6 in
  let params = Params.make ~lambda:10 ~max_epochs:4 () in
  let proto =
    Sub_third.protocol ~params ~world:`Hybrid ~mode:Sub_third.Bit_specific
  in
  let max_rounds = 10 in
  let inputs = Scenario.split_inputs ~n in
  let run adversary seed =
    let c = Trace.collector () in
    let result =
      Engine.run ~tracer:(Trace.observe c) proto ~adversary ~n ~budget ~inputs
        ~max_rounds ~seed
    in
    (Trace.events c, Properties.agreement ~inputs result)
  in
  let sched =
    Baattacks.Schedule_targets.split_vote_sub_third ~n ~budget ~max_rounds
  in
  let interp =
    Schedule.to_adversary ~compiler:Baattacks.Schedule_targets.sub_third sched
  in
  List.iter
    (fun seed ->
      let ev_hand, v_hand = run (Baattacks.Split_vote.sub_third ()) seed in
      let ev_sched, v_sched = run interp seed in
      Alcotest.(check int)
        (Printf.sprintf "same event count (seed %Ld)" seed)
        (List.length ev_hand) (List.length ev_sched);
      Alcotest.(check bool)
        (Printf.sprintf "byte-identical event streams (seed %Ld)" seed)
        true
        (List.map Trace.to_json ev_hand = List.map Trace.to_json ev_sched);
      Alcotest.(check bool)
        (Printf.sprintf "same verdict (seed %Ld)" seed)
        true (v_hand = v_sched))
    [ 11L; 42L; 1009L ]

(* An injection naming a recipient outside [0, n) is infeasible: the
   interpreter skips it (the engine would refuse it) and keeps the
   schedule's other actions. *)
let test_out_of_range_injection_skipped () =
  let n = 3 in
  let params = Params.make ~lambda:3 ~max_epochs:2 () in
  let proto =
    Sub_third.protocol ~params ~world:`Hybrid ~mode:Sub_third.Bit_specific
  in
  let inject dst = Schedule.Inject { src = 0; kind = "ack"; bit = false; dst } in
  let sched =
    { Schedule.name = "stray-target";
      model = Corruption.Adaptive;
      setup = [ 0 ];
      steps = [ (1, [ inject (Schedule.Nodes [ 1; n ]); inject (Schedule.Nodes [ 1 ]) ]) ] }
  in
  let c = Trace.collector () in
  ignore
    (Engine.run ~tracer:(Trace.observe c)
       proto
       ~adversary:
         (Schedule.to_adversary ~compiler:Baattacks.Schedule_targets.sub_third
            sched)
       ~n ~budget:1
       ~inputs:(Scenario.unanimous_inputs ~n true)
       ~max_rounds:4 ~seed:7L);
  Alcotest.(check (list int))
    "only the in-range injection is applied" [ 1 ]
    (List.filter_map
       (function Trace.Injected { recipients; _ } -> Some recipients | _ -> None)
       (Trace.events c))

(* --- search instances ----------------------------------------------------- *)

(* E1-class world: n = 3, λ = n so every ACK mining attempt succeeds
   (p = λ/n = 1), unanimous-true inputs, f = 2. The known break:
   corrupt two nodes in round 0, inject false ACKs from both in round 1;
   the honest node tallies an ample false committee against a lone true
   ACK and flips — validity gone. *)
let e1_instance () =
  let n = 3 in
  let params = Params.make ~lambda:3 ~max_epochs:2 () in
  { Bacheck.Explore.protocol =
      Sub_third.protocol ~params ~world:`Hybrid ~mode:Sub_third.Bit_specific;
    compiler = Baattacks.Schedule_targets.sub_third;
    model = Corruption.Adaptive;
    n;
    budget = 2;
    inputs = Scenario.unanimous_inputs ~n true;
    max_rounds = 6;
    exec_seed = 7L }

(* E8-class world: n = 5, committee of 3, all-false inputs, f = 2. The
   known break: corrupt two committee members, inject two signed
   Result(true) messages; every node adopts the forged majority. *)
let e8_instance () =
  let n = 5 in
  { Bacheck.Explore.protocol =
      Babaselines.Static_committee.protocol ~committee_size:3;
    compiler = Baattacks.Schedule_targets.static_committee;
    model = Corruption.Adaptive;
    n;
    budget = 2;
    inputs = Scenario.unanimous_inputs ~n false;
    max_rounds = 4;
    exec_seed = 7L }

(* --- forbidden actions are skipped ------------------------------------------ *)

(* A ba-schedule/v1 document for the E1 instance: [setup], round 0's
   actions, then round 1's two false ACKs from nodes 0 and 1. *)
let e1_document ~model ~setup ~round0 =
  Printf.sprintf
    {|{"schema":"ba-schedule/v1","name":"skip","model":"%s","setup":[%s],"rounds":[{"round":0,"actions":[%s]},{"round":1,"actions":[{"op":"inject","src":0,"kind":"ack","bit":false,"dst":"everyone"},{"op":"inject","src":1,"kind":"ack","bit":false,"dst":"everyone"}]}]}|}
    model setup (String.concat "," round0)

(* The corruption model is the adversary's whole contract, and the
   interpreter is total: an action the schedule's model forbids is
   skipped, so the replay has the verdict and the trace of the schedule
   without it, and that trace lints clean. *)
let test_skips_forbidden ~model ~setup ~round0 ~extra () =
  let inst = e1_instance () in
  let replay round0 =
    let sched =
      Schedule.of_json
        (Baobs.Json.of_string (e1_document ~model ~setup ~round0))
    in
    let c = Trace.collector () in
    let result =
      Engine.run ~tracer:(Trace.observe c) inst.Bacheck.Explore.protocol
        ~adversary:
          (Schedule.to_adversary ~compiler:inst.Bacheck.Explore.compiler sched)
        ~n:inst.Bacheck.Explore.n ~budget:inst.Bacheck.Explore.budget
        ~inputs:inst.Bacheck.Explore.inputs
        ~max_rounds:inst.Bacheck.Explore.max_rounds
        ~seed:inst.Bacheck.Explore.exec_seed
    in
    let events = Trace.events c in
    ( Properties.agreement ~inputs:inst.Bacheck.Explore.inputs result,
      List.map Trace.to_json events,
      Bacheck.Trace_lint.verify ~metrics:result.Engine.metrics
        ~model:sched.Schedule.model ~budget:inst.Bacheck.Explore.budget events
    )
  in
  let verdict, trace, lint = replay (round0 @ [ extra ]) in
  let verdict', trace', _ = replay round0 in
  Alcotest.(check bool) "same verdict" true (verdict = verdict');
  Alcotest.(check bool) "same trace" true (trace = trace');
  Alcotest.(check int) "clean trace" 0 (List.length lint)

let corrupt i = Printf.sprintf {|{"op":"corrupt","node":%d}|} i

let violation_names f =
  List.map Bacheck.Explore.violation_name f.Bacheck.Explore.violations

let schedule_size (s : Schedule.t) =
  List.length s.Schedule.setup
  + List.fold_left (fun acc (_, acts) -> acc + List.length acts) 0 s.Schedule.steps

(* --- DFS rediscovery ------------------------------------------------------ *)

let test_dfs_rediscovers_e1 () =
  let inst = e1_instance () in
  let findings, stats =
    Bacheck.Explore.dfs ~space:(Bacheck.Explore.default_space ~max_round:1) inst
  in
  match findings with
  | [] -> Alcotest.failf "no violation found in %d schedules" stats.explored
  | f :: _ ->
      Alcotest.(check (list string))
        "validity violated" [ "validity" ] (violation_names f);
      Alcotest.(check int)
        "minimized to the 4-action needle" 4
        (schedule_size f.Bacheck.Explore.minimized);
      Alcotest.(check bool)
        "no trace-lint findings on the counterexample" true
        (f.Bacheck.Explore.lint = []);
      (* The needle's shape: two round-0 corruptions, two round-1 false
         ACK injections. *)
      let o = Bacheck.Explore.run_schedule inst f.Bacheck.Explore.minimized in
      Alcotest.(check bool)
        "minimized schedule still violates" true (Bacheck.Explore.violates o)

let test_dfs_rediscovers_e8 () =
  let inst = e8_instance () in
  let findings, stats =
    Bacheck.Explore.dfs ~space:(Bacheck.Explore.default_space ~max_round:1) inst
  in
  match findings with
  | [] -> Alcotest.failf "no violation found in %d schedules" stats.explored
  | f :: _ ->
      Alcotest.(check (list string))
        "validity violated" [ "validity" ] (violation_names f);
      let o = Bacheck.Explore.run_schedule inst f.Bacheck.Explore.minimized in
      Alcotest.(check bool)
        "minimized schedule still violates" true (Bacheck.Explore.violates o)

(* --- negative: trivial budgets find nothing ------------------------------- *)

let test_exhaustive_trivial_budgets_clean () =
  (* Searching only round 0 (the ACK tally needs round-1 injections)
     must exhaust the space and find nothing. *)
  let inst = e1_instance () in
  let findings, stats =
    Bacheck.Explore.dfs ~space:(Bacheck.Explore.default_space ~max_round:0) inst
  in
  Alcotest.(check int) "no findings" 0 (List.length findings);
  Alcotest.(check bool) "searched something" true (stats.explored > 0);
  Alcotest.(check bool) "space exhausted" true (not stats.node_cap_hit);
  (* Zero corruption budget: injections need corrupt sources, so the
     whole space is honest-equivalent. *)
  let inst0 = { inst with Bacheck.Explore.budget = 0 } in
  let findings0, _ =
    Bacheck.Explore.dfs
      ~space:(Bacheck.Explore.default_space ~max_round:1)
      inst0
  in
  Alcotest.(check int) "budget 0: no findings" 0 (List.length findings0)

(* --- minimizer ------------------------------------------------------------ *)

let test_minimizer_preserves_violation () =
  let inst = e1_instance () in
  (* The E1 needle padded with junk: a redundant third corruption
     attempt (over budget, skipped by the interpreter), a duplicate
     false ACK aimed at the lower half (which never reaches the honest
     node), and an inert late-round halt marker. Minimization must
     strip the junk and keep a violating core. *)
  let padded =
    { Schedule.name = "padded-e1";
      model = Corruption.Adaptive;
      setup = [];
      steps =
        [ (0, [ Schedule.Corrupt 0; Schedule.Corrupt 1; Schedule.Corrupt 2 ]);
          ( 1,
            [ Schedule.Inject
                { src = 0; kind = "ack"; bit = false; dst = Schedule.Everyone };
              Schedule.Inject
                { src = 1; kind = "ack"; bit = false; dst = Schedule.Everyone };
              Schedule.Inject
                { src = 0;
                  kind = "ack";
                  bit = false;
                  dst = Schedule.Lower_half }
            ] );
          (3, [ Schedule.Halt ]) ] }
  in
  Alcotest.(check bool)
    "padded schedule violates" true
    (Bacheck.Explore.violates (Bacheck.Explore.run_schedule inst padded));
  let min_sched = Bacheck.Explore.minimize inst padded in
  Alcotest.(check bool)
    "minimized still violates" true
    (Bacheck.Explore.violates (Bacheck.Explore.run_schedule inst min_sched));
  Alcotest.(check bool)
    (Printf.sprintf "minimized is smaller: %d < %d" (schedule_size min_sched)
       (schedule_size padded))
    true
    (schedule_size min_sched < schedule_size padded);
  (* A non-violating schedule comes back unchanged. *)
  let benign =
    { Schedule.name = "benign";
      model = Corruption.Adaptive;
      setup = [];
      steps = [ (0, [ Schedule.Corrupt 0 ]) ] }
  in
  Alcotest.(check bool)
    "benign schedule untouched" true
    (Bacheck.Explore.minimize inst benign = benign)

(* --- determinism ----------------------------------------------------------- *)

let findings_fingerprint (findings, stats) =
  Baobs.Json.to_string
    (Baobs.Json.Obj
       [ ("findings",
          Baobs.Json.List (List.map Bacheck.Explore.finding_to_json findings));
         ("stats", Bacheck.Explore.stats_to_json stats) ])

let test_dfs_deterministic () =
  let space = Bacheck.Explore.default_space ~max_round:1 in
  let run () = Bacheck.Explore.dfs ~space (e1_instance ()) in
  Alcotest.(check string)
    "two DFS runs, identical findings JSON"
    (findings_fingerprint (run ()))
    (findings_fingerprint (run ()))

let test_random_search_deterministic_and_finds () =
  (* A 2-action needle random search can realistically hit: one
     committee member, corrupt it, inject one forged Result. *)
  let inst =
    { (e8_instance ()) with
      Bacheck.Explore.protocol =
        Babaselines.Static_committee.protocol ~committee_size:1;
      n = 3;
      budget = 1;
      inputs = Scenario.unanimous_inputs ~n:3 false;
      exec_seed = 5L }
  in
  let space = Bacheck.Explore.default_space ~max_round:1 in
  let run () =
    Bacheck.Explore.random_search ~space ~samples:3000 ~seed:5L inst
  in
  let (findings, _) as first = run () in
  Alcotest.(check bool) "random search finds the 2-action needle" true
    (findings <> []);
  Alcotest.(check string)
    "two random runs, identical findings JSON" (findings_fingerprint first)
    (findings_fingerprint (run ()))

(* --- report items ---------------------------------------------------------- *)

let test_report_items_shape () =
  let inst = e1_instance () in
  let findings, _ =
    Bacheck.Explore.dfs ~space:(Bacheck.Explore.default_space ~max_round:1) inst
  in
  let items = Bacheck.Explore.to_report_items findings in
  Alcotest.(check int) "one item per finding" (List.length findings)
    (List.length items);
  List.iter
    (fun item ->
      Alcotest.(check string) "label" "validity" item.Bacheck.Report.label)
    items;
  let json = Bacheck.Report.to_json ~tool:"test" items in
  Alcotest.(check string)
    "findings schema" "ba-findings/v1"
    (Baobs.Json.as_string (Baobs.Json.member_exn "schema" json))

(* --- through the CLI ---------------------------------------------------------- *)

(* [run exe args]: the exit code; stdout and stderr are discarded. *)
let run exe args =
  Sys.command (Printf.sprintf "../bin/%s.exe %s >/dev/null 2>&1" exe args)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [f] gets [k] fresh temporary paths, removed afterwards. *)
let with_paths k f =
  let paths = List.init k (fun _ -> Filename.temp_file "explore" ".json") in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
    (fun () -> f paths)

let q = Filename.quote

let e1_cli =
  "--protocol sub-third -n 3 --budget 2 --lambda 3 --epochs 2 --inputs ones \
   --seed 7"

(* The E1-class DFS search: exit 2, its findings, minimized schedule and
   counterexample trace at the paths [f] gets. *)
let with_e1_search f =
  with_paths 3 (function
    | [ findings; schedule; trace ] ->
        Alcotest.(check int) "violation found" 2
          (run "ba_explore"
             (Printf.sprintf
                "%s --max-rounds 2 --format json -o %s --schedule-json %s \
                 --trace-jsonl %s"
                e1_cli (q findings) (q schedule) (q trace)));
        f ~findings ~schedule ~trace
    | _ -> assert false)

let names_validity findings =
  let text = read_file findings and sub = {|"violations":["validity"]|} in
  let rec at i =
    i + String.length sub <= String.length text
    && (String.sub text i (String.length sub) = sub || at (i + 1))
  in
  Alcotest.(check bool) "violations: validity" true (at 0)

let test_cli_e1_search () =
  with_e1_search (fun ~findings ~schedule:_ ~trace:_ -> names_validity findings)

let test_cli_e8_search () =
  with_paths 1 (fun paths ->
      let findings = List.hd paths in
      Alcotest.(check int) "violation found" 2
        (run "ba_explore"
           ("--protocol static-committee -n 5 --budget 2 --committee 3 \
             --inputs zeros --seed 7 --max-rounds 2 --format json -o "
           ^ q findings));
      names_validity findings)

(* The counterexample stays within its declared model: its trace passes
   both analyzers' checks. *)
let test_cli_e1_trace () =
  with_e1_search (fun ~findings:_ ~schedule:_ ~trace ->
      Alcotest.(check int) "report --check" 0
        (run "ba_obs" ("report " ^ q trace ^ " --check"));
      Alcotest.(check int) "causal --check" 0
        (run "ba_obs" ("causal " ^ q trace ^ " --check")))

let test_cli_e1_replay () =
  with_e1_search (fun ~findings:_ ~schedule ~trace:_ ->
      Alcotest.(check int) "same verdict" 2
        (run "ba_explore" (e1_cli ^ " --replay " ^ q schedule)))

(* The E1 schedule plus a removal its adaptive model forbids: the replay
   skips it, breaks validity as before, and leaves a trace the verifier
   accepts. *)
let test_cli_e1_remove_replay () =
  with_paths 2 (function
    | [ schedule; trace ] ->
        Out_channel.with_open_bin schedule (fun oc ->
            output_string oc
              (e1_document ~model:"adaptive" ~setup:""
                 ~round0:
                   [ corrupt 0; corrupt 1;
                     {|{"op":"remove","victim":0,"index":0}|} ]));
        Alcotest.(check int) "replay verdict" 2
          (run "ba_explore"
             (Printf.sprintf "%s --replay %s --trace-jsonl %s" e1_cli
                (q schedule) (q trace)));
        Alcotest.(check int) "report --check" 0
          (run "ba_obs" ("report " ^ q trace ^ " --check"))
    | _ -> assert false)

(* --- harness --------------------------------------------------------------- *)

let () =
  Alcotest.run "explore"
    [ ( "schedule-codec",
        List.map
          (QCheck_alcotest.to_alcotest
             ~rand:(Random.State.make [| 0xba004 |]))
          roundtrip_tests );
      ( "interpreter",
        [ Alcotest.test_case "transcribed split-vote is byte-identical" `Slow
            test_transcription_equivalence;
          Alcotest.test_case "out-of-range injection target skipped" `Quick
            test_out_of_range_injection_skipped;
          Alcotest.test_case "adaptive remove skipped" `Quick
            (test_skips_forbidden ~model:"adaptive" ~setup:""
               ~round0:[ corrupt 0; corrupt 1 ]
               ~extra:{|{"op":"remove","victim":0,"index":0}|});
          Alcotest.test_case "static mid-round corrupt skipped" `Quick
            (test_skips_forbidden ~model:"static" ~setup:"0" ~round0:[]
               ~extra:(corrupt 1)) ] );
      ( "rediscovery",
        [ Alcotest.test_case "DFS rediscovers E1-class break" `Slow
            test_dfs_rediscovers_e1;
          Alcotest.test_case "DFS rediscovers E8-class break" `Slow
            test_dfs_rediscovers_e8;
          Alcotest.test_case "trivial budgets: clean" `Quick
            test_exhaustive_trivial_budgets_clean ] );
      ( "minimizer",
        [ Alcotest.test_case "preserves violation, shrinks" `Quick
            test_minimizer_preserves_violation ] );
      ( "determinism",
        [ Alcotest.test_case "DFS deterministic" `Slow test_dfs_deterministic;
          Alcotest.test_case "random search deterministic and productive"
            `Slow test_random_search_deterministic_and_finds ] );
      ( "report",
        [ Alcotest.test_case "report items and JSON shape" `Quick
            test_report_items_shape ] );
      ( "ba_explore",
        [ Alcotest.test_case "E1 search finds validity" `Quick
            test_cli_e1_search;
          Alcotest.test_case "E8 search finds validity" `Quick
            test_cli_e8_search;
          Alcotest.test_case "E1 trace passes both checks" `Quick
            test_cli_e1_trace;
          Alcotest.test_case "E1 schedule replays" `Quick test_cli_e1_replay;
          Alcotest.test_case "E1 plus a removal replays" `Quick
            test_cli_e1_remove_replay ] ) ]
