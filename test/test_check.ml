(* Tests for the Bacheck static-analysis layer: the trace-invariant
   verifier (clean seeded runs + hand-mutated negative traces), JSONL
   round-tripping, and the source lint. *)

open Basim
open Bacore

(* --- helpers ------------------------------------------------------------ *)

let collect_run proto ~adversary ~n ~budget ~inputs ~max_rounds ~seed =
  let c = Trace.collector () in
  let result =
    Engine.run ~tracer:(Trace.observe c) proto ~adversary ~n ~budget ~inputs
      ~max_rounds ~seed
  in
  (Trace.events c, result)

let assert_clean name findings =
  match findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s: expected clean trace, got %d finding(s), first: %a"
        name (List.length findings) Bacheck.Trace_lint.pp_finding f

let assert_finds name kind findings =
  if
    not
      (List.exists
         (fun f -> f.Bacheck.Trace_lint.kind = kind)
         findings)
  then
    Alcotest.failf "%s: expected a %s finding, got %d other(s)" name
      (Bacheck.Trace_lint.kind_name kind)
      (List.length findings)

(* --- verified-clean seeded runs (E1 / E2 / E8 style) -------------------- *)

let verify_run ?(name = "run") proto ~adversary ~n ~budget ~inputs ~max_rounds
    ~seed =
  let events, result =
    collect_run proto ~adversary ~n ~budget ~inputs ~max_rounds ~seed
  in
  let findings =
    Bacheck.Trace_lint.verify ~metrics:result.Engine.metrics
      ~model:adversary.Engine.model ~budget events
  in
  assert_clean name findings

let test_e1_strongly_adaptive_clean () =
  (* E1's headline row: sub-hm under the strongly adaptive eraser. *)
  let params = Params.make ~lambda:40 ~max_epochs:40 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  verify_run ~name:"sub-hm + eraser" proto
    ~adversary:(Baattacks.Eraser.make ())
    ~n:31 ~budget:7
    ~inputs:(Scenario.unanimous_inputs ~n:31 true)
    ~max_rounds:172 ~seed:3L

let test_e1_adaptive_clean () =
  (* Same protocol family under the merely adaptive silencer. *)
  let params = Params.make ~lambda:40 ~max_epochs:40 () in
  let proto = Warmup_third.protocol ~params in
  verify_run ~name:"warmup-third + silencer" proto
    ~adversary:(Baattacks.Eraser.silencer ())
    ~n:21 ~budget:5
    ~inputs:(Scenario.unanimous_inputs ~n:21 true)
    ~max_rounds:172 ~seed:1L

let test_e1_static_clean () =
  let params = Params.make ~lambda:40 ~max_epochs:40 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  verify_run ~name:"sub-hm + passive static" proto
    ~adversary:(Engine.passive ~name:"passive" ~model:Corruption.Static)
    ~n:31 ~budget:0
    ~inputs:(Scenario.random_inputs ~n:31 11L)
    ~max_rounds:172 ~seed:11L

let test_e2_scaling_clean () =
  (* E2 style: the quadratic baseline, passive adversary. *)
  let proto = Quadratic_hm.protocol () in
  verify_run ~name:"quadratic-hm + passive" proto
    ~adversary:(Engine.passive ~name:"passive" ~model:Corruption.Adaptive)
    ~n:41 ~budget:0
    ~inputs:(Scenario.random_inputs ~n:41 5L)
    ~max_rounds:172 ~seed:5L

let test_e8_takeover_clean () =
  (* E8: adaptive takeover of a public committee — heavy injection use. *)
  let proto = Babaselines.Static_committee.protocol ~committee_size:8 in
  verify_run ~name:"static-committee + takeover" proto
    ~adversary:(Baattacks.Takeover.make ~force:true ())
    ~n:60 ~budget:12
    ~inputs:(Scenario.unanimous_inputs ~n:60 false)
    ~max_rounds:6 ~seed:9L

(* --- hand-mutated negative traces --------------------------------------- *)

let sent ~round ~node =
  Trace.Sent
    { round; node; multicast = true; recipients = 6; bits = 8;
      id = Trace.no_id; kind = Trace.no_kind; targets = [] }

let removed ~round ~victim =
  Trace.Removed
    { round; victim; multicast = true; recipients = 6; bits = 8;
      id = Trace.no_id; kind = Trace.no_kind; targets = [] }

let verify ?metrics ~model ~budget events =
  Bacheck.Trace_lint.verify ?metrics ~model ~budget events

let test_neg_removal_without_model () =
  let events =
    [ Trace.Round_started { round = 0 };
      Trace.Corrupted { round = 0; node = 2 };
      removed ~round:0 ~victim:2 ]
  in
  let fs = verify ~model:Corruption.Adaptive ~budget:3 events in
  assert_finds "removal under adaptive" Bacheck.Trace_lint.Removal_without_model
    fs;
  (* the identical trace is legal for the strongly adaptive adversary *)
  assert_clean "same trace, strongly adaptive"
    (verify ~model:Corruption.Strongly_adaptive ~budget:3 events)

let test_neg_removal_of_uncorrupted () =
  let fs =
    verify ~model:Corruption.Strongly_adaptive ~budget:3
      [ Trace.Round_started { round = 0 }; removed ~round:0 ~victim:4 ]
  in
  assert_finds "honest victim" Bacheck.Trace_lint.Removal_of_uncorrupted fs

let test_neg_removal_outside_corruption_round () =
  (* Removal is only legal in the victim's corruption round. *)
  let fs =
    verify ~model:Corruption.Strongly_adaptive ~budget:3
      [ Trace.Round_started { round = 0 };
        Trace.Corrupted { round = 0; node = 2 };
        Trace.Round_started { round = 1 };
        removed ~round:1 ~victim:2 ]
  in
  assert_finds "stale corruption" Bacheck.Trace_lint.Removal_of_uncorrupted fs

let test_neg_over_budget () =
  let fs =
    verify ~model:Corruption.Adaptive ~budget:1
      [ Trace.Round_started { round = 0 };
        Trace.Corrupted { round = 0; node = 1 };
        Trace.Corrupted { round = 0; node = 2 } ]
  in
  assert_finds "budget 1, 2 corruptions" Bacheck.Trace_lint.Over_budget fs

let test_neg_sent_while_corrupt () =
  let fs =
    verify ~model:Corruption.Adaptive ~budget:2
      [ Trace.Round_started { round = 0 };
        Trace.Corrupted { round = 0; node = 2 };
        Trace.Round_started { round = 1 };
        sent ~round:1 ~node:2 ]
  in
  assert_finds "corrupt node sent" Bacheck.Trace_lint.Sent_while_corrupt fs

let test_corrupt_then_send_same_round_legal () =
  (* Engine phase order: a node corrupted in round r already produced its
     round-r send — that is legal and must not be flagged. *)
  assert_clean "same-round corrupt then send"
    (verify ~model:Corruption.Adaptive ~budget:2
       [ Trace.Round_started { round = 0 };
         Trace.Corrupted { round = 0; node = 2 };
         sent ~round:0 ~node:2 ])

let test_neg_event_after_halt () =
  let fs =
    verify ~model:Corruption.Adaptive ~budget:0
      [ Trace.Round_started { round = 0 };
        Trace.Halted { round = 0; node = 1; output = Some true };
        Trace.Round_started { round = 1 };
        sent ~round:1 ~node:1 ]
  in
  assert_finds "send after halt" Bacheck.Trace_lint.Event_after_halt fs

let test_neg_non_monotonic_round () =
  let fs =
    verify ~model:Corruption.Adaptive ~budget:0
      [ Trace.Round_started { round = 0 }; Trace.Round_started { round = 0 } ]
  in
  assert_finds "repeated round" Bacheck.Trace_lint.Non_monotonic_round fs

let test_neg_static_midround_corruption () =
  let fs =
    verify ~model:Corruption.Static ~budget:3
      [ Trace.Round_started { round = 0 };
        Trace.Corrupted { round = 0; node = 1 } ]
  in
  assert_finds "static corrupts mid-round"
    Bacheck.Trace_lint.Static_midround_corruption fs;
  (* setup-time corruption is what the static adversary is allowed *)
  assert_clean "static setup corruption"
    (verify ~model:Corruption.Static ~budget:3
       [ Trace.Corrupted { round = -1; node = 1 };
         Trace.Round_started { round = 0 } ])

let test_neg_injection_from_honest () =
  let fs =
    verify ~model:Corruption.Adaptive ~budget:2
      [ Trace.Round_started { round = 0 };
        Trace.Injected
          { round = 0; src = 4; recipients = 6; bits = -1; id = Trace.no_id;
            kind = Trace.no_kind; targets = [] } ]
  in
  assert_finds "injection from honest node"
    Bacheck.Trace_lint.Injection_from_honest fs

let test_neg_round_mismatch () =
  let fs =
    verify ~model:Corruption.Adaptive ~budget:0
      [ Trace.Round_started { round = 0 }; sent ~round:2 ~node:1 ]
  in
  assert_finds "event from the wrong round" Bacheck.Trace_lint.Round_mismatch fs

let test_neg_accounting_mismatch () =
  (* Take a real run, drop one Sent event: the reconstruction no longer
     matches the engine's Metrics. *)
  let params = Params.make ~lambda:40 ~max_epochs:40 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let adversary = Engine.passive ~name:"passive" ~model:Corruption.Adaptive in
  let events, result =
    collect_run proto ~adversary ~n:21 ~budget:0
      ~inputs:(Scenario.unanimous_inputs ~n:21 true)
      ~max_rounds:172 ~seed:2L
  in
  let dropped_one =
    let seen = ref false in
    List.filter
      (fun e ->
        match e with
        | Trace.Sent _ when not !seen ->
            seen := true;
            false
        | _ -> true)
      events
  in
  let fs =
    Bacheck.Trace_lint.verify ~metrics:result.Engine.metrics
      ~model:Corruption.Adaptive ~budget:0 dropped_one
  in
  assert_finds "dropped send breaks Definition-7 totals"
    Bacheck.Trace_lint.Accounting_mismatch fs

(* --- JSONL round-trip ---------------------------------------------------- *)

let event_gen =
  let open QCheck.Gen in
  let node = 0 -- 40 in
  let round = -1 -- 60 in
  let bits = 0 -- 2048 in
  (* Causal fields mix sentinels (the unlabeled legacy shape) with
     recorded values, so the round-trip covers both wire formats and
     every partial combination. *)
  let id = oneof [ return Trace.no_id; 0 -- 500 ] in
  let kind = oneofl [ Trace.no_kind; "propose"; "vote"; "status" ] in
  let targets = oneof [ return []; list_size (1 -- 4) node ] in
  oneof
    [ map (fun round -> Trace.Round_started { round }) (0 -- 60);
      map
        (fun ((round, node, multicast, recipients, bits), (id, kind, targets)) ->
          Trace.Sent { round; node; multicast; recipients; bits; id; kind; targets })
        (tup2 (tup5 round node bool (0 -- 41) bits) (tup3 id kind targets));
      map (fun (round, node) -> Trace.Corrupted { round; node })
        (tup2 round node);
      map
        (fun ((round, victim, multicast, recipients, bits), (id, kind, targets)) ->
          Trace.Removed
            { round; victim; multicast; recipients; bits; id; kind; targets })
        (tup2 (tup5 round node bool (0 -- 41) bits) (tup3 id kind targets));
      map
        (fun ((round, src, recipients, bits), (id, kind, targets)) ->
          Trace.Injected { round; src; recipients; bits; id; kind; targets })
        (tup2
           (tup4 round node (0 -- 41) (oneof [ return (-1); bits ]))
           (tup3 id kind targets));
      map
        (fun (round, node, output) -> Trace.Halted { round; node; output })
        (tup3 round node (option bool)) ]

let event_arbitrary =
  QCheck.make
    ~print:(fun e -> Baobs.Json.to_string (Trace.to_json e))
    event_gen

let roundtrip_prop e =
  let json_line = Baobs.Json.to_string (Trace.to_json e) in
  Trace.of_json (Baobs.Json.of_string json_line) = e

let roundtrip_tests =
  [ QCheck.Test.make ~name:"event → json → string → json → event" ~count:500
      event_arbitrary roundtrip_prop ]

let test_legacy_fixture_lints_clean () =
  (* A committed pre-causal trace: the file mode parses it with the
     sentinel defaults and the invariant verifier finds nothing. *)
  let events = Bacheck.Trace_lint.load_jsonl "fixtures/legacy_e1_trace.jsonl" in
  Alcotest.(check bool) "fixture nonempty" true (List.length events > 0);
  List.iter
    (fun e ->
      match Trace.message_id e with
      | Some id -> Alcotest.(check int) "legacy ids default to sentinel"
          Trace.no_id id
      | None -> ())
    events;
  assert_clean "legacy fixture"
    (Bacheck.Trace_lint.verify ~model:Corruption.Strongly_adaptive ~budget:3
       events)

let test_jsonl_tracer_roundtrip () =
  (* The streaming tracer's file format must re-parse into exactly the
     events the collector saw. *)
  let params = Params.make ~lambda:40 ~max_epochs:40 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let buf = Buffer.create 4096 in
  let sink = Baobs.Jsonl.to_buffer buf in
  let collector = Trace.collector () in
  let tracer e =
    Trace.observe collector e;
    Trace.jsonl_tracer sink e
  in
  let _result =
    Engine.run ~tracer proto
      ~adversary:(Baattacks.Eraser.make ())
      ~n:21 ~budget:5
      ~inputs:(Scenario.unanimous_inputs ~n:21 true)
      ~max_rounds:172 ~seed:4L
  in
  let reparsed = Trace.of_jsonl_string (Buffer.contents buf) in
  Alcotest.(check int)
    "same number of events"
    (List.length (Trace.events collector))
    (List.length reparsed);
  Alcotest.(check bool)
    "identical event streams" true
    (Trace.events collector = reparsed)

(* --- source lint --------------------------------------------------------- *)

let scan src = Bacheck.Source_lint.scan_source ~path:"lib/x/sample.ml" src

let rules fs = List.map (fun f -> f.Bacheck.Source_lint.rule) fs

let test_lint_blanking () =
  let src =
    "let x = (* compare (* nested *) \"inner \\\" compare\" *) \"compare\" \
     'c' 1"
  in
  Alcotest.(check int)
    "compare only in comments/strings: no findings" 0
    (List.length (scan src));
  let blanked = Bacheck.Source_lint.blank_comments_and_strings src in
  Alcotest.(check int)
    "blanking preserves length" (String.length src) (String.length blanked)

let rule_names src = List.map Bacheck.Source_lint.rule_name (rules (scan src))

let test_lint_poly_compare () =
  Alcotest.(check (list string))
    "bare compare flagged" [ "poly-compare" ]
    (rule_names "let xs = List.sort compare ys");
  Alcotest.(check int)
    "Int.compare is fine" 0
    (List.length (scan "let xs = List.sort Int.compare ys"));
  Alcotest.(check int)
    "Stdlib.compare flagged" 1
    (List.length (scan "let xs = List.sort Stdlib.compare ys"));
  Alcotest.(check int)
    "defining compare is fine" 0
    (List.length (scan "let compare a b = Int.compare a.id b.id"));
  Alcotest.(check int)
    "comment mention is fine" 0
    (List.length (scan "(* use compare here? no *) let x = 1"))

let test_lint_obj_magic_and_exit () =
  Alcotest.(check (list string))
    "Obj.magic flagged" [ "obj-magic" ]
    (List.map
       (fun f -> Bacheck.Source_lint.rule_name f.Bacheck.Source_lint.rule)
       (scan "let y = Obj.magic x"));
  Alcotest.(check (list string))
    "exit flagged" [ "stdlib-exit" ]
    (List.map
       (fun f -> Bacheck.Source_lint.rule_name f.Bacheck.Source_lint.rule)
       (scan "let () = if bad then exit 1"));
  Alcotest.(check int)
    "String literals do not trip" 0
    (List.length (scan "let s = \"Obj.magic exit compare\""))

let test_lint_hot_path () =
  let src =
    "let run () =\n\
    \  while !running do\n\
    \    if bad then failwith \"boom\";\n\
    \    step ()\n\
    \  done;\n\
    \  failwith \"after the loop is fine\"\n"
  in
  let engine_findings =
    Bacheck.Source_lint.scan_source ~path:"lib/sim/engine.ml" src
  in
  Alcotest.(check (list string))
    "failwith inside the loop, only" [ "failwith-hot-path" ]
    (List.map
       (fun f -> Bacheck.Source_lint.rule_name f.Bacheck.Source_lint.rule)
       engine_findings);
  Alcotest.(check int) "line number" 3
    (match engine_findings with f :: _ -> f.Bacheck.Source_lint.line | [] -> 0);
  Alcotest.(check int)
    "same code outside engine.ml is not hot-path" 0
    (List.length (Bacheck.Source_lint.scan_source ~path:"lib/x/other.ml" src))

let test_lint_repo_clean () =
  (* The repository itself must stay lint-clean — same gate as
     `dune build @lint`, runnable from the test tree. *)
  let root =
    (* tests run in _build/default/test; the project root is one up *)
    Filename.concat (Sys.getcwd ()) ".."
  in
  let findings = Bacheck.Source_lint.scan_tree ~root in
  match findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "repo has %d lint finding(s), first: %a"
        (List.length findings) Bacheck.Source_lint.pp_finding f

(* --- harness ------------------------------------------------------------- *)

let () =
  Alcotest.run "check"
    [ ( "clean-runs",
        [ Alcotest.test_case "E1 strongly adaptive" `Slow
            test_e1_strongly_adaptive_clean;
          Alcotest.test_case "E1 adaptive" `Slow test_e1_adaptive_clean;
          Alcotest.test_case "E1 static" `Slow test_e1_static_clean;
          Alcotest.test_case "E2 scaling" `Slow test_e2_scaling_clean;
          Alcotest.test_case "E8 takeover" `Quick test_e8_takeover_clean ] );
      ( "negative-traces",
        [ Alcotest.test_case "removal without model" `Quick
            test_neg_removal_without_model;
          Alcotest.test_case "removal of uncorrupted" `Quick
            test_neg_removal_of_uncorrupted;
          Alcotest.test_case "removal outside corruption round" `Quick
            test_neg_removal_outside_corruption_round;
          Alcotest.test_case "over budget" `Quick test_neg_over_budget;
          Alcotest.test_case "sent while corrupt" `Quick
            test_neg_sent_while_corrupt;
          Alcotest.test_case "same-round corrupt+send legal" `Quick
            test_corrupt_then_send_same_round_legal;
          Alcotest.test_case "event after halt" `Quick
            test_neg_event_after_halt;
          Alcotest.test_case "non-monotonic round" `Quick
            test_neg_non_monotonic_round;
          Alcotest.test_case "static midround corruption" `Quick
            test_neg_static_midround_corruption;
          Alcotest.test_case "injection from honest" `Quick
            test_neg_injection_from_honest;
          Alcotest.test_case "round mismatch" `Quick test_neg_round_mismatch;
          Alcotest.test_case "accounting mismatch" `Slow
            test_neg_accounting_mismatch ] );
      ( "jsonl-roundtrip",
        Alcotest.test_case "jsonl tracer reparses" `Slow
          test_jsonl_tracer_roundtrip
        :: Alcotest.test_case "legacy fixture replays clean" `Quick
             test_legacy_fixture_lints_clean
        :: List.map
             (QCheck_alcotest.to_alcotest
                ~rand:(Random.State.make [| 0xba002 |]))
             roundtrip_tests );
      ( "source-lint",
        [ Alcotest.test_case "blanking" `Quick test_lint_blanking;
          Alcotest.test_case "poly compare" `Quick test_lint_poly_compare;
          Alcotest.test_case "obj magic / exit" `Quick
            test_lint_obj_magic_and_exit;
          Alcotest.test_case "hot path" `Quick test_lint_hot_path;
          Alcotest.test_case "repo is lint-clean" `Quick test_lint_repo_clean ]
      ) ]
