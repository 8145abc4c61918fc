(* Tests for the synchronous engine: delivery discipline, the three
   corruption models, budget enforcement, metrics, and property checking.
   Uses a tiny two-round "flood majority" protocol: round 0 every node
   multicasts its input; round 1 every node outputs the majority bit. *)

open Basim

type flood_msg = Bit of bool

type flood_state = {
  input : bool;
  mutable received : (int * bool) list;
  mutable out : bool option;
  mutable stopped : bool;
}

let flood : (unit, flood_state, flood_msg) Engine.protocol =
  { Engine.proto_name = "flood";
    make_env = (fun ~n:_ _ -> ());
    init =
      (fun () ~rng:_ ~n:_ ~me:_ ~input ->
        { input; received = []; out = None; stopped = false });
    step =
      (fun () state ~round ~inbox ->
        if round = 0 then (state, [ Engine.multicast (Bit state.input) ])
        else begin
          state.received <-
            List.map (fun (src, Bit b) -> (src, b)) inbox;
          let ones = List.length (List.filter (fun (_, b) -> b) state.received) in
          let zeros = List.length state.received - ones in
          state.out <- Some (ones > zeros);
          state.stopped <- true;
          (state, [])
        end);
    output = (fun s -> s.out);
    halted = (fun s -> s.stopped);
    msg_bits = (fun () _ -> 1) }

let run_flood ?(n = 5) ?(budget = 0) ?(inputs = [| true; true; true; false; false |])
    adversary =
  Engine.run flood ~adversary ~n ~budget ~inputs ~max_rounds:10 ~seed:1L

let passive model = Engine.passive ~name:"passive" ~model

(* --- Basic delivery ----------------------------------------------------- *)

let test_passive_majority () =
  let result = run_flood (passive Corruption.Adaptive) in
  Array.iter
    (fun out -> Alcotest.(check (option bool)) "majority true" (Some true) out)
    result.Engine.outputs;
  Alcotest.(check bool) "all decided" true result.Engine.all_honest_decided;
  Alcotest.(check int) "two rounds" 2 result.Engine.rounds_used

let test_metrics_counts () =
  let result = run_flood (passive Corruption.Adaptive) in
  let m = result.Engine.metrics in
  Alcotest.(check int) "five multicasts" 5 (Metrics.honest_multicasts m);
  Alcotest.(check int) "five bits" 5 (Metrics.honest_multicast_bits m);
  Alcotest.(check int) "classical msgs = 25" 25 (Metrics.classical_messages m);
  Alcotest.(check int) "no removals" 0 (Metrics.removals m);
  Alcotest.(check int) "no injections" 0 (Metrics.injections m)

let test_self_delivery () =
  (* Multicasts are delivered to everyone including the sender. *)
  let result = run_flood (passive Corruption.Adaptive) in
  Alcotest.(check bool) "decided from 5 inputs incl. self" true
    result.Engine.all_honest_decided

let test_set_intra_jobs_stub () =
  Engine.set_intra_jobs 1;
  Alcotest.check_raises "2 rejected"
    (Invalid_argument
       "Engine.set_intra_jobs: the engine is sequential; only 1 is accepted")
    (fun () -> Engine.set_intra_jobs 2)

let test_deterministic_in_seed () =
  let r1 = run_flood (passive Corruption.Adaptive) in
  let r2 = run_flood (passive Corruption.Adaptive) in
  Alcotest.(check bool) "same outputs" true (r1.Engine.outputs = r2.Engine.outputs)

(* --- Corruption models --------------------------------------------------- *)

let corrupt_then_remove_adversary model =
  { Engine.adv_name = "remove-0";
    model;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
    intervene =
      (fun view ->
        if view.Engine.round = 0 then
          [ Engine.Corrupt 0; Engine.Remove { victim = 0; index = 0 } ]
        else []) }

let test_adaptive_cannot_remove () =
  Alcotest.check_raises "removal rejected"
    (Engine.Illegal_action
       "after-the-fact removal requires a strongly adaptive adversary")
    (fun () ->
      ignore
        (run_flood ~budget:1 (corrupt_then_remove_adversary Corruption.Adaptive)))

let test_strongly_adaptive_removes () =
  (* Node 0 (input true) is erased: remaining votes 2 true / 2 false →
     majority strictly-greater fails → everyone outputs false. *)
  let result =
    run_flood ~budget:1 (corrupt_then_remove_adversary Corruption.Strongly_adaptive)
  in
  Alcotest.(check int) "one removal" 1 (Metrics.removals result.Engine.metrics);
  Array.iteri
    (fun i out ->
      if not result.Engine.corrupt.(i) then
        Alcotest.(check (option bool)) "flipped majority" (Some false) out)
    result.Engine.outputs

let test_adaptive_corruption_keeps_intent () =
  (* Merely adaptive corruption of node 0 mid-round 0: its multicast still
     goes out, so the majority stays true. *)
  let adversary =
    { Engine.adv_name = "corrupt-only";
      model = Corruption.Adaptive;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
      intervene =
        (fun view ->
          if view.Engine.round = 0 then [ Engine.Corrupt 0 ] else []) }
  in
  let result = run_flood ~budget:1 adversary in
  Array.iteri
    (fun i out ->
      if not result.Engine.corrupt.(i) then
        Alcotest.(check (option bool)) "majority intact" (Some true) out)
    result.Engine.outputs

let test_remove_requires_corrupt_victim () =
  let adversary =
    { Engine.adv_name = "remove-honest";
      model = Corruption.Strongly_adaptive;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
      intervene =
        (fun view ->
          if view.Engine.round = 0 then
            [ Engine.Remove { victim = 0; index = 0 } ]
          else []) }
  in
  Alcotest.check_raises "honest victim rejected"
    (Engine.Illegal_action
       "cannot remove messages of an honest node (corrupt it first)")
    (fun () -> ignore (run_flood ~budget:1 adversary))

let test_budget_enforced () =
  let adversary =
    { Engine.adv_name = "over-budget";
      model = Corruption.Adaptive;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
      intervene =
        (fun view ->
          if view.Engine.round = 0 then [ Engine.Corrupt 0; Engine.Corrupt 1 ]
          else []) }
  in
  Alcotest.check_raises "budget" (Engine.Illegal_action "corruption budget exhausted")
    (fun () -> ignore (run_flood ~budget:1 adversary))

let test_static_cannot_corrupt_midway () =
  let adversary =
    { Engine.adv_name = "static-late";
      model = Corruption.Static;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
      intervene =
        (fun view -> if view.Engine.round = 0 then [ Engine.Corrupt 0 ] else []) }
  in
  Alcotest.check_raises "static mid-run corruption rejected"
    (Engine.Illegal_action "static adversary cannot corrupt mid-execution")
    (fun () -> ignore (run_flood ~budget:1 adversary))

let test_static_setup_corruption_silences_node () =
  let adversary =
    { Engine.adv_name = "static-setup";
      model = Corruption.Static;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 0 ]);
      intervene = (fun _ -> []) }
  in
  let result = run_flood ~budget:1 adversary in
  (* Node 0 (input true) never spoke: 2 true vs 2 false → false. *)
  Array.iteri
    (fun i out ->
      if not result.Engine.corrupt.(i) then
        Alcotest.(check (option bool)) "node 0 silenced" (Some false) out)
    result.Engine.outputs;
  Alcotest.(check int) "four multicasts" 4
    (Metrics.honest_multicasts result.Engine.metrics)

let test_injection_requires_corrupt_source () =
  let adversary =
    { Engine.adv_name = "spoof";
      model = Corruption.Adaptive;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
      intervene =
        (fun view ->
          if view.Engine.round = 0 then
            [ Engine.Inject { src = 0; dst = Engine.All; payload = Bit false } ]
          else []) }
  in
  Alcotest.check_raises "spoofing rejected"
    (Engine.Illegal_action "only corrupt nodes can be driven by the adversary")
    (fun () -> ignore (run_flood ~budget:1 adversary))

(* Delivery skips ids outside [0, n), so an injection naming one would be
   traced with more recipients than it reached; the engine refuses it. *)
let test_injection_target_out_of_range () =
  let adversary =
    { Engine.adv_name = "stray-target";
      model = Corruption.Adaptive;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 0 ]);
      intervene =
        (fun view ->
          if view.Engine.round = 0 then
            [ Engine.Inject { src = 0; dst = Engine.Only [ 1; 5 ]; payload = Bit true } ]
          else []) }
  in
  Alcotest.check_raises "target 5 of n = 5 rejected"
    (Engine.Illegal_action "inject target out of range: 5")
    (fun () -> ignore (run_flood ~budget:1 adversary))

let test_equivocation_via_targeted_injection () =
  (* Corrupt node 0 tells half the nodes true, the other half false,
     splitting the 2-2 remainder: outputs disagree → consistency fails. *)
  let adversary =
    { Engine.adv_name = "equivocator";
      model = Corruption.Adaptive;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 0 ]);
      intervene =
        (fun view ->
          if view.Engine.round = 0 then
            [ Engine.Inject { src = 0; dst = Engine.Only [ 1; 2 ]; payload = Bit true };
              Engine.Inject { src = 0; dst = Engine.Only [ 3; 4 ]; payload = Bit false } ]
          else []) }
  in
  let result = run_flood ~budget:1 ~inputs:[| true; true; true; false; false |] adversary in
  Alcotest.(check (option bool)) "node 1 sees 3 true" (Some true)
    result.Engine.outputs.(1);
  Alcotest.(check (option bool)) "node 3 sees 2-3" (Some false)
    result.Engine.outputs.(3);
  let verdict =
    Properties.agreement ~inputs:[| true; true; true; false; false |] result
  in
  Alcotest.(check bool) "consistency violated" false verdict.Properties.consistent

(* --- Engine refusals -------------------------------------------------------- *)

(* The model checks in [Engine.run_env] are the adversary's whole
   contract; each refusal is pinned by its exact message. [scripted]
   corrupts [setup] before round 0 and plays [acts] in round 0. *)
let scripted ?(setup = []) acts =
  { Engine.adv_name = "scripted";
    model = Corruption.Strongly_adaptive;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> setup);
    intervene = (fun view -> if view.Engine.round = 0 then acts else []) }

let refuses msg adversary () =
  Alcotest.check_raises msg (Engine.Illegal_action msg) (fun () ->
      ignore (run_flood ~budget:1 adversary))

let refusal_cases =
  [ ( "setup out of range",
      refuses "setup corruption out of range: 5" (scripted ~setup:[ 5 ] []) );
    ( "setup over budget",
      refuses "setup corruptions exceed budget" (scripted ~setup:[ 0; 1 ] []) );
    ( "corrupt out of range",
      refuses "corrupt out of range: -1" (scripted [ Engine.Corrupt (-1) ]) );
    ( "remove past intents",
      refuses "no intent 1 for node 0 in round 0"
        (scripted
           [ Engine.Corrupt 0; Engine.Remove { victim = 0; index = 1 } ]) );
    ( "remove twice",
      refuses "intent already erased"
        (scripted
           [ Engine.Corrupt 0;
             Engine.Remove { victim = 0; index = 0 };
             Engine.Remove { victim = 0; index = 0 } ]) );
    ( "inject src out of range",
      refuses "inject src out of range: 5"
        (scripted
           [ Engine.Inject { src = 5; dst = Engine.All; payload = Bit true } ]) ) ]

(* --- Properties ---------------------------------------------------------- *)

let test_agreement_validity_unanimous () =
  let inputs = Array.make 5 true in
  let result = run_flood ~inputs (passive Corruption.Adaptive) in
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "ok" true (Properties.ok verdict)

let test_agreement_validity_vacuous_on_mixed () =
  let inputs = [| true; true; true; false; false |] in
  let result = run_flood ~inputs (passive Corruption.Adaptive) in
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "valid (vacuous)" true verdict.Properties.valid

let test_broadcast_validity () =
  let inputs = [| true; true; true; false; false |] in
  let result = run_flood ~inputs (passive Corruption.Adaptive) in
  (* Sender 0 input true; flood outputs true → broadcast-valid. *)
  let verdict = Properties.broadcast ~sender:0 ~input:true result in
  Alcotest.(check bool) "valid" true verdict.Properties.valid;
  let verdict' = Properties.broadcast ~sender:3 ~input:false result in
  Alcotest.(check bool) "invalid for sender 3" false verdict'.Properties.valid

let test_validity_ignores_corrupt_inputs () =
  (* Corrupt node 4 holds the only 'false' input: remaining honest inputs
     are unanimous true, outputs are true → valid. *)
  let inputs = [| true; true; true; true; false |] in
  let adversary =
    { Engine.adv_name = "corrupt-4";
      model = Corruption.Static;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 4 ]);
      intervene = (fun _ -> []) }
  in
  let result = run_flood ~budget:1 ~inputs adversary in
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "valid over honest inputs" true verdict.Properties.valid;
  Alcotest.(check bool) "consistent" true verdict.Properties.consistent

(* --- Trace ------------------------------------------------------------------ *)

let test_trace_passive_run () =
  let c = Trace.collector () in
  let inputs = [| true; true; true; false; false |] in
  let _ =
    Engine.run ~tracer:(Trace.observe c) flood
      ~adversary:(passive Corruption.Adaptive) ~n:5 ~budget:0 ~inputs
      ~max_rounds:10 ~seed:1L
  in
  let is_sent = function Trace.Sent _ -> true | _ -> false in
  let is_halt = function Trace.Halted _ -> true | _ -> false in
  let is_round = function Trace.Round_started _ -> true | _ -> false in
  Alcotest.(check int) "five sends" 5 (Trace.count c is_sent);
  Alcotest.(check int) "five halts" 5 (Trace.count c is_halt);
  Alcotest.(check int) "two rounds" 2 (Trace.count c is_round);
  Alcotest.(check bool) "render non-empty" true
    (String.length (Trace.render c) > 0)

let test_trace_attack_events () =
  let c = Trace.collector () in
  let inputs = [| true; true; true; false; false |] in
  let _ =
    Engine.run ~tracer:(Trace.observe c) flood
      ~adversary:(corrupt_then_remove_adversary Corruption.Strongly_adaptive)
      ~n:5 ~budget:1 ~inputs ~max_rounds:10 ~seed:1L
  in
  Alcotest.(check int) "one corruption" 1
    (Trace.count c (function Trace.Corrupted _ -> true | _ -> false));
  Alcotest.(check int) "one removal" 1
    (Trace.count c (function Trace.Removed _ -> true | _ -> false));
  (* The erased send must NOT appear as a Sent event. *)
  Alcotest.(check int) "four surviving sends" 4
    (Trace.count c (function Trace.Sent _ -> true | _ -> false))

let test_trace_injection_events () =
  let adversary =
    { Engine.adv_name = "injector";
      model = Corruption.Adaptive;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 0 ]);
      intervene =
        (fun view ->
          if view.Engine.round = 0 then
            [ Engine.Inject { src = 0; dst = Engine.Only [ 1 ]; payload = Bit true } ]
          else []) }
  in
  let c = Trace.collector () in
  let inputs = [| true; true; true; false; false |] in
  let _ =
    Engine.run ~tracer:(Trace.observe c) flood ~adversary ~n:5 ~budget:1
      ~inputs ~max_rounds:10 ~seed:1L
  in
  let injections =
    List.filter_map
      (function
        | Trace.Injected { recipients; _ } -> Some recipients
        | _ -> None)
      (Trace.events c)
  in
  Alcotest.(check (list int)) "one targeted injection" [ 1 ] injections;
  Alcotest.(check int) "setup corruption traced" 1
    (Trace.count c (function
      | Trace.Corrupted { round = -1; _ } -> true
      | _ -> false))

let test_metrics_pp_and_rounds () =
  let m = Metrics.create ~n:4 in
  List.iter (Metrics.observe m)
    [ Trace.Round_started { round = 3 };
      Trace.Sent
        { round = 3; node = 0; multicast = true; recipients = 4; bits = 10;
          id = Trace.no_id; kind = Trace.no_kind; targets = [] };
      Trace.Sent
        { round = 3; node = 1; multicast = false; recipients = 2; bits = 5;
          id = Trace.no_id; kind = Trace.no_kind; targets = [] } ];
  Alcotest.(check int) "rounds = max+1" 4 (Metrics.rounds m);
  Alcotest.(check int) "classical msgs: 1·4 + 2" 6 (Metrics.classical_messages m);
  Alcotest.(check int) "classical bits: 10·4 + 10" 50 (Metrics.classical_bits m);
  let rendered = Format.asprintf "%a" Metrics.pp m in
  Alcotest.(check bool) "pp mentions multicasts" true
    (String.length rendered > 0)

let test_trace_render_caps_rounds () =
  let c = Trace.collector () in
  for r = 0 to 59 do
    Trace.observe c (Trace.Round_started { round = r })
  done;
  let rendered = Trace.render ~max_rounds:10 c in
  Alcotest.(check bool) "elision notice present" true
    (let needle = "elided" in
     let rec contains i =
       i + String.length needle <= String.length rendered
       && (String.sub rendered i (String.length needle) = needle
          || contains (i + 1))
     in
     contains 0)

(* --- Corruption tracker --------------------------------------------------- *)

let test_tracker_budget () =
  let t = Corruption.create ~n:5 ~budget:2 in
  Alcotest.(check int) "budget" 2 (Corruption.budget t);
  Alcotest.(check bool) "first" true (Corruption.corrupt_now t ~round:0 1);
  Alcotest.(check bool) "second" true (Corruption.corrupt_now t ~round:1 2);
  Alcotest.(check bool) "third fails" false (Corruption.corrupt_now t ~round:2 3);
  Alcotest.(check bool) "idempotent re-corrupt" true
    (Corruption.corrupt_now t ~round:3 1);
  Alcotest.(check int) "count" 2 (Corruption.count t);
  Alcotest.(check (list int)) "list" [ 1; 2 ] (Corruption.corrupt_list t);
  Alcotest.(check (option int)) "round recorded" (Some 1)
    (Corruption.corrupt_round t 2)

let test_tracker_models () =
  Alcotest.(check bool) "static no removal" false
    (Corruption.allows_removal Corruption.Static);
  Alcotest.(check bool) "adaptive no removal" false
    (Corruption.allows_removal Corruption.Adaptive);
  Alcotest.(check bool) "strongly adaptive removal" true
    (Corruption.allows_removal Corruption.Strongly_adaptive);
  Alcotest.(check bool) "static no dynamic" false
    (Corruption.allows_dynamic_corruption Corruption.Static)

(* --- Scenario -------------------------------------------------------------- *)

let test_input_generators () =
  Alcotest.(check (array bool)) "unanimous" [| true; true; true |]
    (Scenario.unanimous_inputs ~n:3 true);
  let split = Scenario.split_inputs ~n:4 in
  Alcotest.(check (array bool)) "split" [| false; false; true; true |] split

(* --- Randomized adversary fuzz (QCheck) ------------------------------------- *)

(* A random-but-legal adversary: each round it may corrupt a random node,
   inject from an already-corrupt node, and (in the strongly adaptive
   model) erase a fresh intent of a just-corrupted node.  The engine must
   never raise on legal schedules and must keep its accounting invariants. *)
let fuzz_adversary ~plan ~model =
  { Engine.adv_name = "fuzz";
    model;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
    intervene =
      (fun view ->
        let actions = ref [] in
        (* Local accounting: corruptions planned within this intervention
           also consume budget, and a node planned twice is planned once. *)
        let planned = ref [] in
        let removed = ref [] in
        let corruptable node =
          (not (Corruption.is_corrupt view.Engine.tracker node))
          && (not (List.mem node !planned))
          && Corruption.budget_left view.Engine.tracker > List.length !planned
        in
        let is_ours node =
          Corruption.is_corrupt view.Engine.tracker node || List.mem node !planned
        in
        List.iter
          (fun (round, node, kind) ->
            if round = view.Engine.round then begin
              match kind with
              | `Corrupt ->
                  if corruptable node then begin
                    planned := node :: !planned;
                    actions := Engine.Corrupt node :: !actions
                  end
              | `Inject ->
                  if is_ours node then
                    actions :=
                      Engine.Inject
                        { src = node; dst = Engine.All; payload = Bit false }
                      :: !actions
              | `Corrupt_and_remove ->
                  if
                    corruptable node
                    && Corruption.allows_removal model
                    && not (List.mem node !removed)
                  then begin
                    if view.Engine.intents.(node) <> [] then begin
                      planned := node :: !planned;
                      removed := node :: !removed;
                      actions :=
                        Engine.Remove { victim = node; index = 0 }
                        :: Engine.Corrupt node :: !actions
                    end
                  end
            end)
          plan;
        List.rev !actions) }

let qcheck_fuzz =
  let open QCheck in
  let action_gen =
    Gen.(
      triple (0 -- 2) (0 -- 4)
        (oneofl [ `Corrupt; `Inject; `Corrupt_and_remove ]))
  in
  [ Test.make ~name:"engine invariants under random legal adversaries" ~count:150
      (pair (make Gen.(list_size (0 -- 12) action_gen)) (int_range 0 3))
      (fun (plan, budget) ->
        let inputs = [| true; true; true; false; false |] in
        let result =
          Engine.run flood
            ~adversary:(fuzz_adversary ~plan ~model:Corruption.Strongly_adaptive)
            ~n:5 ~budget ~inputs ~max_rounds:10 ~seed:1L
        in
        result.Engine.corruptions <= budget
        && Metrics.removals result.Engine.metrics <= result.Engine.corruptions
        && result.Engine.rounds_used <= 10);
    Test.make ~name:"adaptive fuzz never removes" ~count:150
      (make Gen.(list_size (0 -- 12) action_gen))
      (fun plan ->
        let inputs = [| true; true; true; false; false |] in
        let result =
          Engine.run flood
            ~adversary:(fuzz_adversary ~plan ~model:Corruption.Adaptive)
            ~n:5 ~budget:3 ~inputs ~max_rounds:10 ~seed:1L
        in
        Metrics.removals result.Engine.metrics = 0);
  ]

let () =
  Alcotest.run "sim"
    [ ( "delivery",
        [ Alcotest.test_case "passive majority" `Quick test_passive_majority;
          Alcotest.test_case "metrics" `Quick test_metrics_counts;
          Alcotest.test_case "self delivery" `Quick test_self_delivery;
          Alcotest.test_case "deterministic" `Quick test_deterministic_in_seed;
          Alcotest.test_case "set_intra_jobs accepts only 1" `Quick
            test_set_intra_jobs_stub ] );
      ( "corruption-models",
        [ Alcotest.test_case "adaptive cannot remove" `Quick test_adaptive_cannot_remove;
          Alcotest.test_case "strongly adaptive removes" `Quick test_strongly_adaptive_removes;
          Alcotest.test_case "adaptive keeps intent" `Quick test_adaptive_corruption_keeps_intent;
          Alcotest.test_case "remove needs corrupt victim" `Quick test_remove_requires_corrupt_victim;
          Alcotest.test_case "budget enforced" `Quick test_budget_enforced;
          Alcotest.test_case "static cannot corrupt midway" `Quick test_static_cannot_corrupt_midway;
          Alcotest.test_case "static setup corruption" `Quick test_static_setup_corruption_silences_node;
          Alcotest.test_case "injection needs corrupt src" `Quick test_injection_requires_corrupt_source;
          Alcotest.test_case "injection target out of range" `Quick test_injection_target_out_of_range;
          Alcotest.test_case "targeted equivocation" `Quick test_equivocation_via_targeted_injection ]
        @ List.map
            (fun (name, case) -> Alcotest.test_case name `Quick case)
            refusal_cases );
      ( "properties",
        [ Alcotest.test_case "unanimous validity" `Quick test_agreement_validity_unanimous;
          Alcotest.test_case "mixed vacuous validity" `Quick test_agreement_validity_vacuous_on_mixed;
          Alcotest.test_case "broadcast validity" `Quick test_broadcast_validity;
          Alcotest.test_case "corrupt inputs excluded" `Quick test_validity_ignores_corrupt_inputs ] );
      ( "trace",
        [ Alcotest.test_case "metrics pp/rounds" `Quick test_metrics_pp_and_rounds;
          Alcotest.test_case "render caps rounds" `Quick test_trace_render_caps_rounds;
          Alcotest.test_case "passive run" `Quick test_trace_passive_run;
          Alcotest.test_case "attack events" `Quick test_trace_attack_events;
          Alcotest.test_case "injection events" `Quick test_trace_injection_events ] );
      ( "tracker",
        [ Alcotest.test_case "budget" `Quick test_tracker_budget;
          Alcotest.test_case "models" `Quick test_tracker_models ] );
      ( "scenario",
        [ Alcotest.test_case "input generators" `Quick test_input_generators ] );
      ( "fuzz",
        List.map
          (QCheck_alcotest.to_alcotest
             ~rand:(Random.State.make [| 0xba007 |]))
          qcheck_fuzz ) ]
