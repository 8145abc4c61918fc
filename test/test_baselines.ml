(* Tests for the baseline/comparator protocols: Dolev–Strong, the static
   CRS committee, Nakamoto-style longest chain, and the sparse-relay
   Dolev–Reischuk victim. *)

open Basim
open Babaselines
module Common = Baexperiments.Common

let passive () = Engine.passive ~name:"passive" ~model:Corruption.Adaptive

(* --- Dolev–Strong ---------------------------------------------------- *)

let ds ~f = Dolev_strong.protocol ~sender:0 ~f

let test_ds_honest_sender () =
  List.iter
    (fun bit ->
      let inputs = Array.make 7 bit in
      let result =
        Engine.run (ds ~f:2) ~adversary:(passive ()) ~n:7 ~budget:0 ~inputs
          ~max_rounds:10 ~seed:1L
      in
      let verdict = Properties.broadcast ~sender:0 ~input:bit result in
      Alcotest.(check bool)
        (Printf.sprintf "broadcast of %b" bit)
        true (Properties.ok verdict))
    [ false; true ]

let test_ds_round_count () =
  let inputs = Array.make 7 true in
  let result =
    Engine.run (ds ~f:2) ~adversary:(passive ()) ~n:7 ~budget:0 ~inputs
      ~max_rounds:10 ~seed:2L
  in
  Alcotest.(check int) "f+3 rounds" 5 result.Engine.rounds_used

let test_ds_silent_sender_defaults () =
  let adversary =
    { Engine.adv_name = "silence-sender";
      model = Corruption.Static;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 0 ]);
      intervene = (fun _ -> []) }
  in
  let inputs = Array.make 7 true in
  let result =
    Engine.run (ds ~f:2) ~adversary ~n:7 ~budget:1 ~inputs ~max_rounds:10
      ~seed:3L
  in
  Array.iteri
    (fun i out ->
      if not result.Engine.corrupt.(i) then
        Alcotest.(check (option bool)) "default bit" (Some false) out)
    result.Engine.outputs

let test_ds_equivocating_sender_consistent () =
  (* A corrupt sender signs both bits and targets them at different
     halves; honest relaying makes everyone extract both bits by the end
     and fall back to the default — consistently. *)
  let adversary =
    { Engine.adv_name = "equivocating-sender";
      model = Corruption.Static;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 0 ]);
      intervene =
        (fun view ->
          if view.Engine.round = 0 then begin
            let env = view.Engine.env in
            let sign bit =
              Bacrypto.Signature.sign env.Dolev_strong.sigs ~signer:0
                (Dolev_strong.bit_stmt bit)
            in
            [ Engine.Inject
                { src = 0;
                  dst = Engine.Only [ 1; 2; 3 ];
                  payload = { Dolev_strong.bit = false; chain = [ (0, sign false) ] } };
              Engine.Inject
                { src = 0;
                  dst = Engine.Only [ 4; 5; 6 ];
                  payload = { Dolev_strong.bit = true; chain = [ (0, sign true) ] } } ]
          end
          else []) }
  in
  let inputs = Array.make 7 true in
  let result =
    Engine.run (ds ~f:2) ~adversary ~n:7 ~budget:1 ~inputs ~max_rounds:10
      ~seed:4L
  in
  let verdict = Properties.broadcast ~sender:0 ~input:true result in
  Alcotest.(check bool) "consistent despite equivocation" true
    verdict.Properties.consistent

let test_ds_forged_chain_rejected () =
  let rng = Bacrypto.Rng.create 5L in
  let sigs = Bacrypto.Signature.setup ~n:5 rng in
  let env = { Dolev_strong.n = 5; f = 2; sigs } in
  let good = Bacrypto.Signature.sign sigs ~signer:0 (Dolev_strong.bit_stmt true) in
  let forged = String.make 32 'x' in
  Alcotest.(check bool) "valid chain accepted" true
    (Dolev_strong.valid_msg env ~sender:0 ~round:1
       { Dolev_strong.bit = true; chain = [ (0, good) ] });
  Alcotest.(check bool) "forged signature rejected" false
    (Dolev_strong.valid_msg env ~sender:0 ~round:1
       { Dolev_strong.bit = true; chain = [ (0, forged) ] });
  Alcotest.(check bool) "chain not starting at sender rejected" false
    (Dolev_strong.valid_msg env ~sender:0 ~round:1
       { Dolev_strong.bit = true;
         chain = [ (1, Bacrypto.Signature.sign sigs ~signer:1 (Dolev_strong.bit_stmt true)) ] });
  Alcotest.(check bool) "short chain rejected at later round" false
    (Dolev_strong.valid_msg env ~sender:0 ~round:2
       { Dolev_strong.bit = true; chain = [ (0, good) ] })

let test_ds_quadratic_communication () =
  let inputs = Array.make 9 true in
  let result =
    Engine.run (ds ~f:4) ~adversary:(passive ()) ~n:9 ~budget:0 ~inputs
      ~max_rounds:12 ~seed:6L
  in
  (* Every node relays the extracted bit once: ≥ n multicasts total. *)
  Alcotest.(check bool) "n multicasts" true
    (Metrics.honest_multicasts result.Engine.metrics >= 9)

(* --- Static committee --------------------------------------------------- *)

let sc = Static_committee.protocol ~committee_size:5

let test_sc_honest () =
  List.iter
    (fun bit ->
      let inputs = Array.make 30 bit in
      let result =
        Engine.run sc ~adversary:(passive ()) ~n:30 ~budget:0 ~inputs
          ~max_rounds:5 ~seed:7L
      in
      let verdict = Properties.agreement ~inputs result in
      Alcotest.(check bool) "ok" true (Properties.ok verdict))
    [ false; true ]

let test_sc_sublinear_multicasts () =
  let inputs = Array.make 30 true in
  let result =
    Engine.run sc ~adversary:(passive ()) ~n:30 ~budget:0 ~inputs ~max_rounds:5
      ~seed:8L
  in
  (* Only committee members speak: 2 messages each. *)
  Alcotest.(check int) "2·committee multicasts" 10
    (Metrics.honest_multicasts result.Engine.metrics)

let test_sc_committee_is_public_and_sized () =
  let env, _ =
    Engine.run_env sc ~adversary:(passive ()) ~n:30 ~budget:0
      ~inputs:(Array.make 30 true) ~max_rounds:5 ~seed:9L
  in
  Alcotest.(check int) "committee size" 5
    (List.length env.Static_committee.committee);
  Alcotest.(check bool) "members in range" true
    (List.for_all (fun i -> i >= 0 && i < 30) env.Static_committee.committee)

(* --- Nakamoto ------------------------------------------------------------- *)

let test_nakamoto_agreement () =
  let proto = Nakamoto.protocol ~p:0.01 ~confirmations:5 in
  let agg =
    Common.measure ~jobs:1 ~reps:10 ~seed:10L (fun seed ->
        let inputs = Scenario.unanimous_inputs ~n:20 true in
        let result =
          Engine.run proto ~adversary:(passive ()) ~n:20 ~budget:0 ~inputs
            ~max_rounds:400 ~seed
        in
        (result, Properties.agreement ~inputs result))
  in
  Alcotest.(check int) "validity" 0 agg.Common.validity_fail;
  Alcotest.(check bool) "few consistency failures" true
    (agg.Common.consistency_fail <= 1);
  Alcotest.(check int) "termination" 0 agg.Common.termination_fail

let test_nakamoto_rounds_grow_with_confirmations () =
  let mean_rounds confirmations =
    let proto = Nakamoto.protocol ~p:0.01 ~confirmations in
    Common.mean_rounds
      (Common.measure ~jobs:1 ~reps:8 ~seed:11L (fun seed ->
           let inputs = Scenario.unanimous_inputs ~n:20 true in
           let result =
             Engine.run proto ~adversary:(passive ()) ~n:20 ~budget:0 ~inputs
               ~max_rounds:2000 ~seed
           in
           (result, Properties.agreement ~inputs result)))
  in
  let r3 = mean_rounds 3 and r12 = mean_rounds 12 in
  Alcotest.(check bool)
    (Printf.sprintf "rounds grow: %.0f @3 vs %.0f @12" r3 r12)
    true
    (r12 > 2.0 *. r3)

(* --- Chen-Micali -------------------------------------------------------------- *)

let cm_params = Bacore.Params.make ~lambda:40 ~max_epochs:14 ()

let test_cm_honest_agreement () =
  List.iter
    (fun erasure ->
      let proto = Chen_micali.protocol ~params:cm_params ~erasure in
      let agg =
        Common.measure ~jobs:1 ~reps:8 ~seed:60L (fun seed ->
            let inputs = Scenario.random_inputs ~n:120 seed in
            let result =
              Engine.run proto ~adversary:(passive ()) ~n:120 ~budget:0 ~inputs
                ~max_rounds:30 ~seed
            in
            (result, Properties.agreement ~inputs result))
      in
      Alcotest.(check int)
        (Printf.sprintf "no consistency failures (erasure=%b)" erasure)
        0 agg.Common.consistency_fail;
      Alcotest.(check int) "no validity failures" 0 agg.Common.validity_fail)
    [ true; false ]

let test_cm_sublinear_multicasts () =
  let proto = Chen_micali.protocol ~params:cm_params ~erasure:true in
  let inputs = Scenario.unanimous_inputs ~n:120 true in
  let result =
    Engine.run proto ~adversary:(passive ()) ~n:120 ~budget:0 ~inputs
      ~max_rounds:30 ~seed:61L
  in
  let per_epoch =
    float_of_int (Metrics.honest_multicasts result.Engine.metrics) /. 14.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f multicasts/epoch << n" per_epoch)
    true (per_epoch < 70.0)

let test_cm_ack_requires_fs_signature () =
  (* Forged ACKs (wrong slot signature) must be dropped even with a valid
     eligibility ticket — verified via the protocol's message validator
     by running a corrupt injector that garbles the signature. *)
  let proto = Chen_micali.protocol ~params:cm_params ~erasure:true in
  let adversary =
    { Engine.adv_name = "garbled-sig";
      model = Corruption.Adaptive;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
      intervene =
        (fun view ->
          let actions = ref [] in
          let budget = ref (Corruption.budget_left view.Engine.tracker) in
          Array.iteri
            (fun node intents ->
              List.iter
                (fun { Engine.payload; _ } ->
                  match payload with
                  | Bacore.Third.Ack { epoch; bit; cred = cred, _ }
                    when !budget > 0 ->
                      decr budget;
                      actions :=
                        Engine.Inject
                          { src = node;
                            dst = Engine.All;
                            payload =
                              Chen_micali.make_ack ~epoch ~bit:(not bit) ~cred
                                ~fs_sig:(String.make 32 'z') }
                        :: Engine.Corrupt node :: !actions
                  | Bacore.Third.Ack _ | Bacore.Third.Propose _ -> ())
                intents)
            view.Engine.intents;
          List.rev !actions) }
  in
  let inputs = Scenario.unanimous_inputs ~n:120 true in
  let env, result =
    Engine.run_env proto ~adversary ~n:120 ~budget:40 ~inputs ~max_rounds:30
      ~seed:62L
  in
  Alcotest.(check int) "garbled signatures never create conflicts" 0
    env.Chen_micali.conflicts;
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "still valid" true verdict.Properties.valid

(* --- Sparse relay ------------------------------------------------------------ *)

let test_sparse_relay_delivers () =
  List.iter
    (fun bit ->
      let inputs = Array.make 12 bit in
      let result =
        Engine.run (Sparse_relay.protocol ~d:2) ~adversary:(passive ()) ~n:12
          ~budget:0 ~inputs ~max_rounds:20 ~seed:12L
      in
      let verdict = Properties.broadcast ~sender:0 ~input:bit result in
      Alcotest.(check bool) "everyone learns the bit" true (Properties.ok verdict))
    [ false; true ]

let test_sparse_relay_message_budget () =
  let inputs = Array.make 12 true in
  let result =
    Engine.run (Sparse_relay.protocol ~d:3) ~adversary:(passive ()) ~n:12
      ~budget:0 ~inputs ~max_rounds:20 ~seed:13L
  in
  let m = result.Engine.metrics in
  Alcotest.(check int) "no multicasts" 0 (Metrics.honest_multicasts m);
  Alcotest.(check bool)
    (Printf.sprintf "%d unicasts <= n·d = 36" (Metrics.honest_unicasts m))
    true
    (Metrics.honest_unicasts m <= 36)

let test_sparse_relay_successors () =
  Alcotest.(check (list int)) "interior" [ 5; 6 ]
    (Sparse_relay.successors ~n:10 ~d:2 4);
  Alcotest.(check (list int)) "wraps" [ 9; 0; 1 ]
    (Sparse_relay.successors ~n:10 ~d:3 8)

(* --- Pinned property tests ------------------------------------------------ *)

let baselines_qcheck_tests =
  (* The committee is CRS-derived: a function of the seed alone, always
     the declared size, duplicate-free, in range. *)
  [ QCheck.Test.make
      ~name:"static committee: sized, duplicate-free, seed-deterministic"
      ~count:20
      QCheck.(make ~print:string_of_int Gen.(0 -- 10_000))
      (fun seed ->
        let committee () =
          let env, _ =
            Engine.run_env sc ~adversary:(passive ()) ~n:30 ~budget:0
              ~inputs:(Array.make 30 true) ~max_rounds:5
              ~seed:(Int64.of_int seed)
          in
          env.Static_committee.committee
        in
        let c1 = committee () and c2 = committee () in
        c1 = c2
        && List.length c1 = 5
        && List.length (List.sort_uniq Int.compare c1) = 5
        && List.for_all (fun i -> i >= 0 && i < 30) c1) ]

let () =
  Alcotest.run "baselines"
    [ ( "dolev-strong",
        [ Alcotest.test_case "honest sender" `Quick test_ds_honest_sender;
          Alcotest.test_case "round count" `Quick test_ds_round_count;
          Alcotest.test_case "silent sender" `Quick test_ds_silent_sender_defaults;
          Alcotest.test_case "equivocating sender" `Quick
            test_ds_equivocating_sender_consistent;
          Alcotest.test_case "forged chains rejected" `Quick test_ds_forged_chain_rejected;
          Alcotest.test_case "quadratic communication" `Quick
            test_ds_quadratic_communication ] );
      ( "static-committee",
        [ Alcotest.test_case "honest" `Quick test_sc_honest;
          Alcotest.test_case "sublinear multicasts" `Quick test_sc_sublinear_multicasts;
          Alcotest.test_case "public committee" `Quick
            test_sc_committee_is_public_and_sized ] );
      ( "nakamoto",
        [ Alcotest.test_case "agreement" `Quick test_nakamoto_agreement;
          Alcotest.test_case "rounds grow with confirmations" `Slow
            test_nakamoto_rounds_grow_with_confirmations ] );
      ( "chen-micali",
        [ Alcotest.test_case "honest agreement" `Quick test_cm_honest_agreement;
          Alcotest.test_case "sublinear multicasts" `Quick test_cm_sublinear_multicasts;
          Alcotest.test_case "forged fs signature dropped" `Quick
            test_cm_ack_requires_fs_signature ] );
      ( "sparse-relay",
        [ Alcotest.test_case "delivers" `Quick test_sparse_relay_delivers;
          Alcotest.test_case "message budget" `Quick test_sparse_relay_message_budget;
          Alcotest.test_case "successors" `Quick test_sparse_relay_successors ] );
      ( "qcheck",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xba00b |]))
          baselines_qcheck_tests ) ]
