(* Integration tests for the core BA protocols: the §3.1 warmup, the §3.2
   subquadratic one-third protocol (both worlds), the Appendix-C quadratic
   and subquadratic honest-majority protocols, and the broadcast
   reduction. *)

open Basim
open Bacore

let passive () = Engine.passive ~name:"passive" ~model:Corruption.Adaptive

let check_rate label failures trials limit =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d/%d failures (limit %d)" label failures trials limit)
    true (failures <= limit)

let run_agreement proto ~n ~budget ~inputs ~max_rounds ~seed =
  let result =
    Engine.run proto ~adversary:(passive ()) ~n ~budget ~inputs ~max_rounds ~seed
  in
  (result, Properties.agreement ~inputs result)

module Common = Baexperiments.Common

let trial_failures proto ~n ~inputs_of ~max_rounds ~reps ~base_seed =
  Common.measure ~jobs:1 ~reps ~seed:base_seed (fun seed ->
      let inputs = inputs_of seed in
      run_agreement proto ~n ~budget:0 ~inputs ~max_rounds ~seed)

(* --- Params -------------------------------------------------------------- *)

let test_params_quorums () =
  let p = Params.make ~lambda:40 () in
  Alcotest.(check int) "2λ/3" 27 (Params.third_quorum p);
  Alcotest.(check int) "λ/2" 20 (Params.hm_quorum p);
  let p' = Params.make ~lambda:3 () in
  Alcotest.(check int) "ceil(2·3/3)" 2 (Params.third_quorum p');
  Alcotest.(check int) "ceil(3/2)" 2 (Params.hm_quorum p')

let test_params_probabilities () =
  let p = Params.make ~lambda:40 () in
  Alcotest.(check bool) "λ/n" true
    (abs_float (Params.ack_probability p ~n:400 -. 0.1) < 1e-12);
  Alcotest.(check bool) "capped at 1" true
    (Params.ack_probability p ~n:10 = 1.0);
  Alcotest.(check bool) "1/2n" true
    (abs_float (Params.propose_probability ~n:100 -. 0.005) < 1e-12)

let test_params_validation () =
  Alcotest.check_raises "bad lambda"
    (Invalid_argument "Params.make: lambda must be positive") (fun () ->
      ignore (Params.make ~lambda:0 ()));
  Alcotest.check_raises "bad max_epochs"
    (Invalid_argument "Params.make: max_epochs must be positive") (fun () ->
      ignore (Params.make ~max_epochs:0 ()))

(* --- Cert ---------------------------------------------------------------- *)

let test_cert_dedup () =
  let c = Cert.make ~iter:2 ~bit:true ~endorsements:[ (1, "a"); (1, "b"); (2, "c") ] in
  Alcotest.(check (list int)) "each voter's first endorsement" [ 1; 2 ]
    (List.map fst c.Cert.endorsements);
  Alcotest.(check string) "voter 1 keeps its first" "a"
    (snd (List.hd c.Cert.endorsements))

let test_cert_rank () =
  let c = Cert.make ~iter:3 ~bit:false ~endorsements:[ (0, ()) ] in
  Alcotest.(check int) "none ranks 0" 0 (Cert.rank None);
  Alcotest.(check int) "some ranks iter" 3 (Cert.rank (Some c));
  Alcotest.(check bool) "some > none" true (Cert.strictly_higher (Some c) ~than:None);
  Alcotest.(check bool) "equal not strict" false
    (Cert.strictly_higher (Some c) ~than:(Some c))

let test_cert_well_formed () =
  let c =
    Cert.make ~iter:1 ~bit:true
      ~endorsements:[ (0, "ok"); (1, "ok"); (2, "bad"); (3, "ok") ]
  in
  let check_all = List.map (fun (_, e) -> String.equal e "ok") in
  Alcotest.(check bool) "3 valid ≥ quorum 3" true
    (Cert.well_formed c ~quorum:3 ~check_all);
  Alcotest.(check bool) "3 valid < quorum 4" false
    (Cert.well_formed c ~quorum:4 ~check_all);
  (* A wire certificate need not come through [Cert.make]'s dedupe: an
     endorser listed twice counts once. *)
  let repeated =
    { Cert.iter = 1; bit = true; endorsements = [ (0, "ok"); (0, "ok"); (1, "ok") ] }
  in
  Alcotest.(check bool) "endorser 0 twice: 2 < quorum 3" false
    (Cert.well_formed repeated ~quorum:3 ~check_all);
  Alcotest.(check bool) "2 distinct ≥ quorum 2" true
    (Cert.well_formed repeated ~quorum:2 ~check_all)

let test_cert_iter_validation () =
  Alcotest.check_raises "iter 0 invalid"
    (Invalid_argument "Cert.make: iterations start at 1") (fun () ->
      ignore (Cert.make ~iter:0 ~bit:true ~endorsements:[]))

(* --- Warmup third (§3.1) -------------------------------------------------- *)

let warmup_params = Params.make ~lambda:10 ~max_epochs:12 ()

let warmup = Warmup_third.protocol ~params:warmup_params

let warmup_rounds = (2 * warmup_params.Params.max_epochs) + 2

let test_warmup_validity_unanimous () =
  List.iter
    (fun bit ->
      let agg =
        trial_failures warmup ~n:7
          ~inputs_of:(fun _ -> Scenario.unanimous_inputs ~n:7 bit)
          ~max_rounds:warmup_rounds ~reps:10 ~base_seed:100L
      in
      check_rate "warmup validity" agg.Common.validity_fail 10 0;
      check_rate "warmup consistency" agg.Common.consistency_fail 10 0;
      check_rate "warmup termination" agg.Common.termination_fail 10 0)
    [ false; true ]

let test_warmup_agreement_split () =
  let agg =
    trial_failures warmup ~n:7
      ~inputs_of:(fun _ -> Scenario.split_inputs ~n:7)
      ~max_rounds:warmup_rounds ~reps:20 ~base_seed:101L
  in
  check_rate "warmup split consistency" agg.Common.consistency_fail 20 0;
  check_rate "warmup split termination" agg.Common.termination_fail 20 0

let test_warmup_linear_multicasts () =
  (* Every node multicasts one ACK per epoch: the protocol is
     communication-inefficient by design. *)
  let inputs = Scenario.unanimous_inputs ~n:7 true in
  let result, _ =
    run_agreement warmup ~n:7 ~budget:0 ~inputs ~max_rounds:warmup_rounds ~seed:3L
  in
  let m = result.Engine.metrics in
  let epochs = warmup_params.Params.max_epochs in
  Alcotest.(check bool)
    (Printf.sprintf "%d multicasts >= n·R acks" (Metrics.honest_multicasts m))
    true
    (Metrics.honest_multicasts m >= 7 * epochs)

let test_warmup_fixed_duration () =
  let inputs = Scenario.split_inputs ~n:7 in
  let result, _ =
    run_agreement warmup ~n:7 ~budget:0 ~inputs ~max_rounds:warmup_rounds ~seed:4L
  in
  Alcotest.(check int) "runs exactly 2R+1 rounds"
    ((2 * warmup_params.Params.max_epochs) + 1)
    result.Engine.rounds_used

let test_warmup_leader_round_robin () =
  Alcotest.(check int) "epoch 0" 0 (Warmup_third.leader ~n:5 ~epoch:0);
  Alcotest.(check int) "epoch 7 of 5" 2 (Warmup_third.leader ~n:5 ~epoch:7)

(* --- Sub third (§3.2) ------------------------------------------------------ *)

let sub3_params = Params.make ~lambda:40 ~max_epochs:16 ()

let sub3 =
  Sub_third.protocol ~params:sub3_params ~world:`Hybrid ~mode:Sub_third.Bit_specific

let sub3_rounds = (2 * sub3_params.Params.max_epochs) + 2

let test_sub3_validity_unanimous () =
  let agg =
    trial_failures sub3 ~n:120
      ~inputs_of:(fun _ -> Scenario.unanimous_inputs ~n:120 true)
      ~max_rounds:sub3_rounds ~reps:10 ~base_seed:200L
  in
  check_rate "sub3 validity" agg.Common.validity_fail 10 0;
  check_rate "sub3 consistency" agg.Common.consistency_fail 10 0

let test_sub3_agreement_split () =
  let agg =
    trial_failures sub3 ~n:120
      ~inputs_of:(fun seed -> Scenario.random_inputs ~n:120 seed)
      ~max_rounds:sub3_rounds ~reps:10 ~base_seed:201L
  in
  check_rate "sub3 split consistency" agg.Common.consistency_fail 10 0;
  check_rate "sub3 split termination" agg.Common.termination_fail 10 0

let test_sub3_sublinear_multicasts () =
  (* Per epoch, roughly λ committee members speak — far fewer than n. *)
  let inputs = Scenario.unanimous_inputs ~n:120 true in
  let result, _ =
    run_agreement sub3 ~n:120 ~budget:0 ~inputs ~max_rounds:sub3_rounds ~seed:5L
  in
  let per_epoch =
    float_of_int (Metrics.honest_multicasts result.Engine.metrics)
    /. float_of_int sub3_params.Params.max_epochs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f multicasts/epoch << n=120" per_epoch)
    true (per_epoch < 70.0)

let test_sub3_real_world_agrees () =
  let real =
    Sub_third.protocol ~params:(Params.make ~lambda:30 ~max_epochs:10 ())
      ~world:`Real ~mode:Sub_third.Bit_specific
  in
  let inputs = Scenario.unanimous_inputs ~n:60 true in
  let result, verdict =
    run_agreement real ~n:60 ~budget:0 ~inputs ~max_rounds:24 ~seed:6L
  in
  Alcotest.(check bool) "real world ok" true (Properties.ok verdict);
  (* Real-world messages carry VRF credentials: strictly more bits than
     count · header. *)
  let m = result.Engine.metrics in
  Alcotest.(check bool) "credential overhead visible" true
    (Metrics.honest_multicast_bits m > 48 * Metrics.honest_multicasts m)

let test_sub3_mining_strings () =
  Alcotest.(check string) "bit-specific" "sub3:ACK:4:1"
    (Sub_third.ack_mining_string Sub_third.Bit_specific ~epoch:4 ~bit:true);
  Alcotest.(check string) "bit-agnostic" "sub3:ACK:4"
    (Sub_third.ack_mining_string Sub_third.Bit_agnostic ~epoch:4 ~bit:true);
  Alcotest.(check string) "propose" "sub3:Propose:4:0"
    (Sub_third.propose_mining_string ~epoch:4 ~bit:false)

(* --- Quadratic honest majority (App. C.1) ---------------------------------- *)

let qhm = Quadratic_hm.protocol ()

let test_qhm_phase_layout () =
  Alcotest.(check bool) "round 0 = vote 1" true
    (Hm.phase_of_round 0 = Hm.Phase_vote 1);
  Alcotest.(check bool) "round 1 = commit 1" true
    (Hm.phase_of_round 1 = Hm.Phase_commit 1);
  Alcotest.(check bool) "round 2 = status 2" true
    (Hm.phase_of_round 2 = Hm.Phase_status 2);
  Alcotest.(check bool) "round 5 = commit 2" true
    (Hm.phase_of_round 5 = Hm.Phase_commit 2);
  Alcotest.(check bool) "round 6 = status 3" true
    (Hm.phase_of_round 6 = Hm.Phase_status 3)

let test_qhm_validity_unanimous () =
  List.iter
    (fun bit ->
      let agg =
        trial_failures qhm ~n:9
          ~inputs_of:(fun _ -> Scenario.unanimous_inputs ~n:9 bit)
          ~max_rounds:200 ~reps:10 ~base_seed:300L
      in
      check_rate "qhm validity" agg.Common.validity_fail 10 0;
      check_rate "qhm termination" agg.Common.termination_fail 10 0)
    [ false; true ]

let test_qhm_unanimous_terminates_first_iteration () =
  let inputs = Scenario.unanimous_inputs ~n:9 true in
  let result, _ = run_agreement qhm ~n:9 ~budget:0 ~inputs ~max_rounds:200 ~seed:7L in
  Alcotest.(check bool)
    (Printf.sprintf "%d rounds <= 5" result.Engine.rounds_used)
    true (result.Engine.rounds_used <= 5)

let test_qhm_agreement_split () =
  let agg =
    trial_failures qhm ~n:9
      ~inputs_of:(fun seed -> Scenario.random_inputs ~n:9 seed)
      ~max_rounds:200 ~reps:20 ~base_seed:301L
  in
  check_rate "qhm split consistency" agg.Common.consistency_fail 20 0;
  check_rate "qhm split termination" agg.Common.termination_fail 20 0

let test_qhm_expected_constant_rounds () =
  let agg =
    trial_failures qhm ~n:9
      ~inputs_of:(fun seed -> Scenario.random_inputs ~n:9 seed)
      ~max_rounds:200 ~reps:30 ~base_seed:302L
  in
  (* All-honest executions converge within a couple of iterations. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean rounds %.1f < 16" (Common.mean_rounds agg))
    true
    (Common.mean_rounds agg < 16.0)

let test_qhm_quadratic_communication () =
  let inputs = Scenario.unanimous_inputs ~n:9 true in
  let result, _ = run_agreement qhm ~n:9 ~budget:0 ~inputs ~max_rounds:200 ~seed:8L in
  (* Every node multicasts in (almost) every round: Θ(n) multicasts,
     hence Θ(n²) pairwise messages. *)
  Alcotest.(check bool) "≥ n multicasts per active round" true
    (Metrics.honest_multicasts result.Engine.metrics
    >= 9 * (result.Engine.rounds_used - 1))

let test_qhm_n_validation () =
  Alcotest.check_raises "even n rejected"
    (Invalid_argument "Quadratic_hm: n must be odd and at least 3 (n = 2f+1)")
    (fun () ->
      ignore
        (Engine.run qhm ~adversary:(passive ()) ~n:8 ~budget:0
           ~inputs:(Array.make 8 true) ~max_rounds:10 ~seed:1L))

(* Iterations start at 1, but a vote names whatever iteration its sender
   picked. This adversary corrupts [corrupt] at set-up and multicasts
   [forge env] (pairs of corrupt sender and message) in round 0, so every
   honest node receives the forgeries in round 1. *)
let round0_forger ~corrupt ~forge =
  { Engine.adv_name = "round0-forger";
    model = Corruption.Adaptive;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> corrupt);
    intervene =
      (fun view ->
        if view.Engine.round = 0 then
          List.map
            (fun (src, payload) -> Engine.Inject { src; dst = Engine.All; payload })
            (forge view.Engine.env)
        else []) }

let check_agreement_under label proto ~adversary ~n ~budget ~max_rounds ~seed =
  let inputs = Scenario.split_inputs ~n in
  let result = Engine.run proto ~adversary ~n ~budget ~inputs ~max_rounds ~seed in
  Alcotest.(check bool) label true
    (Properties.ok (Properties.agreement ~inputs result))

(* A vote for iteration −1 with a matching iteration −1 proposal: every
   honest receiver must refuse it rather than look up the leader of an
   iteration that does not exist. *)
let test_qhm_rejects_vote_below_iteration_1 () =
  let forge env =
    match Quadratic_hm.sign_propose env ~signer:0 ~iter:(-1) ~bit:true None with
    | Hm.Propose p ->
        [ (0, Quadratic_hm.sign_vote env ~signer:0 ~iter:(-1) ~bit:true (Some p)) ]
    | Hm.Status _ | Hm.Vote _ | Hm.Commit _ | Hm.Terminate _ ->
        assert false
  in
  check_agreement_under "iteration -1 vote ignored" qhm
    ~adversary:(round0_forger ~corrupt:[ 0 ] ~forge)
    ~n:7 ~budget:1 ~max_rounds:200 ~seed:7L

(* A Status whose certificate names an endorser outside the signature
   scheme. Receivers read endorser ids off the wire, so the id must fail
   its check rather than raise in every honest receiver. (Receivers check
   a Status's certificate, not its own tag.) *)
let test_qhm_rejects_off_range_endorser () =
  let forge _env =
    let cert = Cert.make ~iter:1 ~bit:true ~endorsements:[ (-1, "x") ] in
    [ ( 0,
        Hm.Status { iter = 1; bit = true; cert = Some cert; cred = "x" }
      ) ]
  in
  check_agreement_under "off-range endorser ignored" qhm
    ~adversary:(round0_forger ~corrupt:[ 0 ] ~forge)
    ~n:7 ~budget:1 ~max_rounds:200 ~seed:7L

(* --- Subquadratic honest majority (App. C.2) -------------------------------- *)

let shm_params = Params.make ~lambda:40 ~max_epochs:60 ()

let shm = Sub_hm.protocol ~params:shm_params ~world:`Hybrid

let shm_rounds = (4 * shm_params.Params.max_epochs) + 10

let test_shm_validity_unanimous () =
  List.iter
    (fun bit ->
      let agg =
        trial_failures shm ~n:121
          ~inputs_of:(fun _ -> Scenario.unanimous_inputs ~n:121 bit)
          ~max_rounds:shm_rounds ~reps:8 ~base_seed:400L
      in
      check_rate "shm validity" agg.Common.validity_fail 8 0;
      check_rate "shm consistency" agg.Common.consistency_fail 8 0;
      check_rate "shm termination" agg.Common.termination_fail 8 0)
    [ false; true ]

let test_shm_agreement_split () =
  let agg =
    trial_failures shm ~n:121
      ~inputs_of:(fun seed -> Scenario.random_inputs ~n:121 seed)
      ~max_rounds:shm_rounds ~reps:8 ~base_seed:401L
  in
  check_rate "shm split consistency" agg.Common.consistency_fail 8 0;
  check_rate "shm split termination" agg.Common.termination_fail 8 0

let test_shm_sublinear_multicasts () =
  let inputs = Scenario.unanimous_inputs ~n:121 true in
  let result, _ =
    run_agreement shm ~n:121 ~budget:0 ~inputs ~max_rounds:shm_rounds ~seed:9L
  in
  let m = Metrics.honest_multicasts result.Engine.metrics in
  (* Lemma 15: O(λ²) multicasts total; per round, ≈ λ committee members
     speak instead of all n nodes. *)
  let per_round = float_of_int m /. float_of_int result.Engine.rounds_used in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f multicasts/round << n = 121" per_round)
    true (per_round < 60.0)

let test_shm_expected_constant_rounds () =
  let agg =
    trial_failures shm ~n:121
      ~inputs_of:(fun seed -> Scenario.random_inputs ~n:121 seed)
      ~max_rounds:shm_rounds ~reps:10 ~base_seed:402L
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean rounds %.1f < 60" (Common.mean_rounds agg))
    true
    (Common.mean_rounds agg < 60.0)

let test_shm_real_world () =
  let params = Params.make ~lambda:24 ~max_epochs:40 () in
  let real = Sub_hm.protocol ~params ~world:`Real in
  let inputs = Scenario.unanimous_inputs ~n:61 true in
  let result, verdict =
    run_agreement real ~n:61 ~budget:0 ~inputs ~max_rounds:170 ~seed:10L
  in
  Alcotest.(check bool) "real world ok" true (Properties.ok verdict);
  Alcotest.(check bool) "proof overhead visible" true
    (Metrics.honest_multicast_bits result.Engine.metrics
    > 100 * Metrics.honest_multicasts result.Engine.metrics)

let test_shm_mining_strings () =
  Alcotest.(check string) "vote" "shm:Vote:3:1"
    (Sub_hm.mining_string `Vote ~iter:3 ~bit:true);
  Alcotest.(check string) "terminate per-bit" "shm:Terminate:0"
    (Sub_hm.terminate_mining_string ~bit:false)

(* Corrupt nodes 0–3 search iterations 0, −1, … for one in which one of
   them wins a Propose ticket and a quorum of them win Vote tickets, then
   multicast those votes. Honest receivers must refuse them: a quorum
   would ask [Cert.make] for a certificate below iteration 1, which it
   rejects. *)
let test_shm_rejects_vote_below_iteration_1 () =
  let params = Params.make ~lambda:8 () in
  let corrupt = [ 0; 1; 2; 3 ] in
  let forge env =
    let mine node msg p = env.Sub_hm.elig.Bafmine.Eligibility.mine ~node ~msg ~p in
    let rec search iter =
      let proposal =
        List.find_map
          (fun c ->
            mine c (Sub_hm.mining_string `Propose ~iter ~bit:true)
              (Sub_hm.propose_probability env)
            |> Option.map (fun cred ->
                   { Hm.p_iter = iter; p_bit = true; p_cert = None;
                     p_node = c; p_cred = cred }))
          corrupt
      in
      let votes p =
        List.filter_map
          (fun c ->
            mine c (Sub_hm.mining_string `Vote ~iter ~bit:true)
              (Sub_hm.committee_probability env)
            |> Option.map (fun cred ->
                   (c, Sub_hm.make_vote ~iter ~bit:true ~proposal:(Some p) ~cred)))
          corrupt
      in
      match Option.map votes proposal with
      | Some vs when List.length vs >= Sub_hm.quorum env -> vs
      | Some _ | None -> search (iter - 1)
    in
    search 0
  in
  check_agreement_under "sub-iteration-1 votes ignored"
    (Sub_hm.protocol ~params ~world:`Hybrid)
    ~adversary:(round0_forger ~corrupt ~forge)
    ~n:9 ~budget:4 ~max_rounds:250 ~seed:1L

(* Node 4 sends two Status messages in round 2 with the same ticket: one
   carries a real iteration-1 certificate for 0, its twin claims
   iteration 7 for 1 on a single endorsement that was never mined. At
   n = λ = 5 every draw wins and the quorum is 3. Receivers share the
   round's checks, so this is what a memo keyed by sender alone, or one
   that also recorded refusals, would let through: each receiver stepped
   over the same physical inbox must still send the iteration-1
   certificate. *)
let test_shm_forged_twin_refused () =
  let n = 5 in
  let proto = Sub_hm.protocol ~params:(Params.make ~lambda:5 ()) ~world:`Hybrid in
  let env = proto.Engine.make_env ~n (Bacrypto.Rng.create 11L) in
  let mine node kind ~iter ~bit =
    match
      env.Sub_hm.elig.Bafmine.Eligibility.mine ~node
        ~msg:(Sub_hm.mining_string kind ~iter ~bit)
        ~p:(Sub_hm.committee_probability env)
    with
    | Some cred -> cred
    | None -> Alcotest.fail "p = 1 wins every draw"
  in
  let real =
    Cert.make ~iter:1 ~bit:false
      ~endorsements:
        (List.map (fun v -> (v, mine v `Vote ~iter:1 ~bit:false)) [ 0; 1; 2 ])
  in
  let cred = mine 4 `Status ~iter:2 ~bit:false in
  let forged = { Cert.iter = 7; bit = true; endorsements = [ (3, cred) ] } in
  let inbox =
    [ (4, Hm.Status { iter = 2; bit = false; cert = Some real; cred });
      (4, Hm.Status { iter = 2; bit = false; cert = Some forged; cred }) ]
  in
  List.iter
    (fun me ->
      let st =
        proto.Engine.init env ~rng:(Bacrypto.Rng.create 12L) ~n ~me ~input:true
      in
      match proto.Engine.step env st ~round:2 ~inbox with
      | _, [ { Engine.payload = Hm.Status { bit; cert = Some c; _ }; _ } ] ->
          Alcotest.(check (pair int bool))
            (Printf.sprintf "node %d's Status certificate" me)
            (1, false) (c.Cert.iter, c.Cert.bit);
          Alcotest.(check bool) (Printf.sprintf "node %d's bit" me) false bit
      | _, _ -> Alcotest.failf "node %d did not send one certified Status" me)
    [ 0; 1 ]

(* Dense sub-HM nodes at n = λ = 5, where every draw wins and the quorum
   is 3. [mine node ~bit] mines [node]'s iteration-1 Vote ticket for
   [bit], [fresh me] is a node that has not stepped, and [step st ~round
   inbox] describes what the node sends. Nodes that start a round from
   one listener and hear one physical inbox with equal verdicts share
   one transition; the two tests below change one of these at a time. *)
let shm_dense_nodes () =
  let n = 5 in
  let proto = Sub_hm.protocol ~params:(Params.make ~lambda:5 ()) ~world:`Hybrid in
  let env = proto.Engine.make_env ~n (Bacrypto.Rng.create 11L) in
  let mine node ~bit =
    match
      env.Sub_hm.elig.Bafmine.Eligibility.mine ~node
        ~msg:(Sub_hm.mining_string `Vote ~iter:1 ~bit)
        ~p:(Sub_hm.committee_probability env)
    with
    | Some _ -> ()
    | None -> Alcotest.fail "p = 1 wins every draw"
  in
  let fresh me =
    proto.Engine.init env ~rng:(Bacrypto.Rng.create 12L) ~n ~me ~input:true
  in
  let step st ~round inbox =
    List.map
      (fun { Engine.payload; _ } ->
        match payload with
        | Hm.Commit { iter; bit; cert; _ } ->
            Printf.sprintf "Commit (%d, %b), %d endorsers" iter bit
              (List.length cert.Cert.endorsements)
        | m -> Hm.msg_kind m)
      (snd (proto.Engine.step env st ~round ~inbox))
  in
  (mine, fresh, step)

let shm_vote node ~bit =
  ( node,
    Hm.Vote
      { iter = 1; bit; proposal = None; cred = Bafmine.Eligibility.Ideal_ticket }
  )

let commit_of_three = [ "Commit (1, true), 3 endorsers" ]

(* A ticket starts to verify mid-round, once its node mines. The inbox
   holds three iteration-1 Votes for 1, and node 2's ticket is unmined
   when the first node steps, so it counts two votes, short of the
   quorum. Once node 2 mines, a second node over the same list must
   count three and commit. *)
let test_shm_transition_needs_equal_verdicts () =
  let mine, fresh, step = shm_dense_nodes () in
  mine 0 ~bit:true;
  mine 1 ~bit:true;
  let inbox = List.map (shm_vote ~bit:true) [ 0; 1; 2 ] in
  Alcotest.(check (list string)) "two verified votes" []
    (step (fresh 3) ~round:1 inbox);
  mine 2 ~bit:true;
  Alcotest.(check (list string)) "three verified votes" commit_of_three
    (step (fresh 4) ~round:1 inbox)

(* A node with equal verdicts must still not take the transition from
   another start listener or over another inbox. Start: after round 0,
   nodes 0 and 1 share a listener holding two votes for 1 and nodes 2
   and 3 one holding none; in round 1 each pair's first node hears the
   same third vote, and only node 0 reaches the quorum. Inbox: two fresh
   nodes hear three accepted votes, and the second list swaps the third
   vote for 1 for a vote for 0. *)
let test_shm_transition_needs_start_and_inbox () =
  let mine, fresh, step = shm_dense_nodes () in
  mine 0 ~bit:true;
  mine 1 ~bit:true;
  mine 2 ~bit:true;
  mine 3 ~bit:false;
  let nodes = Array.init 4 fresh in
  let two = List.map (shm_vote ~bit:true) [ 0; 1 ] and none = [] in
  List.iter
    (fun (me, inbox) -> ignore (step nodes.(me) ~round:0 inbox))
    [ (0, two); (1, two); (2, none); (3, none) ];
  let third = [ shm_vote 2 ~bit:true ] in
  Alcotest.(check (list string)) "two votes, then the third" commit_of_three
    (step nodes.(0) ~round:1 third);
  Alcotest.(check (list string)) "no votes, then the third" []
    (step nodes.(2) ~round:1 third);
  let mine, fresh, step = shm_dense_nodes () in
  List.iter (fun v -> mine v ~bit:true) [ 0; 1; 2 ];
  mine 3 ~bit:false;
  let ones = List.map (shm_vote ~bit:true) [ 0; 1; 2 ]
  and split =
    [ shm_vote 0 ~bit:true; shm_vote 1 ~bit:true; shm_vote 3 ~bit:false ]
  in
  Alcotest.(check (list string)) "three votes for 1" commit_of_three
    (step (fresh 0) ~round:1 ones);
  Alcotest.(check (list string)) "two for 1, one for 0" []
    (step (fresh 1) ~round:1 split)

(* --- Broadcast reduction (§1.1) --------------------------------------------- *)

let test_broadcast_honest_sender () =
  let bb = Broadcast.of_ba qhm ~sender:0 in
  List.iter
    (fun bit ->
      let inputs = Array.make 9 bit in
      let result =
        Engine.run bb ~adversary:(passive ()) ~n:9 ~budget:0 ~inputs ~max_rounds:200
          ~seed:11L
      in
      let verdict = Properties.broadcast ~sender:0 ~input:bit result in
      Alcotest.(check bool)
        (Printf.sprintf "broadcast of %b ok" bit)
        true (Properties.ok verdict))
    [ false; true ]

let test_broadcast_silent_corrupt_sender_consistent () =
  let bb = Broadcast.of_ba qhm ~sender:0 in
  let adversary =
    { Engine.adv_name = "silence-sender";
      model = Corruption.Static;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 0 ]);
      intervene = (fun _ -> []) }
  in
  let inputs = Array.make 9 true in
  let result =
    Engine.run bb ~adversary ~n:9 ~budget:1 ~inputs ~max_rounds:200 ~seed:12L
  in
  let verdict = Properties.broadcast ~sender:0 ~input:true result in
  Alcotest.(check bool) "consistent despite silent sender" true
    verdict.Properties.consistent;
  Alcotest.(check bool) "terminated" true verdict.Properties.terminated;
  (* Validity is vacuous: the sender is corrupt. *)
  Alcotest.(check bool) "validity vacuous" true verdict.Properties.valid

let test_broadcast_over_subquadratic () =
  let params = Params.make ~lambda:40 ~max_epochs:60 () in
  let bb = Broadcast.of_ba (Sub_hm.protocol ~params ~world:`Hybrid) ~sender:3 in
  let inputs = Array.make 121 false in
  inputs.(3) <- true;
  let result =
    Engine.run bb ~adversary:(passive ()) ~n:121 ~budget:0 ~inputs
      ~max_rounds:((4 * 60) + 12) ~seed:13L
  in
  let verdict = Properties.broadcast ~sender:3 ~input:true result in
  Alcotest.(check bool) "broadcast over sub-hm ok" true (Properties.ok verdict)

let test_broadcast_over_warmup () =
  let bb = Broadcast.of_ba warmup ~sender:2 in
  let inputs = Array.make 7 false in
  inputs.(2) <- true;
  let result =
    Engine.run bb ~adversary:(passive ()) ~n:7 ~budget:0 ~inputs
      ~max_rounds:(warmup_rounds + 2) ~seed:14L
  in
  let verdict = Properties.broadcast ~sender:2 ~input:true result in
  Alcotest.(check bool) "broadcast over warmup ok" true (Properties.ok verdict)

let test_warmup_state_accessors () =
  (* Drive one node by hand through init and a proposal round and check
     the exposed belief/sticky state. *)
  let proto = warmup in
  let rng = Bacrypto.Rng.create 1L in
  let env = proto.Engine.make_env ~n:7 rng in
  let st = proto.Engine.init env ~rng ~n:7 ~me:3 ~input:true in
  Alcotest.(check bool) "belief = input" true (Warmup_third.belief st);
  Alcotest.(check bool) "sticky initially set (footnote 4)" true
    (Warmup_third.sticky st);
  (* Round 0 (propose round, empty inbox): non-leader stays silent. *)
  let st, sends = proto.Engine.step env st ~round:0 ~inbox:[] in
  Alcotest.(check int) "non-leader silent" 0 (List.length sends);
  (* Round 1 (ACK round): the sticky node ACKs its input. *)
  let _, sends = proto.Engine.step env st ~round:1 ~inbox:[] in
  Alcotest.(check int) "one ACK" 1 (List.length sends)

let test_sub3_belief_accessor () =
  let proto = sub3 in
  let rng = Bacrypto.Rng.create 2L in
  let env = proto.Engine.make_env ~n:120 rng in
  let st = proto.Engine.init env ~rng ~n:120 ~me:5 ~input:false in
  Alcotest.(check bool) "belief = input" false (Sub_third.belief st)

let test_sub3_verify_msg_rejects_forgery () =
  let proto = sub3 in
  let rng = Bacrypto.Rng.create 3L in
  let env = proto.Engine.make_env ~n:120 rng in
  (* A made-up credential claim never verifies. *)
  Alcotest.(check bool) "forged ACK rejected" false
    (Sub_third.verify_msg env ~sender:7
       (Sub_third.make_ack ~epoch:0 ~bit:true
          ~cred:Bafmine.Eligibility.Ideal_ticket))

(* --- Golden regression transcripts --------------------------------------------
   Exact outcomes for fixed seeds: any unintended change to protocol logic,
   RNG derivation, or engine delivery order shows up here first. *)

let golden proto ~n ~seed ~rounds ~multicasts ~bits label =
  let inputs = Scenario.split_inputs ~n in
  let result =
    Engine.run proto ~adversary:(passive ()) ~n ~budget:0 ~inputs
      ~max_rounds:300 ~seed
  in
  Alcotest.(check int) (label ^ " rounds") rounds result.Engine.rounds_used;
  Alcotest.(check int)
    (label ^ " multicasts")
    multicasts
    (Metrics.honest_multicasts result.Engine.metrics);
  Alcotest.(check int)
    (label ^ " bits")
    bits
    (Metrics.honest_multicast_bits result.Engine.metrics)

let test_golden_sub_hm () =
  golden
    (Sub_hm.protocol ~params:(Params.make ~lambda:40 ~max_epochs:40 ()) ~world:`Hybrid)
    ~n:201 ~seed:7L ~rounds:11 ~multicasts:243 ~bits:155216
    "sub-hm n=201 seed=7"

let test_golden_quadratic () =
  golden (Quadratic_hm.protocol ()) ~n:41 ~seed:9L ~rounds:7 ~multicasts:206
    ~bits:1079288 "quadratic-hm n=41 seed=9"

let test_golden_warmup () =
  golden
    (Warmup_third.protocol ~params:(Params.make ~lambda:10 ~max_epochs:12 ()))
    ~n:7 ~seed:5L ~rounds:25 ~multicasts:96 ~bits:29184
    "warmup n=7 seed=5"

(* --- Cross-protocol QCheck property ------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"qhm agreement on random inputs/seeds" ~count:15
      (pair int64 (list_of_size (Gen.return 9) bool))
      (fun (seed, input_list) ->
        assume (List.length input_list = 9);
        let inputs = Array.of_list input_list in
        let result, verdict =
          run_agreement qhm ~n:9 ~budget:0 ~inputs ~max_rounds:200 ~seed
        in
        ignore result;
        Properties.ok verdict);
    Test.make ~name:"warmup agreement on random inputs/seeds" ~count:15
      (pair int64 (list_of_size (Gen.return 7) bool))
      (fun (seed, input_list) ->
        assume (List.length input_list = 7);
        let inputs = Array.of_list input_list in
        let _, verdict =
          run_agreement warmup ~n:7 ~budget:0 ~inputs ~max_rounds:warmup_rounds
            ~seed
        in
        Properties.ok verdict);
  ]

let () =
  let qcheck =
    List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xba003 |]))
      qcheck_tests
  in
  Alcotest.run "core"
    [ ( "params",
        [ Alcotest.test_case "quorums" `Quick test_params_quorums;
          Alcotest.test_case "probabilities" `Quick test_params_probabilities;
          Alcotest.test_case "validation" `Quick test_params_validation ] );
      ( "cert",
        [ Alcotest.test_case "dedup" `Quick test_cert_dedup;
          Alcotest.test_case "rank" `Quick test_cert_rank;
          Alcotest.test_case "well-formed" `Quick test_cert_well_formed;
          Alcotest.test_case "iter validation" `Quick test_cert_iter_validation ] );
      ( "warmup-third",
        [ Alcotest.test_case "validity unanimous" `Quick test_warmup_validity_unanimous;
          Alcotest.test_case "agreement split" `Quick test_warmup_agreement_split;
          Alcotest.test_case "linear multicasts" `Quick test_warmup_linear_multicasts;
          Alcotest.test_case "fixed duration" `Quick test_warmup_fixed_duration;
          Alcotest.test_case "round-robin leader" `Quick test_warmup_leader_round_robin ] );
      ( "sub-third",
        [ Alcotest.test_case "validity unanimous" `Quick test_sub3_validity_unanimous;
          Alcotest.test_case "agreement split" `Quick test_sub3_agreement_split;
          Alcotest.test_case "sublinear multicasts" `Quick test_sub3_sublinear_multicasts;
          Alcotest.test_case "real world" `Slow test_sub3_real_world_agrees;
          Alcotest.test_case "mining strings" `Quick test_sub3_mining_strings ] );
      ( "quadratic-hm",
        [ Alcotest.test_case "phase layout" `Quick test_qhm_phase_layout;
          Alcotest.test_case "validity unanimous" `Quick test_qhm_validity_unanimous;
          Alcotest.test_case "fast unanimous decision" `Quick
            test_qhm_unanimous_terminates_first_iteration;
          Alcotest.test_case "agreement split" `Quick test_qhm_agreement_split;
          Alcotest.test_case "expected constant rounds" `Quick
            test_qhm_expected_constant_rounds;
          Alcotest.test_case "quadratic communication" `Quick
            test_qhm_quadratic_communication;
          Alcotest.test_case "n validation" `Quick test_qhm_n_validation;
          Alcotest.test_case "vote below iteration 1" `Quick
            test_qhm_rejects_vote_below_iteration_1;
          Alcotest.test_case "off-range endorser" `Quick
            test_qhm_rejects_off_range_endorser ] );
      ( "sub-hm",
        [ Alcotest.test_case "validity unanimous" `Slow test_shm_validity_unanimous;
          Alcotest.test_case "agreement split" `Slow test_shm_agreement_split;
          Alcotest.test_case "sublinear multicasts" `Quick test_shm_sublinear_multicasts;
          Alcotest.test_case "expected constant rounds" `Slow
            test_shm_expected_constant_rounds;
          Alcotest.test_case "real world" `Slow test_shm_real_world;
          Alcotest.test_case "mining strings" `Quick test_shm_mining_strings;
          Alcotest.test_case "vote below iteration 1" `Quick
            test_shm_rejects_vote_below_iteration_1;
          Alcotest.test_case "forged twin refused" `Quick
            test_shm_forged_twin_refused;
          Alcotest.test_case "transition needs equal verdicts" `Quick
            test_shm_transition_needs_equal_verdicts;
          Alcotest.test_case "transition needs start and inbox" `Quick
            test_shm_transition_needs_start_and_inbox ] );
      ( "broadcast",
        [ Alcotest.test_case "honest sender" `Quick test_broadcast_honest_sender;
          Alcotest.test_case "silent corrupt sender" `Quick
            test_broadcast_silent_corrupt_sender_consistent;
          Alcotest.test_case "over warmup" `Quick test_broadcast_over_warmup;
          Alcotest.test_case "over sub-hm" `Slow test_broadcast_over_subquadratic ] );
      ( "state-accessors",
        [ Alcotest.test_case "warmup belief/sticky" `Quick test_warmup_state_accessors;
          Alcotest.test_case "sub3 belief" `Quick test_sub3_belief_accessor;
          Alcotest.test_case "sub3 forgery rejected" `Quick
            test_sub3_verify_msg_rejects_forgery ] );
      ( "golden",
        [ Alcotest.test_case "sub-hm transcript" `Quick test_golden_sub_hm;
          Alcotest.test_case "quadratic transcript" `Quick test_golden_quadratic;
          Alcotest.test_case "warmup transcript" `Quick test_golden_warmup ] );
      ("properties", qcheck) ]
