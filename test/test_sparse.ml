(* Sparse rounds: the active-set invariant and crowd equivalence.

   Three claims pin the engine's O(active) round machinery:

   1. The dense engine steps exactly the nodes a naive reference says it
      must — {un-corrupted, un-halted} at the start of the round —
      observed through the nodes its phase-1 hook emits for and checked
      against the trace's own corruption/halt record, across randomized
      adversary schedules.

   2. Each crowd hook is execution-equivalent to the dense step: same
      trace, same metrics, same series, same outputs, for sub-HM under
      every shipped adversary in both worlds, for quadratic-HM, and for
      the three §3 protocols under every adversary ba_run offers them.

   3. In a passive sparse run the audited per-node work is exactly
      {sample winners} ∪ {halters} — the O(committee) footprint that
      makes n = 100000 rounds cheap. *)

open Basim
open Bacore

let params = Params.make ~lambda:20 ~max_epochs:12 ()

(* The phase-1 hook [hook], recording into [audits] the ascending nodes it
   emits for in each round: the nodes that did per-node protocol work. *)
let recording hook audits env ~states rv =
  let emitted = ref [] in
  hook env ~states
    { rv with
      Engine.rv_emit =
        (fun i sends ->
          emitted := i :: !emitted;
          rv.Engine.rv_emit i sends) };
  Hashtbl.replace audits rv.Engine.rv_round
    (List.sort_uniq Int.compare !emitted)

(* --- 1. dense step audit = {un-corrupted, un-halted} ------------------- *)

(* Random oblivious schedules for sub-third: setup corruptions plus
   mid-round corrupt/inject/remove actions. Legality is irrelevant —
   the interpreter's skip semantics make every schedule executable, and
   the reference below reads what actually happened from the trace. *)
let schedule_gen ~n ~budget ~max_rounds =
  let open QCheck.Gen in
  let node = int_range 0 (n - 1) in
  let action =
    frequency
      [ (2, map (fun i -> Schedule.Corrupt i) node);
        ( 2,
          map3
            (fun src bit lower ->
              Schedule.Inject
                { src;
                  kind = (if bit then "propose" else "ack");
                  bit = lower;
                  dst = (if lower then Schedule.Lower_half else Schedule.Everyone) })
            node bool bool );
        ( 1,
          map2
            (fun victim index -> Schedule.Remove { victim; index })
            node (int_range 0 2) ) ]
  in
  let step = pair (int_range 0 (max_rounds - 1)) (list_size (int_range 1 3) action) in
  map2
    (fun setup steps ->
      (* strongly adaptive: the only model in which every generated
         action kind (including removal) is declarable *)
      { Schedule.name = "qcheck-sparse-active";
        model = Corruption.Strongly_adaptive;
        setup;
        steps = List.sort (fun (r1, _) (r2, _) -> compare r1 r2) steps })
    (list_size (int_range 0 (budget / 2)) node)
    (list_size (int_range 0 6) step)

let qcheck_dense_audit_matches_reference =
  let n = 21 and budget = 9 and max_rounds = 14 in
  QCheck.Test.make ~name:"dense step audit = {un-corrupted, un-halted}"
    ~count:40
    (QCheck.make
       ~print:(fun s -> Format.asprintf "%a" Schedule.pp s)
       (schedule_gen ~n ~budget ~max_rounds))
    (fun schedule ->
      let proto =
        Sub_third.protocol ~params ~world:`Hybrid ~mode:Sub_third.Bit_specific
      in
      let adversary =
        Schedule.to_adversary ~compiler:Baattacks.Schedule_targets.sub_third
          schedule
      in
      let collector = Trace.collector () in
      let audits = Hashtbl.create 16 in
      let result =
        Engine.run
          ~tracer:(Trace.observe collector)
          ~sparse:(recording (Engine.sparse_of_step proto) audits)
          proto ~adversary ~n ~budget
          ~inputs:(Scenario.split_inputs ~n)
          ~max_rounds ~seed:77L
      in
      (* Ground truth from the run's own record: first corruption round
         per node (setup = -1) and the engine's halt rounds. *)
      let corrupt_round = Array.make n None in
      List.iter
        (function
          | Trace.Corrupted { round; node } ->
              if corrupt_round.(node) = None then
                corrupt_round.(node) <- Some round
          | _ -> ())
        (Trace.events collector);
      let expected r =
        List.filter
          (fun i ->
            (match corrupt_round.(i) with None -> true | Some c -> c >= r)
            && match result.Engine.halt_rounds.(i) with
               | None -> true
               | Some h -> h >= r)
          (List.init n Fun.id)
      in
      let ok = ref true in
      for r = 0 to result.Engine.rounds_used - 1 do
        let audited =
          match Hashtbl.find_opt audits r with Some l -> l | None -> []
        in
        if audited <> expected r then ok := false
      done;
      !ok && Hashtbl.length audits = result.Engine.rounds_used)

(* --- 2. crowd hook ≡ dense step ---------------------------------------- *)

type observation = {
  o_trace : string;
  o_metrics : string;
  o_series : string;
  o_outputs : bool option array;
  o_halts : int option array;
  o_corruptions : int;
  o_extra : string;  (* what [?extra] reads off the run's env and result *)
}

(* A protocol and the maker of its crowd hook. *)
let sub_hm ?(params = params) world =
  (Sub_hm.protocol ~params ~world, Sub_hm.sparse_step)

let quadratic_hm ?max_iters () =
  (Quadratic_hm.protocol ?max_iters (), Quadratic_hm.sparse_step)

let observe_run ?audits ?(extra = fun _ _ -> "") (proto, hook) ~sparse
    ~adversary ~n ~budget ~seed =
  let collector = Trace.collector () in
  let sparse =
    if not sparse then None
    else
      match audits with
      | None -> Some (hook ())
      | Some audits -> Some (recording (hook ()) audits)
  in
  let env, result =
    Engine.run_env
      ~tracer:(Trace.observe collector)
      ?sparse proto ~adversary ~n ~budget
      ~inputs:(Scenario.split_inputs ~n)
      ~max_rounds:60 ~seed
  in
  { o_trace = Trace.render collector;
    o_metrics = Baobs.Json.to_string (Metrics.to_json result.Engine.metrics);
    o_series =
      Baobs.Json.to_string (Metrics.series_to_json result.Engine.metrics);
    o_outputs = result.Engine.outputs;
    o_halts = result.Engine.halt_rounds;
    o_corruptions = result.Engine.corruptions;
    o_extra = extra env result }

(* Runs the protocol on both paths, checks them equal, and returns the
   dense run's observation. *)
let equal_runs ?extra hm ~adversary ~n ~budget ~seed label =
  let run sparse =
    observe_run ?extra hm ~sparse ~adversary:(adversary ()) ~n ~budget ~seed
  in
  let dense = run false and sparse = run true in
  Alcotest.(check string) (label ^ ": trace") dense.o_trace sparse.o_trace;
  Alcotest.(check string) (label ^ ": metrics") dense.o_metrics sparse.o_metrics;
  Alcotest.(check string) (label ^ ": series") dense.o_series sparse.o_series;
  Alcotest.(check bool) (label ^ ": outputs") true (dense.o_outputs = sparse.o_outputs);
  Alcotest.(check bool) (label ^ ": halt rounds") true (dense.o_halts = sparse.o_halts);
  Alcotest.(check int) (label ^ ": corruptions") dense.o_corruptions
    sparse.o_corruptions;
  Alcotest.(check string) (label ^ ": extra") dense.o_extra sparse.o_extra;
  dense

let check_equivalent ?extra hm ~adversary ~n ~budget ~seed label =
  ignore (equal_runs ?extra hm ~adversary ~n ~budget ~seed label)

let passive () = Engine.passive ~name:"none" ~model:Corruption.Adaptive

let test_crowd_equivalence_adversaries () =
  List.iter
    (fun seed ->
      check_equivalent (sub_hm `Hybrid) ~adversary:passive ~n:101 ~budget:0
        ~seed "passive";
      check_equivalent (sub_hm `Hybrid)
        ~adversary:(fun () -> Baattacks.Eraser.make ())
        ~n:101 ~budget:33 ~seed "eraser";
      check_equivalent (sub_hm `Hybrid)
        ~adversary:(fun () -> Baattacks.Eraser.silencer ())
        ~n:101 ~budget:33 ~seed "silencer";
      check_equivalent (sub_hm `Hybrid)
        ~adversary:(fun () -> Baattacks.Split_vote.sub_hm ())
        ~n:101 ~budget:33 ~seed "split-vote")
    [ 7L; 19L ]

let test_crowd_equivalence_real_world () =
  check_equivalent (sub_hm `Real) ~adversary:passive ~n:61 ~budget:0
    ~seed:5L "real passive";
  check_equivalent (sub_hm `Real)
    ~adversary:(fun () -> Baattacks.Eraser.silencer ())
    ~n:61 ~budget:20 ~seed:5L "real silencer"

(* None of the inputs above reaches the iteration cap; all of them decide.
   At max_epochs = 1 with split inputs nobody decides in iteration 1, so
   every node on both paths halts without output as iteration 2 begins,
   in round 2. *)
let check_iteration_cap hm ~n label =
  check_equivalent hm ~adversary:passive ~n ~budget:0 ~seed:7L label;
  let o =
    observe_run hm ~sparse:true ~adversary:(passive ()) ~n ~budget:0 ~seed:7L
  in
  Alcotest.(check (array (option bool)))
    (label ^ ": nobody decides") (Array.make n None) o.o_outputs;
  Alcotest.(check (array (option int)))
    (label ^ ": all halt in round 2") (Array.make n (Some 2)) o.o_halts

let test_crowd_equivalence_iteration_cap () =
  let params = Params.make ~lambda:20 ~max_epochs:1 () in
  check_iteration_cap (sub_hm ~params `Hybrid) ~n:101 "hybrid cap";
  check_iteration_cap (sub_hm ~params `Real) ~n:61 "real cap"

(* One hook serves repeated trials: it must reset its crowd whenever a
   fresh run begins (the engine restarts rounds at 0). *)
let check_hook_reusable (proto, make_hook) =
  let hook = make_hook () in
  let run seed sparse =
    let collector = Trace.collector () in
    let result =
      Engine.run
        ~tracer:(Trace.observe collector)
        ?sparse proto ~adversary:(passive ()) ~n:101 ~budget:0
        ~inputs:(Scenario.split_inputs ~n:101)
        ~max_rounds:60 ~seed
    in
    (Trace.render collector, result.Engine.outputs)
  in
  List.iter
    (fun seed ->
      let dense = run seed None and sparse = run seed (Some hook) in
      Alcotest.(check string) "reused hook trace" (fst dense) (fst sparse);
      Alcotest.(check bool) "reused hook outputs" true (snd dense = snd sparse))
    [ 3L; 4L; 5L ]

let test_crowd_hook_reusable_across_runs () =
  check_hook_reusable (sub_hm `Hybrid)

(* Quadratic-HM: n = 2f + 1, and every node speaks in almost every round,
   so the crowd's members are nearly all emitters. *)
let test_qhm_crowd_adversaries () =
  List.iter
    (fun seed ->
      check_equivalent (quadratic_hm ()) ~adversary:passive ~n:61 ~budget:0
        ~seed "qhm passive";
      check_equivalent (quadratic_hm ())
        ~adversary:(fun () -> Baattacks.Eraser.make ())
        ~n:61 ~budget:30 ~seed "qhm eraser";
      check_equivalent (quadratic_hm ())
        ~adversary:(fun () -> Baattacks.Eraser.silencer ())
        ~n:61 ~budget:30 ~seed "qhm silencer")
    [ 7L; 19L ]

(* With split inputs nobody commits in iteration 1, so at a cap of one
   iteration everyone halts undecided as iteration 2 begins. *)
let test_qhm_crowd_iteration_cap () =
  check_iteration_cap (quadratic_hm ~max_iters:1 ()) ~n:41 "qhm cap"

let test_qhm_crowd_hook_reusable () = check_hook_reusable (quadratic_hm ())

(* No shipped adversary sends quadratic-HM a targeted message, so this one
   makes the crowd fork. At n = 41 with split inputs, nodes 0–20 vote 0
   and a certificate takes 21 votes. Corrupt node 0 signs its iteration-1
   vote for 0 and sends it to the lower half only, so the lower half alone
   forms a certificate and must leave the crowd in round 1. *)
let half_voter () =
  { Engine.adv_name = "half-voter";
    model = Corruption.Adaptive;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 0 ]);
    intervene =
      (fun view ->
        if view.Engine.round = 0 then
          [ Engine.Inject
              { src = 0;
                dst = Engine.Only (List.init (view.Engine.n / 2) Fun.id);
                payload =
                  Quadratic_hm.sign_vote view.Engine.env ~signer:0 ~iter:1
                    ~bit:false None } ]
        else []) }

let test_qhm_crowd_forked_vote () =
  let n = 41 in
  check_equivalent (quadratic_hm ()) ~adversary:half_voter ~n ~budget:1
    ~seed:7L "qhm half voter";
  let audits = Hashtbl.create 16 in
  let o =
    observe_run (quadratic_hm ()) ~audits ~sparse:true
      ~adversary:(half_voter ()) ~n ~budget:1 ~seed:7L
  in
  (* Nobody commits in round 1: the only nodes stepped are the honest
     members of the lower half, on their forked listeners. *)
  Alcotest.(check (list int))
    "round 1 steps the forked half" (List.init 19 succ)
    (Hashtbl.find audits 1);
  Alcotest.(check bool) "honest nodes decide" true
    (Array.for_all Option.is_some (Array.sub o.o_outputs 1 (n - 1)))

(* The §3 protocols: one listen per distinct inbox and an O(1) decision
   per node. Sub-third and Chen–Micali count the nodes that saw ample ACKs
   for both bits into [env.conflicts], which E5 and E5b read, so both
   paths must count the same. *)
let third_params = Params.make ~lambda:20 ~max_epochs:5 ()

let warmup_third () =
  (Warmup_third.protocol ~params:third_params, Warmup_third.sparse_step)

let sub_third mode =
  ( Sub_third.protocol ~params:third_params ~world:`Hybrid ~mode,
    Sub_third.sparse_step )

let chen_micali ~erasure =
  ( Babaselines.Chen_micali.protocol ~params:third_params ~erasure,
    Babaselines.Chen_micali.sparse_step )

let sub_third_conflicts env _ = string_of_int env.Sub_third.conflicts

let cm_conflicts env _ = string_of_int env.Babaselines.Chen_micali.conflicts

let eraser () = Baattacks.Eraser.make ()

let silencer () = Baattacks.Eraser.silencer ()

let test_warmup_crowd_adversaries () =
  List.iter
    (fun (name, adversary) ->
      check_equivalent (warmup_third ()) ~adversary ~n:41 ~budget:13 ~seed:5L
        ("warmup " ^ name))
    [ ("passive", passive); ("eraser", eraser); ("silencer", silencer) ]

(* Split-vote injects each bit into one half of the network, so inboxes
   are private (at seed 4 a private inbox changes a tally); the
   equivocator mirrors every ACKer's ticket, which makes bit-agnostic
   nodes see ample ACKs for both bits. *)
let test_sub_third_crowd_adversaries () =
  List.iter
    (fun (mode, label) ->
      let conflicts =
        List.concat_map
          (fun seed ->
            List.map
              (fun (name, adversary) ->
                let o =
                  equal_runs ~extra:sub_third_conflicts (sub_third mode)
                    ~adversary ~n:120 ~budget:39 ~seed
                    (Printf.sprintf "%s %s seed %Ld" label name seed)
                in
                int_of_string o.o_extra)
              [ ("passive", passive);
                ("eraser", eraser);
                ("silencer", silencer);
                ("split-vote", fun () -> Baattacks.Split_vote.sub_third ());
                ("equivocator", fun () -> Baattacks.Equivocator.make ()) ])
          [ 3L; 4L ]
      in
      if mode = Sub_third.Bit_agnostic then
        Alcotest.(check bool) (label ^ ": some run conflicts") true
          (List.exists (fun c -> c > 0) conflicts))
    [ (Sub_third.Bit_specific, "sub-third");
      (Sub_third.Bit_agnostic, "sub-third-agnostic") ]

let test_cm_crowd_adversaries () =
  List.iter
    (fun erasure ->
      let label = if erasure then "chen-micali" else "cm-no-erasure" in
      List.iter
        (fun (name, adversary) ->
          let o =
            equal_runs ~extra:cm_conflicts (chen_micali ~erasure) ~adversary
              ~n:120 ~budget:30 ~seed:3L
              (label ^ " " ^ name)
          in
          if name = "cm-equivocator" then
            Alcotest.(check bool)
              (label ^ ": conflicts iff no erasure")
              (not erasure)
              (int_of_string o.o_extra > 0))
        [ ("passive", passive);
          ("eraser", eraser);
          ("silencer", silencer);
          ("cm-equivocator", fun () -> Baattacks.Cm_equivocator.make ()) ])
    [ true; false ]

(* Under erasure a node erases its slot key after every ACK draw, won or
   lost, so after R epochs every node still honest signs from slot R on,
   on both paths. *)
let test_cm_crowd_erases_every_ack_round () =
  let r = third_params.Params.max_epochs in
  let slots env (result : Engine.result) =
    let fs = env.Babaselines.Chen_micali.fs in
    let honest = List.filter (fun i -> not result.Engine.corrupt.(i)) in
    String.concat ","
      (List.map
         (fun i -> string_of_int (Bacrypto.Forward_secure.current_slot fs i))
         (honest (List.init 120 Fun.id)))
  in
  List.iter
    (fun (name, adversary, honest) ->
      let o =
        equal_runs ~extra:slots (chen_micali ~erasure:true) ~adversary ~n:120
          ~budget:30 ~seed:3L ("erasure " ^ name)
      in
      Alcotest.(check string)
        (name ^ ": every honest node at slot R")
        (String.concat "," (List.init honest (fun _ -> string_of_int r)))
        o.o_extra)
    [ ("passive", passive, 120);
      ("cm-equivocator", (fun () -> Baattacks.Cm_equivocator.make ()), 90) ]

let test_third_crowd_hook_reusable () =
  check_hook_reusable (sub_third Sub_third.Bit_specific);
  check_hook_reusable (chen_micali ~erasure:true)

(* --- 3. passive sparse audit = winners ∪ halters ----------------------- *)

let test_passive_sparse_audit_is_winners_and_halters () =
  let n = 201 in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let collector = Trace.collector () in
  let audits = Hashtbl.create 16 in
  let result =
    Engine.run
      ~tracer:(Trace.observe collector)
      ~sparse:(recording (Sub_hm.sparse_step ()) audits)
      proto ~adversary:(passive ()) ~n ~budget:0
      ~inputs:(Scenario.split_inputs ~n)
      ~max_rounds:60 ~seed:13L
  in
  let module Iset = Set.Make (Int) in
  let senders = Hashtbl.create 16 and halters = Hashtbl.create 16 in
  let add tbl r i =
    Hashtbl.replace tbl r
      (Iset.add i (Option.value (Hashtbl.find_opt tbl r) ~default:Iset.empty))
  in
  List.iter
    (function
      | Trace.Sent { round; node; _ } -> add senders round node
      | Trace.Halted { round; node; _ } -> add halters round node
      | _ -> ())
    (Trace.events collector);
  Alcotest.(check bool) "run decided" true result.Engine.all_honest_decided;
  let some_round_was_sparse = ref false in
  for r = 0 to result.Engine.rounds_used - 1 do
    let audited =
      match Hashtbl.find_opt audits r with Some l -> l | None -> []
    in
    let expected =
      Iset.union
        (Option.value (Hashtbl.find_opt senders r) ~default:Iset.empty)
        (Option.value (Hashtbl.find_opt halters r) ~default:Iset.empty)
    in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d audit" r)
      (Iset.elements expected) audited;
    if List.length audited < n / 2 then some_round_was_sparse := true
  done;
  Alcotest.(check bool) "some round did sub-linear work" true
    !some_round_was_sparse

let () =
  let qcheck =
    List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xba007 |]))
  in
  Alcotest.run "sparse"
    [ ("active-set", qcheck [ qcheck_dense_audit_matches_reference ]);
      ( "crowd-equivalence",
        [ Alcotest.test_case "all adversaries, hybrid world" `Quick
            test_crowd_equivalence_adversaries;
          Alcotest.test_case "real world" `Quick
            test_crowd_equivalence_real_world;
          Alcotest.test_case "hook reusable across runs" `Quick
            test_crowd_hook_reusable_across_runs;
          Alcotest.test_case "iteration cap, both worlds" `Quick
            test_crowd_equivalence_iteration_cap;
          Alcotest.test_case "quadratic-hm adversaries" `Quick
            test_qhm_crowd_adversaries;
          Alcotest.test_case "quadratic-hm iteration cap" `Quick
            test_qhm_crowd_iteration_cap;
          Alcotest.test_case "quadratic-hm hook reuse" `Quick
            test_qhm_crowd_hook_reusable;
          Alcotest.test_case "quadratic-hm forked vote" `Quick
            test_qhm_crowd_forked_vote;
          Alcotest.test_case "warmup-third adversaries" `Quick
            test_warmup_crowd_adversaries;
          Alcotest.test_case "sub-third, both modes" `Quick
            test_sub_third_crowd_adversaries;
          Alcotest.test_case "chen-micali adversaries" `Quick
            test_cm_crowd_adversaries;
          Alcotest.test_case "chen-micali erasure slots" `Quick
            test_cm_crowd_erases_every_ack_round;
          Alcotest.test_case "§3 hook reuse" `Quick
            test_third_crowd_hook_reusable ] );
      ( "audit-footprint",
        [ Alcotest.test_case "passive audit = winners ∪ halters" `Quick
            test_passive_sparse_audit_is_winners_and_halters ] ) ]
