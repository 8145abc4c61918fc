(* Equivalence of the structurally-shared delivery engine against a naive
   reference implementation.

   The engine delivers each multicast by consing it once onto a shared
   tail; the reference below rebuilds every inbox element-by-element (cons
   per recipient + reverse), which is the behavior the engine had before
   the sharing optimization. Random scripted scenarios — mixed
   multicast/unicast intents (including out-of-range and duplicate
   targets), halts, setup and mid-round corruptions, after-the-fact
   removals, and injections — must produce identical per-round inboxes,
   identical trace event streams, identical metrics, and identical result
   summaries under both. The real runs also pass [?series], so the
   engine's internal [Metrics.agrees_with_series] assertion is armed. *)

open Basim

(* ------------------------------------------------------------------ *)
(* Scripted scenarios                                                 *)
(* ------------------------------------------------------------------ *)

type plan = {
  n : int;
  max_rounds : int;
  setup_corrupt : int list;
  halts : int array;  (* round at which a node halts, or max_int *)
  sends : (Engine.dest * int) list array array;  (* sends.(round).(node) *)
  actions : int Engine.action list array;  (* per-round, pre-sanitized *)
}

let msg_bits m = 8 + (m land 31)

type state = { me : int; stopped : bool }

(* The protocol ignores its inputs and rng and replays the plan; every
   step records the inbox it was handed into its node's [log] slot; the
   harness flattens the slots into (round, node) order afterwards. *)
let scripted plan (log : ((int * int) * (int * int) list) list ref array) :
    (unit, state, int) Engine.protocol =
  { Engine.proto_name = "scripted";
    make_env = (fun ~n:_ _ -> ());
    init = (fun () ~rng:_ ~n:_ ~me ~input:_ -> { me; stopped = false });
    step =
      (fun () s ~round ~inbox ->
        log.(s.me) := ((round, s.me), inbox) :: !(log.(s.me));
        let sends =
          List.map
            (fun (dst, payload) -> { Engine.dst; payload })
            plan.sends.(round).(s.me)
        in
        let s' = if plan.halts.(s.me) = round then { s with stopped = true } else s in
        (s', sends));
    output = (fun s -> if s.stopped then Some true else None);
    halted = (fun s -> s.stopped);
    msg_bits = (fun () m -> msg_bits m) }

let script_adversary plan : (unit, int) Engine.adversary =
  { Engine.adv_name = "scripted";
    model = Corruption.Strongly_adaptive;
    caps = Capability.unrestricted;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> plan.setup_corrupt);
    intervene = (fun view -> plan.actions.(view.Engine.round)) }

(* ------------------------------------------------------------------ *)
(* Reference engine (naive delivery, as before structural sharing)    *)
(* ------------------------------------------------------------------ *)

type rwire = {
  r_src : int;
  r_dst : Engine.dest;
  r_payload : int;
  mutable r_erased : bool;
  r_honest : bool;
}

type run_summary = {
  logs : ((int * int) * (int * int) list) list;  (* ((round, node), inbox) *)
  events : Trace.event list;
  metrics_json : string;
  outputs : bool option array;
  corrupt : bool array;
  corruptions : int;
  rounds_used : int;
  all_honest_decided : bool;
  halt_rounds : int option array;
}

let recipients_of n = function
  | Engine.All -> n
  | Engine.Only targets -> List.length targets

let run_reference plan =
  let n = plan.n in
  let metrics = Metrics.create ~n in
  let events = ref [] and log = ref [] in
  let emit e = events := e :: !events in
  let corrupt = Array.make n false in
  let halted = Array.make n false in
  let halt_rounds = Array.make n None in
  let corruptions = ref 0 in
  List.iter
    (fun i ->
      if not corrupt.(i) then begin
        corrupt.(i) <- true;
        incr corruptions
      end;
      emit (Trace.Corrupted { round = -1; node = i }))
    plan.setup_corrupt;
  let inboxes = Array.make n [] in
  let round = ref 0 in
  let running = ref true in
  while !running && !round < plan.max_rounds do
    let r = !round in
    Metrics.note_round metrics r;
    emit (Trace.Round_started { round = r });
    (* Phase 1: steps, halts, and this round's honest wires (ascending). *)
    let wires = ref [] in
    for i = 0 to n - 1 do
      if (not corrupt.(i)) && not halted.(i) then begin
        log := ((r, i), inboxes.(i)) :: !log;
        List.iter
          (fun (dst, payload) ->
            wires :=
              { r_src = i; r_dst = dst; r_payload = payload; r_erased = false;
                r_honest = true }
              :: !wires)
          plan.sends.(r).(i);
        if plan.halts.(i) = r then begin
          halted.(i) <- true;
          halt_rounds.(i) <- Some r;
          emit (Trace.Halted { round = r; node = i; output = Some true })
        end
      end
    done;
    let wires = List.rev !wires in
    (* Phase 2: scripted adversary actions, in order. *)
    let injections = ref [] in
    List.iter
      (fun action ->
        match action with
        | Engine.Corrupt i ->
            if not corrupt.(i) then begin
              corrupt.(i) <- true;
              incr corruptions
            end;
            emit (Trace.Corrupted { round = r; node = i })
        | Engine.Remove { victim; index } ->
            let seen = ref 0 in
            List.iter
              (fun w ->
                if w.r_src = victim && w.r_honest then begin
                  if !seen = index then begin
                    assert (not w.r_erased);
                    w.r_erased <- true;
                    Metrics.record_removal metrics;
                    emit
                      (Trace.Removed
                         { round = r;
                           victim;
                           multicast = (w.r_dst = Engine.All);
                           recipients = recipients_of n w.r_dst;
                           bits = msg_bits w.r_payload;
                           id = Trace.no_id;
                           kind = Trace.no_kind;
                           targets = [] })
                  end;
                  incr seen
                end)
              wires
        | Engine.Inject { src; dst; payload } ->
            Metrics.record_injection metrics ~bits:(msg_bits payload);
            emit
              (Trace.Injected
                 { round = r; src; recipients = recipients_of n dst;
                   bits = -1; id = Trace.no_id; kind = Trace.no_kind;
                   targets = [] });
            injections :=
              { r_src = src; r_dst = dst; r_payload = payload; r_erased = false;
                r_honest = false }
              :: !injections)
      plan.actions.(r);
    (* Phase 3: account (honest wires, descending) and deliver naively. *)
    let all_wires = List.rev_append !injections (List.rev wires) in
    List.iter
      (fun w ->
        if w.r_honest then begin
          let bits = msg_bits w.r_payload in
          (match w.r_dst with
          | Engine.All -> Metrics.record_honest_multicast metrics ~bits
          | Engine.Only targets ->
              Metrics.record_honest_unicast metrics
                ~recipients:(List.length targets) ~bits);
          if not w.r_erased then
            emit
              (Trace.Sent
                 { round = r;
                   node = w.r_src;
                   multicast = (w.r_dst = Engine.All);
                   recipients = recipients_of n w.r_dst;
                   bits;
                   id = Trace.no_id;
                   kind = Trace.no_kind;
                   targets = [] })
        end)
      all_wires;
    let next = Array.make n [] in
    List.iter
      (fun w ->
        if not w.r_erased then
          match w.r_dst with
          | Engine.All ->
              for j = 0 to n - 1 do
                next.(j) <- (w.r_src, w.r_payload) :: next.(j)
              done
          | Engine.Only targets ->
              List.iter
                (fun j ->
                  if j >= 0 && j < n then
                    next.(j) <- (w.r_src, w.r_payload) :: next.(j))
                targets)
      all_wires;
    for j = 0 to n - 1 do
      inboxes.(j) <- List.rev next.(j)
    done;
    incr round;
    let any_active = ref false in
    for i = 0 to n - 1 do
      if (not corrupt.(i)) && not halted.(i) then any_active := true
    done;
    if not !any_active then running := false
  done;
  let outputs =
    Array.init n (fun i -> if halted.(i) then Some true else None)
  in
  let all_honest_decided =
    let ok = ref true in
    for i = 0 to n - 1 do
      if (not corrupt.(i)) && not halted.(i) then ok := false
    done;
    !ok
  in
  { logs = List.rev !log;
    events = List.rev !events;
    metrics_json = Baobs.Json.to_string (Metrics.to_json metrics);
    outputs;
    corrupt;
    corruptions = !corruptions;
    rounds_used = !round;
    all_honest_decided;
    halt_rounds }

let run_real plan =
  let log = Array.init plan.n (fun _ -> ref []) in
  let collector = Trace.collector () in
  let series = Baobs.Series.create ~n:plan.n in
  let result =
    Engine.run
      ~tracer:(Trace.observe collector)
      ~series
      (scripted plan log)
      ~adversary:(script_adversary plan)
      ~n:plan.n ~budget:plan.n
      ~inputs:(Array.make plan.n false)
      ~max_rounds:plan.max_rounds ~seed:11L
  in
  let logs =
    Array.to_list log
    |> List.concat_map (fun slot -> List.rev !slot)
    |> List.sort (fun (k1, _) (k2, _) -> compare (k1 : int * int) k2)
  in
  { logs;
    events = Trace.events collector;
    metrics_json = Baobs.Json.to_string (Metrics.to_json result.Engine.metrics);
    outputs = result.Engine.outputs;
    corrupt = result.Engine.corrupt;
    corruptions = result.Engine.corruptions;
    rounds_used = result.Engine.rounds_used;
    all_honest_decided = result.Engine.all_honest_decided;
    halt_rounds = result.Engine.halt_rounds }

(* ------------------------------------------------------------------ *)
(* Scenario generation                                                *)
(* ------------------------------------------------------------------ *)

type raw_action = C of int | R of int * int | I of int * Engine.dest * int

let gen_dest n =
  QCheck.Gen.(
    frequency
      [ (3, return Engine.All);
        (2,
         map
           (fun targets -> Engine.Only targets)
           (* Includes -1 and n: delivery drops out-of-range targets of
              honest sends (injections naming one are illegal, and
              [sanitize] drops them); duplicates deliver twice. *)
           (list_size (0 -- 4) (int_range (-1) n))) ])

(* Turn raw candidates into a legal script by tracking who is corrupt,
   who halted, and how many wires each node put up this round; illegal
   candidates are dropped, Remove indices are folded into range, and
   double-erasures are skipped. *)
let sanitize ~n ~rounds ~setup ~halts ~sends raw =
  let corrupt = Array.make n false in
  List.iter (fun i -> corrupt.(i) <- true) setup;
  let halted = Array.make n false in
  let actions = Array.make rounds [] in
  for r = 0 to rounds - 1 do
    let wire_count = Array.make n 0 in
    for i = 0 to n - 1 do
      if (not corrupt.(i)) && not halted.(i) then begin
        wire_count.(i) <- List.length sends.(r).(i);
        if halts.(i) = r then halted.(i) <- true
      end
    done;
    let erased = Hashtbl.create 8 in
    actions.(r) <-
      List.filter_map
        (fun candidate ->
          match candidate with
          | C i ->
              corrupt.(i) <- true;
              Some (Engine.Corrupt i)
          | R (v, k) ->
              if corrupt.(v) && wire_count.(v) > 0 then begin
                let index = k mod wire_count.(v) in
                if Hashtbl.mem erased (v, index) then None
                else begin
                  Hashtbl.add erased (v, index) ();
                  Some (Engine.Remove { victim = v; index })
                end
              end
              else None
          | I (src, dst, payload) ->
              let in_range =
                match dst with
                | Engine.All -> true
                | Engine.Only targets ->
                    List.for_all (fun j -> j >= 0 && j < n) targets
              in
              if corrupt.(src) && in_range then
                Some (Engine.Inject { src; dst; payload })
              else None)
        raw.(r)
  done;
  actions

let gen_plan =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    int_range 1 4 >>= fun rounds ->
    list_size (0 -- 2) (int_range 0 (n - 1)) >>= fun setup ->
    array_size (return n)
      (frequency [ (3, return max_int); (1, int_range 0 (rounds - 1)) ])
    >>= fun halts ->
    array_size (return rounds)
      (array_size (return n)
         (list_size (0 -- 3) (pair (gen_dest n) (int_range 0 100))))
    >>= fun sends ->
    array_size (return rounds)
      (list_size (0 -- 4)
         (frequency
            [ (2, map (fun i -> C i) (int_range 0 (n - 1)));
              (2, map2 (fun v k -> R (v, k)) (int_range 0 (n - 1)) small_nat);
              (2,
               map3
                 (fun s d p -> I (s, d, p))
                 (int_range 0 (n - 1))
                 (gen_dest n) (int_range 0 100)) ]))
    >>= fun raw ->
    let actions = sanitize ~n ~rounds ~setup ~halts ~sends raw in
    return { n; max_rounds = rounds; setup_corrupt = setup; halts; sends; actions })

let print_plan plan =
  Printf.sprintf "{n=%d; rounds=%d; setup=[%s]; actions/round=[%s]}" plan.n
    plan.max_rounds
    (String.concat ";" (List.map string_of_int plan.setup_corrupt))
    (String.concat ";"
       (Array.to_list
          (Array.map (fun acts -> string_of_int (List.length acts)) plan.actions)))

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let equivalent plan =
  let real = run_real plan and reference = run_reference plan in
  real.logs = reference.logs
  && real.events = reference.events
  && String.equal real.metrics_json reference.metrics_json
  && real.outputs = reference.outputs
  && real.corrupt = reference.corrupt
  && real.corruptions = reference.corruptions
  && real.rounds_used = reference.rounds_used
  && real.all_honest_decided = reference.all_honest_decided
  && real.halt_rounds = reference.halt_rounds

let qcheck_tests =
  [ QCheck.Test.make ~name:"shared delivery = naive reference" ~count:300
      (QCheck.make ~print:print_plan gen_plan)
      equivalent ]

(* A deterministic scenario dense in edge cases: multicasts interleaved
   with unicasts to the same node (exercises the splice path), duplicate
   and out-of-range unicast targets, removal of both a multicast and a
   unicast, injection ordering ahead of honest wires, and a corruption of
   a node that halted the same round. *)
let test_dense_scenario () =
  let n = 4 in
  let sends =
    [| [| [ (Engine.All, 7); (Engine.Only [ 2; 2; -1; 4 ], 9) ];
          [ (Engine.Only [ 0 ], 11); (Engine.All, 13) ];
          [ (Engine.All, 5) ];
          [ (Engine.Only [ 1; 0 ], 21) ]
       |];
       [| [ (Engine.All, 3) ];
          [];
          [ (Engine.Only [ 3; 3 ], 17) ];
          [ (Engine.All, 19) ]
       |]
    |]
  in
  let actions =
    [| [ Engine.Corrupt 3;
         Engine.Remove { victim = 3; index = 0 };
         Engine.Corrupt 2;
         Engine.Remove { victim = 2; index = 0 };
         Engine.Inject { src = 3; dst = Engine.Only [ 0; 0; 3 ]; payload = 42 };
         Engine.Inject { src = 3; dst = Engine.All; payload = 40 } ];
       [ Engine.Corrupt 1; Engine.Corrupt 0 ]
    |]
  in
  let plan =
    { n;
      max_rounds = 2;
      setup_corrupt = [];
      halts = [| max_int; 1; max_int; max_int |];
      sends;
      actions }
  in
  Alcotest.(check bool) "dense scenario equivalent" true (equivalent plan)

(* ------------------------------------------------------------------ *)
(* Golden digests: every ba_run protocol, seeded                      *)
(* ------------------------------------------------------------------ *)

(* The scripted differential covers engine mechanics; these pin real
   protocols end to end. Each scenario is a seeded adversarial execution
   at small n, reduced to two SHA-256 digests: one of its trace as a
   JSON list, one of its result (rounds, outputs, halt rounds,
   corruptions) with its metrics and per-round series. The expected
   digests live in fixtures/golden_digests.txt, one
   "<trace> <result> <scenario>" line each; a change to any observable
   byte of any protocol's execution fails here. *)
let golden_fixture = "fixtures/golden_digests.txt"

let digests (type env state msg) ?sparse
    (proto : (env, state, msg) Engine.protocol) ~adversary ~n ~budget
    ~inputs ~max_rounds ~seed =
  let collector = Trace.collector () in
  let series = Baobs.Series.create ~n in
  let r =
    Engine.run ~tracer:(Trace.observe collector) ~series ?sparse proto
      ~adversary ~n ~budget ~inputs ~max_rounds ~seed
  in
  let open Baobs.Json in
  let opt f = function None -> Null | Some v -> f v in
  let arr f a = List (Array.to_list (Array.map f a)) in
  let trace = List (List.map Trace.to_json (Trace.events collector)) in
  let result =
    Obj
      [ ("rounds_used", Int r.Engine.rounds_used);
        ("outputs", arr (opt (fun b -> Bool b)) r.Engine.outputs);
        ("halt_rounds", arr (opt (fun h -> Int h)) r.Engine.halt_rounds);
        ("corrupt", arr (fun b -> Bool b) r.Engine.corrupt);
        ("metrics", Metrics.to_json r.Engine.metrics);
        ("series", Baobs.Series.to_json series) ]
  in
  let hex j = Bacrypto.Sha256.(to_hex (digest_string (to_string j))) in
  hex trace ^ " " ^ hex result

let passive () = Engine.passive ~name:"none" ~model:Corruption.Adaptive

let params ~lambda ~epochs = Bacore.Params.make ~lambda ~max_epochs:epochs ()

let golden_scenarios =
  let open Bacore in
  let sub_hm_split_vote ?sparse () =
    digests ?sparse
      (Sub_hm.protocol ~params:(params ~lambda:12 ~epochs:6) ~world:`Hybrid)
      ~adversary:(Baattacks.Split_vote.sub_hm ())
      ~n:60 ~budget:18
      ~inputs:(Scenario.unanimous_inputs ~n:60 true)
      ~max_rounds:36 ~seed:5L
  in
  let chen_micali ~erasure () =
    digests
      (Babaselines.Chen_micali.protocol ~params:(params ~lambda:12 ~epochs:4)
         ~erasure)
      ~adversary:(Baattacks.Cm_equivocator.make ())
      ~n:60 ~budget:18 ~inputs:(Scenario.split_inputs ~n:60) ~max_rounds:14
      ~seed:12L
  in
  [ ("sub-hm split-vote", fun () -> sub_hm_split_vote ());
    ( "sub-hm split-vote sparse",
      fun () -> sub_hm_split_vote ~sparse:(Sub_hm.sparse_step ()) () );
    ( "sub-hm-real eraser",
      fun () ->
        digests
          (Sub_hm.protocol ~params:(params ~lambda:12 ~epochs:5) ~world:`Real)
          ~adversary:(Baattacks.Eraser.make ())
          ~n:30 ~budget:9
          ~inputs:(Scenario.unanimous_inputs ~n:30 true)
          ~max_rounds:32 ~seed:7L );
    ( "sub-third split-vote",
      fun () ->
        digests
          (Sub_third.protocol ~params:(params ~lambda:12 ~epochs:4)
             ~world:`Hybrid ~mode:Sub_third.Bit_specific)
          ~adversary:(Baattacks.Split_vote.sub_third ())
          ~n:60 ~budget:18 ~inputs:(Scenario.split_inputs ~n:60)
          ~max_rounds:14 ~seed:6L );
    ( "sub-third equivocator",
      fun () ->
        digests
          (Sub_third.protocol ~params:(params ~lambda:12 ~epochs:4)
             ~world:`Hybrid ~mode:Sub_third.Bit_agnostic)
          ~adversary:(Baattacks.Equivocator.make ())
          ~n:60 ~budget:18 ~inputs:(Scenario.split_inputs ~n:60)
          ~max_rounds:14 ~seed:6L );
    ( "warmup-third eraser",
      fun () ->
        digests
          (Warmup_third.protocol ~params:(params ~lambda:12 ~epochs:4))
          ~adversary:(Baattacks.Eraser.make ())
          ~n:30 ~budget:9
          ~inputs:(Scenario.unanimous_inputs ~n:30 true)
          ~max_rounds:28 ~seed:7L );
    ( "quadratic-hm eraser",
      fun () ->
        digests (Quadratic_hm.protocol ())
          ~adversary:(Baattacks.Eraser.make ())
          ~n:31 ~budget:9 ~inputs:(Scenario.split_inputs ~n:31)
          ~max_rounds:40 ~seed:8L );
    ( "dolev-strong silencer",
      fun () ->
        digests
          (Babaselines.Dolev_strong.protocol ~sender:0 ~f:5)
          ~adversary:(Baattacks.Eraser.silencer ())
          ~n:16 ~budget:3
          ~inputs:(Scenario.unanimous_inputs ~n:16 true)
          ~max_rounds:12 ~seed:9L );
    ( "static-committee takeover",
      fun () ->
        digests
          (Babaselines.Static_committee.protocol ~committee_size:8)
          ~adversary:(Baattacks.Takeover.make ~force:true ())
          ~n:60 ~budget:16
          ~inputs:(Scenario.unanimous_inputs ~n:60 false)
          ~max_rounds:6 ~seed:9L );
    ( "nakamoto none",
      fun () ->
        digests
          (Babaselines.Nakamoto.protocol ~p:0.05 ~confirmations:3)
          ~adversary:(passive ()) ~n:20 ~budget:0
          ~inputs:(Scenario.split_inputs ~n:20)
          ~max_rounds:60 ~seed:10L );
    ( "sparse-relay eraser",
      fun () ->
        digests
          (Babaselines.Sparse_relay.protocol ~d:3)
          ~adversary:(Baattacks.Eraser.make ())
          ~n:30 ~budget:5
          ~inputs:(Scenario.unanimous_inputs ~n:30 true)
          ~max_rounds:12 ~seed:11L );
    ("chen-micali cm-equivocator", chen_micali ~erasure:true);
    ("chen-micali-no-erasure cm-equivocator", chen_micali ~erasure:false) ]

(* [name -> "<trace> <result>"] from the fixture file. *)
let golden_expected =
  lazy
    (let ic = open_in golden_fixture in
     let rec lines acc =
       match input_line ic with
       | line -> (
           match String.split_on_char ' ' line with
           | trace :: result :: (_ :: _ as name) ->
               lines ((String.concat " " name, trace ^ " " ^ result) :: acc)
           | _ -> lines acc)
       | exception End_of_file ->
           close_in ic;
           acc
     in
     lines [])

let golden_test (name, run) =
  Alcotest.test_case name `Quick (fun () ->
      let expected =
        match List.assoc_opt name (Lazy.force golden_expected) with
        | Some d -> d
        | None -> "(no fixture entry)"
      in
      Alcotest.(check string) (name ^ " digests") expected (run ()))

(* ------------------------------------------------------------------ *)
(* Allocation pins for the eligibility hot path                       *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words per call of [f], averaged over 10,000 calls after
   one warm-up call (which sets up the per-domain scratch contexts). The
   sparse engine flips one coin per active node per round, so anything
   these calls allocate grows a round's allocation linearly in n. *)
let words_per_call f =
  Baobs.Probe.disable ();
  ignore (Sys.opaque_identity (f 0));
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    ignore (Sys.opaque_identity (f i))
  done;
  (Gc.minor_words () -. before) /. 10_000.

let check_words label ~max words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f words/call (pin %d)" label words max)
    true
    (words <= float_of_int max)

let test_losing_sample_alloc () =
  let fmine = Bafmine.Fmine.create (Bacrypto.Rng.create 3L) in
  let msg = Bacore.Sub_hm.mining_string `Vote ~iter:3 ~bit:true in
  (* p = 0 loses every draw, so no call enters the table *)
  check_words "losing Fmine.sample" ~max:4
    (words_per_call (fun i -> Bafmine.Fmine.sample fmine ~node:i ~msg ~p:0.0));
  Alcotest.(check int) "nothing memoized" 0 (Bafmine.Fmine.successes fmine)

let test_mac_with_alloc () =
  let kctx = Bacrypto.Hmac.precompute ~key:"allocation-pin" in
  let msg = "shm:Commit:12:0" in
  (* the 32-byte tag itself is 6 words; nothing else may allocate *)
  check_words "Hmac.mac_with" ~max:6
    (words_per_call (fun _ -> Bacrypto.Hmac.mac_with kctx msg))

let test_mining_string_alloc () =
  check_words "Sub_hm.mining_string" ~max:0
    (words_per_call (fun i ->
         Bacore.Sub_hm.mining_string `Propose ~iter:(1 + (i mod 60))
           ~bit:(i land 1 = 1)))

let () =
  Alcotest.run "engine_perf"
    ([ ( "delivery",
         [ Alcotest.test_case "dense scripted scenario" `Quick
             test_dense_scenario ] ) ]
    @ [ ("golden-digests", List.map golden_test golden_scenarios) ]
    @ [ ( "alloc-pins",
          [ Alcotest.test_case "losing Fmine.sample <= 4 words" `Quick
              test_losing_sample_alloc;
            Alcotest.test_case "Hmac.mac_with <= 6 words" `Quick
              test_mac_with_alloc;
            Alcotest.test_case "mining_string = 0 words" `Quick
              test_mining_string_alloc ] ) ]
    @ [ ( "properties",
          List.map
            (QCheck_alcotest.to_alcotest
               ~rand:(Random.State.make [| 0xba51c |]))
            qcheck_tests ) ])
