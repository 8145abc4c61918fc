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
   summaries under both. The reference keeps its own Definition-7
   counters rather than calling [Metrics.observe], so the comparison of
   metrics JSON also tests the engine's accounting fold. *)

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

(* The reference's Definition-7 counters. *)
type counters = {
  mutable multicasts : int;
  mutable multicast_bits : int;
  mutable unicasts : int;
  mutable unicast_bits : int;
  mutable removals : int;
  mutable injections : int;
  mutable injection_bits : int;
  mutable last_round : int;
}

(* [counters] in the layout of [Metrics.to_json]. *)
let counters_json ~n c =
  let open Baobs.Json in
  to_string
    (Obj
       [ ("n", Int n);
         ("rounds", Int (c.last_round + 1));
         ("multicasts", Int c.multicasts);
         ("multicast_bits", Int c.multicast_bits);
         ("unicasts", Int c.unicasts);
         ("unicast_bits", Int c.unicast_bits);
         ("removals", Int c.removals);
         ("injections", Int c.injections);
         ("injection_bits", Int c.injection_bits);
         ("classical_messages", Int ((c.multicasts * n) + c.unicasts));
         ("classical_bits", Int ((c.multicast_bits * n) + c.unicast_bits)) ])

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
  let c =
    { multicasts = 0; multicast_bits = 0; unicasts = 0; unicast_bits = 0;
      removals = 0; injections = 0; injection_bits = 0; last_round = -1 }
  in
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
    c.last_round <- r;
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
                    c.removals <- c.removals + 1;
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
            c.injections <- c.injections + 1;
            c.injection_bits <- c.injection_bits + msg_bits payload;
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
          | Engine.All ->
              c.multicasts <- c.multicasts + 1;
              c.multicast_bits <- c.multicast_bits + bits
          | Engine.Only targets ->
              let recipients = List.length targets in
              c.unicasts <- c.unicasts + recipients;
              c.unicast_bits <- c.unicast_bits + (recipients * bits));
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
    metrics_json = counters_json ~n c;
    outputs;
    corrupt;
    corruptions = !corruptions;
    rounds_used = !round;
    all_honest_decided;
    halt_rounds }

let run_real plan =
  let log = Array.init plan.n (fun _ -> ref []) in
  let collector = Trace.collector () in
  let result =
    Engine.run
      ~tracer:(Trace.observe collector)
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

(* One seeded run: its trace events and result. *)
let run_collected (type env state msg) ?sparse ?labeler
    (proto : (env, state, msg) Engine.protocol) ~adversary ~n ~budget
    ~inputs ~max_rounds ~seed =
  let collector = Trace.collector () in
  let r =
    Engine.run ~tracer:(Trace.observe collector) ?labeler ?sparse proto
      ~adversary ~n ~budget ~inputs ~max_rounds ~seed
  in
  (Trace.events collector, r)

let hex_of_string s = Bacrypto.Sha256.(to_hex (digest_string s))

(* The result (rounds, outputs, halt rounds, corruptions), metrics and
   series of a run as one JSON string. *)
let result_json ((_, r) : _ * Engine.result) =
  let open Baobs.Json in
  let opt f = function None -> Null | Some v -> f v in
  let arr f a = List (Array.to_list (Array.map f a)) in
  to_string
    (Obj
       [ ("rounds_used", Int r.Engine.rounds_used);
         ("outputs", arr (opt (fun b -> Bool b)) r.Engine.outputs);
         ("halt_rounds", arr (opt (fun h -> Int h)) r.Engine.halt_rounds);
         ("corrupt", arr (fun b -> Bool b) r.Engine.corrupt);
         ("metrics", Metrics.to_json r.Engine.metrics);
         ("series", Metrics.series_to_json r.Engine.metrics) ])

let digests_of ((events, _) as run) =
  let trace = Baobs.Json.List (List.map Trace.to_json events) in
  hex_of_string (Baobs.Json.to_string trace) ^ " "
  ^ hex_of_string (result_json run)

let digests ?sparse proto ~adversary ~n ~budget ~inputs ~max_rounds ~seed =
  digests_of
    (run_collected ?sparse proto ~adversary ~n ~budget ~inputs ~max_rounds
       ~seed)

let passive () = Engine.passive ~name:"none" ~model:Corruption.Adaptive

let params ~lambda ~epochs = Bacore.Params.make ~lambda ~max_epochs:epochs ()

(* The golden sub-HM split-vote scenario: 18 corrupt nodes of 60 inject
   conflicting votes, so its trace carries [Injected] events. *)
let sub_hm_split_vote ?sparse ?labeler () =
  run_collected ?sparse ?labeler
    (Bacore.Sub_hm.protocol ~params:(params ~lambda:12 ~epochs:6)
       ~world:`Hybrid)
    ~adversary:(Baattacks.Split_vote.sub_hm ())
    ~n:60 ~budget:18
    ~inputs:(Scenario.unanimous_inputs ~n:60 true)
    ~max_rounds:36 ~seed:5L

let golden_scenarios =
  let open Bacore in
  let chen_micali ~erasure () =
    digests
      (Babaselines.Chen_micali.protocol ~params:(params ~lambda:12 ~epochs:4)
         ~erasure)
      ~adversary:(Baattacks.Cm_equivocator.make ())
      ~n:60 ~budget:18 ~inputs:(Scenario.split_inputs ~n:60) ~max_rounds:14
      ~seed:12L
  in
  let quadratic_hm_eraser ?sparse () =
    digests ?sparse (Quadratic_hm.protocol ())
      ~adversary:(Baattacks.Eraser.make ())
      ~n:31 ~budget:9 ~inputs:(Scenario.split_inputs ~n:31)
      ~max_rounds:40 ~seed:8L
  in
  let sub_third_split_vote ?sparse () =
    digests ?sparse
      (Sub_third.protocol ~params:(params ~lambda:12 ~epochs:4)
         ~world:`Hybrid ~mode:Sub_third.Bit_specific)
      ~adversary:(Baattacks.Split_vote.sub_third ())
      ~n:60 ~budget:18 ~inputs:(Scenario.split_inputs ~n:60)
      ~max_rounds:14 ~seed:6L
  in
  [ ("sub-hm split-vote", fun () -> digests_of (sub_hm_split_vote ()));
    ( "sub-hm split-vote sparse",
      fun () ->
        digests_of (sub_hm_split_vote ~sparse:(Sub_hm.sparse_step ()) ()) );
    ( "sub-hm split-vote labeled",
      fun () -> digests_of (sub_hm_split_vote ~labeler:Sub_hm.msg_kind ()) );
    ( "sub-hm-real eraser",
      fun () ->
        digests
          (Sub_hm.protocol ~params:(params ~lambda:12 ~epochs:5) ~world:`Real)
          ~adversary:(Baattacks.Eraser.make ())
          ~n:30 ~budget:9
          ~inputs:(Scenario.unanimous_inputs ~n:30 true)
          ~max_rounds:32 ~seed:7L );
    ("sub-third split-vote", fun () -> sub_third_split_vote ());
    ( "sub-third split-vote sparse",
      fun () -> sub_third_split_vote ~sparse:(Sub_third.sparse_step ()) () );
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
    ("quadratic-hm eraser", fun () -> quadratic_hm_eraser ());
    ( "quadratic-hm eraser sparse",
      fun () -> quadratic_hm_eraser ~sparse:(Quadratic_hm.sparse_step ()) () );
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

(* Causal recording changes only the trace: a labeled run's metrics and
   series equal the unlabeled run's, including the bits of the
   injections that the unlabeled trace leaves out. *)
let test_labels_keep_accounting () =
  let ((_, r) as plain) = sub_hm_split_vote () in
  let labeled = sub_hm_split_vote ~labeler:Bacore.Sub_hm.msg_kind () in
  Alcotest.(check bool) "the run injects" true
    (Metrics.injections r.Engine.metrics > 0);
  Alcotest.(check string) "result, metrics and series" (result_json plain)
    (result_json labeled)

(* ------------------------------------------------------------------ *)
(* Analysis digests: every ba_obs report and causal rendering, pinned *)
(* ------------------------------------------------------------------ *)

(* Four traces: the two committed legacy traces, and the golden
   split-vote run unlabeled (its injections carry no bits) and labeled.
   Each is reduced to one SHA-256 digest per rendering that
   [ba_obs report] and [ba_obs causal] print, at their default [--top]
   of 10. The expected digests live in fixtures/analysis_digests.txt,
   one "<digest> <rendering> <trace>" line each. *)
let analysis_fixture = "fixtures/analysis_digests.txt"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let jsonl_of_events events =
  String.concat ""
    (List.map (fun e -> Baobs.Json.to_string (Trace.to_json e) ^ "\n") events)

let analysis_traces =
  let split_vote ?labeler () =
    let events, _ = sub_hm_split_vote ?labeler () in
    jsonl_of_events events
  in
  [ ("legacy e1", fun () -> read_file "fixtures/legacy_e1_trace.jsonl");
    ("legacy split", fun () -> read_file "fixtures/legacy_split_trace.jsonl");
    ("sub-hm split-vote", fun () -> split_vote ());
    ( "sub-hm split-vote labeled",
      fun () -> split_vote ~labeler:Bacore.Sub_hm.msg_kind () ) ]

let analysis_renderings jsonl =
  let module R = Baobs_report.Report in
  let module C = Baobs_report.Causal in
  let events = Trace.of_jsonl_string jsonl in
  let report = R.of_events events and causal = C.of_events events in
  let json = Baobs.Json.to_string in
  [ ("report.text", R.to_text ~k:10 report);
    ("report.json", json (R.to_json ~k:10 report));
    ("report.csv", R.to_csv report);
    ("causal.text", C.to_text ~top:10 causal);
    ("causal.json", json (C.to_json causal));
    ("causal.csv", C.to_csv causal);
    ("causal.dot", C.to_dot causal);
    ("causal.chrome", json (C.to_chrome causal)) ]

(* [(trace, "<rendering> <digest>")] in file order. *)
let analysis_expected =
  lazy
    (List.filter_map
       (fun line ->
         match String.split_on_char ' ' line with
         | digest :: rendering :: (_ :: _ as trace) ->
             Some (String.concat " " trace, rendering ^ " " ^ digest)
         | _ -> None)
       (String.split_on_char '\n' (read_file analysis_fixture)))

let analysis_test (name, trace) =
  Alcotest.test_case name `Quick (fun () ->
      let expected =
        List.filter_map
          (fun (t, line) -> if t = name then Some line else None)
          (Lazy.force analysis_expected)
      in
      let actual =
        List.map
          (fun (rendering, text) -> rendering ^ " " ^ hex_of_string text)
          (analysis_renderings (trace ()))
      in
      Alcotest.(check (list string)) (name ^ " analysis digests") expected
        actual)

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
  check_words "losing Fmine.sample" ~max:0
    (words_per_call (fun i -> Bafmine.Fmine.sample fmine ~node:i ~msg ~p:0.0));
  Alcotest.(check int) "nothing memoized" 0 (Bafmine.Fmine.successes fmine)

(* A receiver checks every credential it is shown, and a dense node
   re-draws a memoized ticket: neither may allocate. *)
let test_verify_hit_alloc () =
  let fmine = Bafmine.Fmine.create (Bacrypto.Rng.create 3L) in
  let msg = Bacore.Sub_hm.mining_string `Commit ~iter:2 ~bit:false in
  Alcotest.(check bool) "p = 1 wins" true
    (Bafmine.Fmine.mine fmine ~node:5 ~msg ~p:1.0);
  check_words "Fmine.verify hit" ~max:0
    (words_per_call (fun _ -> Bafmine.Fmine.verify fmine ~node:5 ~msg))

let test_verify_unmined_alloc () =
  let fmine = Bafmine.Fmine.create (Bacrypto.Rng.create 3L) in
  ignore (Bafmine.Fmine.mine fmine ~node:0 ~msg:"mined" ~p:0.5);
  check_words "Fmine.verify, never-mined message" ~max:0
    (words_per_call (fun i ->
         Bafmine.Fmine.verify fmine ~node:i ~msg:"never-mined"))

let test_memoized_mine_alloc () =
  let fmine = Bafmine.Fmine.create (Bacrypto.Rng.create 3L) in
  let msg = Bacore.Sub_hm.mining_string `Status ~iter:1 ~bit:true in
  for node = 0 to 63 do
    ignore (Bafmine.Fmine.mine fmine ~node ~msg ~p:0.5)
  done;
  check_words "memoized Fmine.mine" ~max:0
    (words_per_call (fun i ->
         Bafmine.Fmine.mine fmine ~node:(i land 63) ~msg ~p:0.5))

(* A node's tie coin is an [Rng] draw, taken by every crowd member that
   ties in a round. [Rng.float] allocates only its boxed result. *)
let test_rng_alloc label ~max draw () =
  let rng = Bacrypto.Rng.create 3L in
  check_words label ~max (words_per_call (fun _ -> draw rng))

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

(* Both of the HM listener's calls build a certificate from a tally,
   whose endorsers are distinct: [Cert.make] then keeps the list and
   allocates only its record. *)
let test_cert_make_alloc () =
  let endorsements = List.init 20 (fun v -> (v, v)) in
  check_words "Cert.make, 20 distinct endorsers" ~max:4
    (words_per_call (fun i ->
         Bacore.Cert.make ~iter:(1 + (i land 7)) ~bit:true ~endorsements))

(* ------------------------------------------------------------------ *)
(* Work pins for the real-world eligibility path                      *)
(* ------------------------------------------------------------------ *)

(* [f ()] with the Probe counters on, and the call count of each probe
   over it. *)
let probed f =
  Baobs.Probe.reset ();
  Baobs.Probe.enable ();
  let result, snapshot =
    Fun.protect
      ~finally:(fun () ->
        Baobs.Probe.disable ();
        Baobs.Probe.reset ())
      (fun () ->
        let result = f () in
        (result, Baobs.Probe.snapshot ()))
  in
  let count name =
    List.fold_left
      (fun acc (probe, calls, _) -> if probe = name then calls else acc)
      0 snapshot
  in
  (result, count)

(* A passive real-world sub-HM run builds a VRF proof only for a winning
   draw, which is one per honest multicast, and verifies each distinct
   credential once however many receivers check it. The configuration is
   [ba_run -p sub-hm-real -n 61 --seed 5]: 207 multicasts, which took 366
   proofs and 7,300 verifies when every draw was proved and every check
   verified. *)
let test_real_world_vrf_work () =
  let n = 61 in
  let result, count =
    probed (fun () ->
        Engine.run
          (Bacore.Sub_hm.protocol ~params:(params ~lambda:40 ~epochs:40)
             ~world:`Real)
          ~adversary:(passive ()) ~n ~budget:0
          ~inputs:(Scenario.random_inputs ~n 5L)
          ~max_rounds:172 ~seed:5L)
  in
  let multicasts = Metrics.honest_multicasts result.Engine.metrics in
  let verifies = count "vrf.verify" in
  Alcotest.(check int) "vrf.eval = honest multicasts" multicasts
    (count "vrf.eval");
  Alcotest.(check bool)
    (Printf.sprintf "vrf.verify %d <= %d honest multicasts" verifies multicasts)
    true (verifies <= multicasts)

(* The warmup's crowd checks each signature once, where every dense
   receiver checks every one: a passive run through the crowd hook makes
   one [signature.verify] per signed message except the last epoch's
   ACKs, which nobody tallies (n of them). *)
let test_warmup_crowd_signature_work () =
  let n = 61 in
  let result, count =
    probed (fun () ->
        Engine.run ~sparse:(Bacore.Warmup_third.sparse_step ())
          (Bacore.Warmup_third.protocol ~params:(params ~lambda:40 ~epochs:8))
          ~adversary:(passive ()) ~n ~budget:0
          ~inputs:(Scenario.random_inputs ~n 3L)
          ~max_rounds:20 ~seed:3L)
  in
  let multicasts = Metrics.honest_multicasts result.Engine.metrics in
  Alcotest.(check int) "signature.sign = honest multicasts" multicasts
    (count "signature.sign");
  Alcotest.(check int) "signature.verify = multicasts - n" (multicasts - n)
    (count "signature.verify")

(* ------------------------------------------------------------------ *)
(* Work pins for the HM listener                                      *)
(* ------------------------------------------------------------------ *)

(* Every receiver verifies each message's own ticket, and each distinct
   certificate and proposal is verified once per run; the round memo
   saves hashing, never an eligibility call. These pins are the cost
   ledger's call totals at tier-1 size: the calls of each eligibility
   function over one seeded run, counted by wrapping [env.elig] as the
   ledger's traced runs do, and the sizes of the two positive caches. *)
type elig_work = {
  mutable mine : int;
  mutable sample : int;
  mutable verify : int;
  mutable verify_many : int;
}

let counted_sub_hm work proto =
  let module E = Bafmine.Eligibility in
  { proto with
    Engine.make_env =
      (fun ~n rng ->
        let env = proto.Engine.make_env ~n rng in
        let e = env.Bacore.Sub_hm.elig in
        { env with
          elig =
            { e with
              E.mine =
                (fun ~node ~msg ~p ->
                  work.mine <- work.mine + 1;
                  e.mine ~node ~msg ~p);
              sample =
                (fun ~node ~msg ~p ->
                  work.sample <- work.sample + 1;
                  e.sample ~node ~msg ~p);
              verify =
                (fun ~node ~msg ~p c ->
                  work.verify <- work.verify + 1;
                  e.verify ~node ~msg ~p c);
              verify_many =
                (fun ~msg ~p entries ->
                  work.verify_many <- work.verify_many + 1;
                  e.verify_many ~msg ~p entries) } }) }

(* [mine; sample; verify; verify_many; cert cache; proposal cache] *)
let test_sub_hm_work ~world ~n ~adversary ~budget ~crowd ~seed expected () =
  let work = { mine = 0; sample = 0; verify = 0; verify_many = 0 } in
  let proto =
    counted_sub_hm work
      (Bacore.Sub_hm.protocol ~params:(params ~lambda:40 ~epochs:60) ~world)
  in
  let sparse = if crowd then Some (Bacore.Sub_hm.sparse_step ()) else None in
  let env, result =
    Engine.run_env ?sparse proto ~adversary:(adversary ()) ~n ~budget
      ~inputs:(Scenario.split_inputs ~n) ~max_rounds:250 ~seed
  in
  Alcotest.(check bool) "agreement" true
    (Properties.ok
       (Properties.agreement ~inputs:(Scenario.split_inputs ~n) result));
  Alcotest.(check (list int))
    "mine, sample, verify, verify_many, cert and proposal cache entries"
    expected
    [ work.mine;
      work.sample;
      work.verify;
      work.verify_many;
      Hashtbl.length env.Bacore.Sub_hm.cert_cache;
      Hashtbl.length env.Bacore.Sub_hm.proposal_cache ]

(* Quadratic-HM's tickets are signatures: every receiver verifies every
   Vote, Commit and Terminate signature, and each certificate's and
   proposal's signatures once. *)
let test_quadratic_hm_work () =
  let n = 41 in
  let result, count =
    probed (fun () ->
        Engine.run (Bacore.Quadratic_hm.protocol ()) ~adversary:(passive ())
          ~n ~budget:0 ~inputs:(Scenario.split_inputs ~n) ~max_rounds:170
          ~seed:6L)
  in
  Alcotest.(check (list int)) "rounds, signature.sign, signature.verify"
    [ 7; 206; 5086 ]
    [ result.Engine.rounds_used; count "signature.sign"; count "signature.verify" ]

let () =
  Alcotest.run "engine_perf"
    ([ ( "delivery",
         [ Alcotest.test_case "dense scripted scenario" `Quick
             test_dense_scenario ] ) ]
    @ [ ("golden-digests", List.map golden_test golden_scenarios) ]
    @ [ ( "accounting",
          [ Alcotest.test_case "labeled run = unlabeled metrics" `Quick
              test_labels_keep_accounting ] ) ]
    (* No group name is longer than "golden-digests": Alcotest pads every
       line to the longest group name and cuts long case names to fit,
       so a longer group would change how existing cases are listed. *)
    @ [ ("analyses", List.map analysis_test analysis_traces) ]
    @ [ ( "alloc-pins",
          [ Alcotest.test_case "losing Fmine.sample = 0 words" `Quick
              test_losing_sample_alloc;
            Alcotest.test_case "Hmac.mac_with <= 6 words" `Quick
              test_mac_with_alloc;
            Alcotest.test_case "mining_string = 0 words" `Quick
              test_mining_string_alloc;
            Alcotest.test_case "Fmine.verify hit = 0 words" `Quick
              test_verify_hit_alloc;
            Alcotest.test_case "Fmine.verify unmined = 0 words" `Quick
              test_verify_unmined_alloc;
            Alcotest.test_case "memoized Fmine.mine = 0 words" `Quick
              test_memoized_mine_alloc;
            Alcotest.test_case "Rng.bool = 0 words" `Quick
              (test_rng_alloc "Rng.bool" ~max:0 (fun rng ->
                   Bacrypto.Rng.bool rng));
            Alcotest.test_case "Rng.int = 0 words" `Quick
              (test_rng_alloc "Rng.int" ~max:0 (fun rng ->
                   Bacrypto.Rng.int rng 1000));
            Alcotest.test_case "Rng.float <= 2 words" `Quick
              (test_rng_alloc "Rng.float" ~max:2 Bacrypto.Rng.float);
            Alcotest.test_case "Cert.make, distinct <= 4 words" `Quick
              test_cert_make_alloc ] ) ]
    @ [ ( "work-pins",
          [ Alcotest.test_case "real-world VRF work" `Quick
              test_real_world_vrf_work;
            Alcotest.test_case "warmup crowd signature work" `Quick
              test_warmup_crowd_signature_work;
            (* 19 rounds *)
            Alcotest.test_case "dense sub-hm eligibility work" `Quick
              (test_sub_hm_work ~world:`Hybrid ~n:201 ~adversary:passive
                 ~budget:0 ~crowd:false ~seed:9L [ 2412; 0; 24925; 2; 2; 1 ]);
            (* 15 rounds *)
            Alcotest.test_case "dense real sub-hm eligibility work" `Quick
              (test_sub_hm_work ~world:`Real ~n:61 ~adversary:passive
                 ~budget:0 ~crowd:false ~seed:5L [ 610; 0; 7627; 3; 3; 2 ]);
            (* 55 rounds, 37 injections *)
            Alcotest.test_case "forked crowd eligibility work" `Quick
              (test_sub_hm_work ~world:`Hybrid ~n:201
                 ~adversary:Baattacks.Split_vote.sub_hm ~budget:65 ~crowd:true
                 ~seed:4L [ 1820; 4216; 143; 3; 3; 10 ]);
            Alcotest.test_case "quadratic-hm signature work" `Quick
              test_quadratic_hm_work ] ) ]
    @ [ ( "properties",
          List.map
            (QCheck_alcotest.to_alcotest
               ~rand:(Random.State.make [| 0xba51c |]))
            qcheck_tests ) ])
