(* Tests for the telemetry layer (Baobs) and its engine integration:
   JSON round-trips, the Metrics fold vs. an independent JSONL replay,
   JSONL trace sinks, probe spans, resource recording, causal analysis,
   and the usage errors of ba_run, ba_explore, ba_obs and experiments. *)

open Basim
open Bacore

let passive () = Engine.passive ~name:"none" ~model:Corruption.Adaptive

(* --- Json ------------------------------------------------------------------ *)

let sample_json =
  Baobs.Json.(
    Obj
      [ ("null", Null);
        ("bool", Bool true);
        ("int", Int (-42));
        ("float", Float 3.25);
        ("mean", Float 117.09999999999991);
        ("string", String "quote \" backslash \\ newline \n tab \t");
        ("list", List [ Int 1; Float 2.5; String "x"; Obj [] ]);
        ("nested", Obj [ ("inner", List [ Bool false; Null ]) ]) ])

let test_json_roundtrip () =
  let s = Baobs.Json.to_string sample_json in
  let parsed = Baobs.Json.of_string s in
  Alcotest.(check bool) "roundtrip equal" true (parsed = sample_json);
  Alcotest.(check string) "stable reprint" s (Baobs.Json.to_string parsed)

let test_json_parse_whitespace () =
  let parsed =
    Baobs.Json.of_string "  { \"a\" : [ 1 , 2.0 ,\n \"b\" ] , \"c\": null } "
  in
  Baobs.Json.(
    Alcotest.(check bool) "parsed" true
      (parsed = Obj [ ("a", List [ Int 1; Float 2.0; String "b" ]); ("c", Null) ]))

let test_json_parse_errors () =
  let bad s =
    match Baobs.Json.of_string s with
    | exception Baobs.Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc");
  Alcotest.(check bool) "bare word" true (bad "bogus")

let test_rates_json_roundtrip () =
  let rates =
    { Baexperiments.Common.trials = 10;
      consistency_fail = 1;
      validity_fail = 0;
      termination_fail = 2;
      total_rounds = 115;
      total_multicasts = 1171;
      total_multicast_bits = 62124;
      total_unicasts = 0;
      total_removals = 400;
      total_corruptions = 400 }
  in
  let json = Baexperiments.Common.rates_to_json rates in
  let parsed = Baobs.Json.of_string (Baobs.Json.to_string json) in
  Alcotest.(check bool) "rates roundtrip" true (parsed = json);
  Alcotest.(check int) "trials"
    10
    Baobs.Json.(as_int (member_exn "trials" parsed));
  Alcotest.(check (float 1e-9)) "mean_multicasts" 117.1
    Baobs.Json.(as_float (member_exn "mean_multicasts" parsed))

(* --- Probe ----------------------------------------------------------------- *)

(* One span: the instrumented code's own pattern. *)
let span p f =
  let t0 = Baobs.Probe.start () in
  f ();
  Baobs.Probe.stop p t0

let test_probe_spans () =
  let p = Baobs.Probe.register "test.span" in
  Baobs.Probe.reset ();
  (* Disabled: nothing records. *)
  Baobs.Probe.disable ();
  span p (fun () -> ignore (Sys.opaque_identity (1 + 1)));
  Alcotest.(check bool) "disabled records nothing" true
    (not (List.exists (fun (n, _, _) -> n = "test.span") (Baobs.Probe.snapshot ())));
  (* Enabled: counts and accumulates. *)
  Baobs.Probe.enable ();
  for _ = 1 to 3 do
    span p (fun () -> ignore (Sys.opaque_identity (String.make 64 'x')))
  done;
  Baobs.Probe.disable ();
  (match List.find_opt (fun (n, _, _) -> n = "test.span") (Baobs.Probe.snapshot ()) with
  | Some (_, count, total_ns) ->
      Alcotest.(check int) "three spans" 3 count;
      Alcotest.(check bool) "nonnegative time" true (total_ns >= 0.0)
  | None -> Alcotest.fail "probe missing from snapshot");
  Baobs.Probe.reset ()

(* Two domains hammering the same probe: the registry is mutex-guarded,
   so no span may be lost or torn — the totals after the join are
   exact. This is the data race trial-level parallelism would hit with
   the old unguarded registry. *)
let test_probe_two_domain_hammer () =
  let spans_per_domain = 20_000 in
  let p = Baobs.Probe.register "test.hammer" in
  Baobs.Probe.reset ();
  Baobs.Probe.enable ();
  let hammer () =
    for _ = 1 to spans_per_domain do
      span p (fun () -> ignore (Sys.opaque_identity (1 + 1)))
    done
  in
  let d1 = Domain.spawn hammer and d2 = Domain.spawn hammer in
  (* The main domain hammers too, and concurrently registers fresh
     probes to exercise the registry lock alongside the counter locks. *)
  for i = 1 to 100 do
    ignore (Baobs.Probe.register (Printf.sprintf "test.hammer.aux%d" i))
  done;
  hammer ();
  Domain.join d1;
  Domain.join d2;
  Baobs.Probe.disable ();
  (match
     List.find_opt
       (fun (n, _, _) -> n = "test.hammer")
       (Baobs.Probe.snapshot ())
   with
  | Some (_, count, total_ns) ->
      Alcotest.(check int) "exact count, no torn updates"
        (3 * spans_per_domain) count;
      Alcotest.(check bool) "nonnegative time" true (total_ns >= 0.0)
  | None -> Alcotest.fail "hammered probe missing from snapshot");
  Baobs.Probe.reset ()

(* --- Metrics vs an independent trace replay ------------------------------- *)

let run_sub_hm_jsonl ~n ~lambda ~max_epochs ~budget ~adversary ~inputs ~seed =
  let params = Params.make ~lambda ~max_epochs () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let buf = Buffer.create 4096 in
  let sink = Baobs.Jsonl.to_buffer buf in
  let result =
    Engine.run
      ~tracer:(Trace.jsonl_tracer sink)
      proto ~adversary ~n ~budget ~inputs
      ~max_rounds:((4 * max_epochs) + 12) ~seed
  in
  (result, Buffer.contents buf)

(* Rebuild Definition-7 aggregates from a JSONL trace: erased honest
   sends appear as [removed] events carrying their shape. *)
type replay = {
  mutable r_multicasts : int;
  mutable r_multicast_bits : int;
  mutable r_unicasts : int;
  mutable r_removals : int;
  mutable r_injections : int;
}

let replay_of_jsonl text =
  let totals =
    { r_multicasts = 0;
      r_multicast_bits = 0;
      r_unicasts = 0;
      r_removals = 0;
      r_injections = 0 }
  in
  let per_round : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      if String.length line > 0 then begin
        let j = Baobs.Json.of_string line in
        let event = Baobs.Json.(as_string (member_exn "event" j)) in
        let round () = Baobs.Json.(as_int (member_exn "round" j)) in
        let honest_send () =
          let multicast = Baobs.Json.(as_bool (member_exn "multicast" j)) in
          let bits = Baobs.Json.(as_int (member_exn "bits" j)) in
          let recipients = Baobs.Json.(as_int (member_exn "recipients" j)) in
          if multicast then begin
            totals.r_multicasts <- totals.r_multicasts + 1;
            totals.r_multicast_bits <- totals.r_multicast_bits + bits;
            let mc, mb =
              match Hashtbl.find_opt per_round (round ()) with
              | Some x -> x
              | None -> (0, 0)
            in
            Hashtbl.replace per_round (round ()) (mc + 1, mb + bits)
          end
          else totals.r_unicasts <- totals.r_unicasts + recipients
        in
        match event with
        | "sent" -> honest_send ()
        | "removed" ->
            totals.r_removals <- totals.r_removals + 1;
            honest_send ()
        | "injected" -> totals.r_injections <- totals.r_injections + 1
        | _ -> ()
      end)
    lines;
  (totals, per_round)

let check_trace_matches_metrics name (result : Engine.result) jsonl =
  let m = result.Engine.metrics in
  let totals, per_round = replay_of_jsonl jsonl in
  Alcotest.(check int) (name ^ ": multicasts") (Metrics.honest_multicasts m)
    totals.r_multicasts;
  Alcotest.(check int)
    (name ^ ": multicast bits")
    (Metrics.honest_multicast_bits m)
    totals.r_multicast_bits;
  Alcotest.(check int) (name ^ ": unicasts") (Metrics.honest_unicasts m)
    totals.r_unicasts;
  Alcotest.(check int) (name ^ ": removals") (Metrics.removals m)
    totals.r_removals;
  Alcotest.(check int) (name ^ ": injections") (Metrics.injections m)
    totals.r_injections;
  (* Each JSONL line must be an object tagged with an event kind; the
     per-round totals must agree with the per-round metric series. *)
  let by_round = Metrics.by_round m in
  for round = 0 to Metrics.rounds m - 1 do
    let mc, mb =
      match Hashtbl.find_opt per_round round with Some x -> x | None -> (0, 0)
    in
    let series_mc, series_mb =
      match List.assoc_opt round by_round with
      | Some c -> (c.Metrics.multicasts, c.Metrics.multicast_bits)
      | None -> (0, 0)
    in
    Alcotest.(check int)
      (Printf.sprintf "%s: round %d multicasts" name round)
      series_mc mc;
    Alcotest.(check int)
      (Printf.sprintf "%s: round %d multicast bits" name round)
      series_mb mb
  done

let test_series_matches_metrics_e1 () =
  (* E1 scenario: strongly adaptive eraser vs sub-hm — exercises
     removals, dynamic corruptions, and the erased-send accounting. *)
  let result, jsonl =
    run_sub_hm_jsonl ~n:101 ~lambda:20 ~max_epochs:5 ~budget:30
      ~adversary:(Baattacks.Eraser.make ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 true)
      ~seed:7L
  in
  Alcotest.(check bool) "some removals happened" true
    (Metrics.removals result.Engine.metrics > 0);
  check_trace_matches_metrics "e1" result jsonl;
  Alcotest.(check int) "series corruption total = tracker count"
    result.Engine.corruptions
    (Metrics.totals result.Engine.metrics).Metrics.corruptions

let test_series_matches_metrics_e2 () =
  (* E2 scenario: passive multicast-scaling run. *)
  let result, jsonl =
    run_sub_hm_jsonl ~n:201 ~lambda:20 ~max_epochs:10 ~budget:0
      ~adversary:(passive ())
      ~inputs:(Scenario.split_inputs ~n:201)
      ~seed:2L
  in
  Alcotest.(check bool) "decided" true result.Engine.all_honest_decided;
  check_trace_matches_metrics "e2" result jsonl;
  (* Round sums across the whole series reproduce the aggregate. *)
  let m = result.Engine.metrics in
  Alcotest.(check int) "per-round sums = aggregate"
    (Metrics.honest_multicasts m)
    (List.fold_left
       (fun acc (_, c) -> acc + c.Metrics.multicasts)
       0 (Metrics.by_round m))

let test_series_json () =
  let result, _ =
    run_sub_hm_jsonl ~n:101 ~lambda:20 ~max_epochs:5 ~budget:0
      ~adversary:(passive ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 false)
      ~seed:3L
  in
  let m = result.Engine.metrics in
  let json = Metrics.series_to_json m in
  let parsed = Baobs.Json.of_string (Baobs.Json.to_string json) in
  Alcotest.(check bool) "series json roundtrip" true (parsed = json);
  let totals = Baobs.Json.member_exn "totals" parsed in
  Alcotest.(check int) "json totals match metrics"
    (Metrics.honest_multicasts m)
    Baobs.Json.(as_int (member_exn "multicasts" totals));
  (* The (round, node) cells sum back to the totals, and every listed
     node has a nonzero counter. *)
  let nodes =
    List.concat_map
      (fun r -> Baobs.Json.(as_list (member_exn "nodes" r)))
      Baobs.Json.(as_list (member_exn "rounds" parsed))
  in
  Alcotest.(check bool) "cells listed" true (nodes <> []);
  Alcotest.(check int) "cells sum to the total" (Metrics.honest_multicasts m)
    (List.fold_left
       (fun acc node ->
         match Baobs.Json.member "multicasts" node with
         | Some v -> acc + Baobs.Json.as_int v
         | None -> acc)
       0 nodes);
  List.iter
    (fun node ->
      match node with
      | Baobs.Json.Obj fields ->
          Alcotest.(check bool) "node lists a counter" true
            (List.length fields > 1)
      | _ -> Alcotest.fail "series node is not an object")
    nodes

let test_jsonl_sink_valid_lines () =
  let _, jsonl =
    run_sub_hm_jsonl ~n:101 ~lambda:20 ~max_epochs:5 ~budget:30
      ~adversary:(Baattacks.Eraser.make ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 true)
      ~seed:7L
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check bool) "nonempty trace" true (List.length lines > 0);
  List.iter
    (fun line ->
      match Baobs.Json.of_string line with
      | Baobs.Json.Obj _ as j ->
          let kind = Baobs.Json.(as_string (member_exn "event" j)) in
          Alcotest.(check bool) ("known kind " ^ kind) true
            (List.mem kind
               [ "round_started"; "sent"; "corrupted"; "removed"; "injected";
                 "halted" ])
      | _ -> Alcotest.fail "JSONL line is not an object")
    lines

(* An unlabeled Sent event (the sentinel causal fields of a run without
   causal recording). *)
let sent ~round ~node ~multicast ~recipients =
  Trace.Sent
    { round; node; multicast; recipients; bits = 8; id = Trace.no_id;
      kind = Trace.no_kind; targets = [] }

let test_series_empty_export () =
  let m = Metrics.create ~n:5 in
  let json = Metrics.series_to_json m in
  Alcotest.(check int) "zero total"
    0
    Baobs.Json.(
      as_int (member_exn "multicasts" (member_exn "totals" json)));
  Alcotest.(check int) "no rounds" 0
    (List.length Baobs.Json.(as_list (member_exn "rounds" json)));
  Alcotest.(check int) "zero rounds of empty" 0 (Metrics.rounds m)

(* --- Probe clamp ------------------------------------------------------------ *)

(* Probe timestamps come from wall-clock [Unix.gettimeofday], which can
   step backwards under NTP; a span closed across a step must clamp to
   zero rather than subtract from the cumulative total. We simulate the
   backwards step by closing a span whose open token lies in the
   future. *)
let test_probe_negative_span_clamped () =
  let p = Baobs.Probe.register "test.clamp" in
  Baobs.Probe.reset ();
  Baobs.Probe.enable ();
  let future = (Unix.gettimeofday () *. 1e9) +. 3.6e12 (* one hour ahead *) in
  Baobs.Probe.stop p future;
  Baobs.Probe.disable ();
  (match
     List.find_opt (fun (n, _, _) -> n = "test.clamp") (Baobs.Probe.snapshot ())
   with
  | Some (_, count, total_ns) ->
      Alcotest.(check int) "span still counted" 1 count;
      Alcotest.(check (float 0.0)) "duration clamped to zero" 0.0 total_ns
  | None -> Alcotest.fail "clamped probe missing from snapshot");
  Baobs.Probe.reset ()

(* --- Report ----------------------------------------------------------------- *)

let report_of_jsonl ?rounds jsonl =
  Baobs_report.Report.of_events ?rounds (Trace.of_jsonl_string jsonl)

let totals_from_round_table report =
  (* Recompute the aggregates purely from the per-round table — the
     acceptance criterion: the table alone reproduces Metrics. *)
  List.fold_left
    (fun (m, mb, u, r) (_, c) ->
      ( m + c.Baobs_report.Report.multicasts,
        mb + c.Baobs_report.Report.multicast_bits,
        u + c.Baobs_report.Report.unicasts,
        r + c.Baobs_report.Report.removals ))
    (0, 0, 0, 0)
    (Baobs_report.Report.rounds report)

(* Each of the eight counts, summed over the per-round timeline and over
   the per-node matrix, equals the report's totals. *)
let tables_sum_to_totals report =
  let module R = Baobs_report.Report in
  let t = R.totals report in
  List.iter
    (fun (name, field) ->
      let sum rows = List.fold_left (fun acc (_, c) -> acc + field c) 0 rows in
      Alcotest.(check int) ("per-round " ^ name) (field t)
        (sum (R.rounds report));
      Alcotest.(check int) ("per-node " ^ name) (field t)
        (sum (R.nodes report)))
    [ ("multicasts", fun c -> c.R.multicasts);
      ("multicast_bits", fun c -> c.R.multicast_bits);
      ("unicasts", fun c -> c.R.unicasts);
      ("unicast_bits", fun c -> c.R.unicast_bits);
      ("removals", fun c -> c.R.removals);
      ("injections", fun c -> c.R.injections);
      ("corruptions", fun c -> c.R.corruptions);
      ("halts", fun c -> c.R.halts) ]

let test_report_reproduces_metrics_e1 () =
  (* Seeded E1: strongly adaptive eraser vs sub-hm, the run whose trace
     carries removals — Definition-7 accounting must survive the
     trace -> JSONL -> re-parse -> report pipeline exactly. *)
  let result, jsonl =
    run_sub_hm_jsonl ~n:101 ~lambda:20 ~max_epochs:5 ~budget:30
      ~adversary:(Baattacks.Eraser.make ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 true)
      ~seed:7L
  in
  let report = report_of_jsonl jsonl in
  let m = result.Engine.metrics in
  let multicasts, multicast_bits, unicasts, removals =
    totals_from_round_table report
  in
  Alcotest.(check bool) "scenario has removals" true (Metrics.removals m > 0);
  Alcotest.(check int) "per-round multicasts = Metrics"
    (Metrics.honest_multicasts m) multicasts;
  Alcotest.(check int) "per-round multicast bits = Metrics (Definition 7)"
    (Metrics.honest_multicast_bits m)
    multicast_bits;
  Alcotest.(check int) "per-round unicasts = Metrics"
    (Metrics.honest_unicasts m) unicasts;
  Alcotest.(check int) "per-round removals = Metrics" (Metrics.removals m)
    removals;
  (* The same aggregates via the totals record and per-node table. *)
  let t = Baobs_report.Report.totals report in
  Alcotest.(check int) "totals multicasts" (Metrics.honest_multicasts m)
    t.Baobs_report.Report.multicasts;
  Alcotest.(check int) "node-table multicasts"
    (Metrics.honest_multicasts m)
    (List.fold_left
       (fun acc (_, c) -> acc + c.Baobs_report.Report.multicasts)
       0
       (Baobs_report.Report.nodes report));
  Alcotest.(check int) "corruptions = engine count" result.Engine.corruptions
    t.Baobs_report.Report.corruptions;
  tables_sum_to_totals report

let test_report_exports () =
  let _, jsonl =
    run_sub_hm_jsonl ~n:101 ~lambda:20 ~max_epochs:5 ~budget:0
      ~adversary:(passive ())
      ~inputs:(Scenario.split_inputs ~n:101)
      ~seed:3L
  in
  let report = report_of_jsonl jsonl in
  (* JSON round-trips and its totals equal the accessors. *)
  let json = Baobs_report.Report.to_json ~k:3 report in
  let parsed = Baobs.Json.of_string (Baobs.Json.to_string json) in
  Alcotest.(check bool) "report json roundtrip" true (parsed = json);
  let t = Baobs_report.Report.totals report in
  Alcotest.(check int) "json totals multicasts"
    t.Baobs_report.Report.multicasts
    Baobs.Json.(as_int (member_exn "multicasts" (member_exn "totals" parsed)));
  Alcotest.(check bool) "top talkers truncated to k" true
    (List.length Baobs.Json.(as_list (member_exn "top_talkers" parsed)) <= 3);
  (* p50/p95/p99 summary present for multicast sizes. *)
  (match Baobs_report.Report.multicast_size_summary report with
  | Some s ->
      Alcotest.(check bool) "p50 <= p95 <= p99" true
        (s.Bastats.Summary.p50 <= s.Bastats.Summary.p95
        && s.Bastats.Summary.p95 <= s.Bastats.Summary.p99)
  | None -> Alcotest.fail "expected multicast sizes");
  (* Text rendering contains all three table titles. *)
  let text = Baobs_report.Report.to_text report in
  let contains needle =
    let nn = String.length needle and tn = String.length text in
    let rec scan i =
      i + nn <= tn && (String.sub text i nn = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun title ->
      Alcotest.(check bool) ("text mentions " ^ title) true (contains title))
    [ "Per-round timeline"; "Top talkers"; "Message sizes" ]

let test_report_empty_trace () =
  let report = Baobs_report.Report.of_events [] in
  Alcotest.(check int) "no events" 0 (Baobs_report.Report.event_count report);
  Alcotest.(check (list int)) "no rounds" []
    (List.map fst (Baobs_report.Report.rounds report));
  Alcotest.(check bool) "no sizes" true
    (Baobs_report.Report.multicast_size_summary report = None);
  (* The JSON rendering copes with emptiness. *)
  Alcotest.(check bool) "json still valid" true
    (Baobs.Json.of_string
       (Baobs.Json.to_string (Baobs_report.Report.to_json report))
    = Baobs_report.Report.to_json report)

(* A report takes any node id as it comes: an off-range sender gets its
   own row. *)
let test_report_any_node_id () =
  let report =
    Baobs_report.Report.of_events
      [ Trace.Round_started { round = 0 };
        sent ~round:0 ~node:(-1) ~multicast:true ~recipients:4 ]
  in
  Alcotest.(check (list int)) "node -1 row" [ -1 ]
    (List.map fst (Baobs_report.Report.nodes report));
  Alcotest.(check int) "its multicast" 1
    (Baobs_report.Report.totals report).Baobs_report.Report.multicasts

(* Recipient and bit counts are sizes: a negative one would subtract
   from every total a report folds, so the decoder refuses it. An
   unlabeled [injected] event carries no bits at all, and still reads. *)
let test_report_rejects_negative_sizes () =
  let refused line =
    match Trace.of_jsonl_string line with
    | exception Baobs.Json.Parse_error _ -> true
    | _ -> false
  in
  List.iter
    (fun (label, line) -> Alcotest.(check bool) label true (refused line))
    [ ( "sent to -5 recipients",
        {|{"event":"sent","round":0,"node":0,"multicast":false,"recipients":-5,"bits":8}|}
      );
      ( "sent of -8 bits",
        {|{"event":"sent","round":0,"node":0,"multicast":true,"recipients":4,"bits":-8}|}
      );
      ( "removed of -1 bits",
        {|{"event":"removed","round":0,"victim":0,"multicast":true,"recipients":4,"bits":-1}|}
      );
      ( "injected to -1 recipients",
        {|{"event":"injected","round":0,"src":0,"recipients":-1}|} );
      ( "injected of -8 bits",
        {|{"event":"injected","round":0,"src":0,"recipients":4,"bits":-8}|} ) ];
  Alcotest.(check bool) "injected without bits reads" false
    (refused {|{"event":"injected","round":0,"src":0,"recipients":4}|})

(* --- Sink path validation --------------------------------------------------- *)

let test_validate_path () =
  Alcotest.(check bool) "missing parent rejected" true
    (match Baobs.Jsonl.validate_path "/nonexistent-xyz/trace.jsonl" with
    | Error _ -> true
    | Ok () -> false);
  Alcotest.(check bool) "existing directory as target rejected" true
    (match Baobs.Jsonl.validate_path "." with Error _ -> true | Ok () -> false);
  Alcotest.(check bool) "cwd-relative file accepted" true
    (Baobs.Jsonl.validate_path "some-new-file.jsonl" = Ok ());
  let tmp = Filename.temp_file "baobs" ".jsonl" in
  Alcotest.(check bool) "existing file accepted (overwrite)" true
    (Baobs.Jsonl.validate_path tmp = Ok ());
  Sys.remove tmp

(* --- Resource telemetry ----------------------------------------------------- *)

let test_resource_delta_nonnegative () =
  let before = Baobs.Resource.sample () in
  (* Allocate enough to move the minor counter for sure. *)
  let junk = ref [] in
  for i = 0 to 10_000 do
    junk := (i, string_of_int i) :: !junk
  done;
  ignore (List.length !junk);
  let after = Baobs.Resource.sample () in
  let d = Baobs.Resource.delta ~before ~after in
  Alcotest.(check bool) "allocated > 0" true
    (d.Baobs.Resource.allocated_words > 0.0);
  Alcotest.(check bool) "promoted >= 0" true
    (d.Baobs.Resource.promoted_words >= 0.0);
  Alcotest.(check bool) "minor gcs >= 0" true
    (d.Baobs.Resource.minor_collections >= 0);
  Alcotest.(check bool) "major gcs >= 0" true
    (d.Baobs.Resource.major_collections >= 0);
  Alcotest.(check bool) "compactions >= 0" true
    (d.Baobs.Resource.compactions >= 0);
  (* Degenerate window: a delta over one sample is all-zero. *)
  let z = Baobs.Resource.delta ~before ~after:before in
  Alcotest.(check bool) "self-delta zero" true
    (z.Baobs.Resource.allocated_words = 0.0
    && z.Baobs.Resource.minor_collections = 0)

let run_sub_hm_with_resource ~resource ~seed =
  let n = 101 in
  let params = Params.make ~lambda:20 ~max_epochs:5 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let buf = Buffer.create 4096 in
  let result =
    Engine.run
      ~tracer:(Trace.jsonl_tracer (Baobs.Jsonl.to_buffer buf))
      ?resource proto
      ~adversary:(Baattacks.Eraser.make ())
      ~n ~budget:30
      ~inputs:(Scenario.unanimous_inputs ~n true)
      ~max_rounds:32 ~seed
  in
  (result, Buffer.contents buf)

let test_resource_recorder_rows () =
  let r = Baobs.Resource.create () in
  let result, _ = run_sub_hm_with_resource ~resource:(Some r) ~seed:7L in
  let rows = Baobs.Resource.rows r in
  (* One setup row (round -1) plus one row per executed round. *)
  Alcotest.(check int) "row count" (result.Engine.rounds_used + 1)
    (List.length rows);
  Alcotest.(check (list int)) "round numbering"
    (List.init (result.Engine.rounds_used + 1) (fun i -> i - 1))
    (List.map (fun row -> row.Baobs.Resource.round) rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "allocated >= 0" true
        (row.Baobs.Resource.row_allocated_words >= 0.0);
      Alcotest.(check bool) "heap > 0" true
        (row.Baobs.Resource.row_heap_words > 0))
    rows;
  (* The summary covers exactly the executed rounds. *)
  match Baobs.Resource.allocation_summary r with
  | Some s ->
      Alcotest.(check int) "summary count" result.Engine.rounds_used
        s.Bastats.Summary.count
  | None -> Alcotest.fail "expected an allocation summary"

(* Passing [?resource] is the switch: a recorder the run was not handed
   records nothing. *)
let test_resource_disabled_records_nothing () =
  let r = Baobs.Resource.create () in
  let _ = run_sub_hm_with_resource ~resource:None ~seed:7L in
  Alcotest.(check int) "no rows without the recorder" 0
    (List.length (Baobs.Resource.rows r));
  Alcotest.(check bool) "no summary" true
    (Baobs.Resource.allocation_summary r = None)

let test_resource_trace_byte_identical () =
  (* The determinism contract: recording reads GC counters only, so the
     same seeded run emits byte-for-byte the same trace with the
     recorder on, off, or absent. *)
  let _, plain = run_sub_hm_with_resource ~resource:None ~seed:11L in
  let r = Baobs.Resource.create () in
  let _, recorded = run_sub_hm_with_resource ~resource:(Some r) ~seed:11L in
  Alcotest.(check bool) "recorder saw the run" true
    (Baobs.Resource.rows r <> []);
  Alcotest.(check string) "traces byte-identical" plain recorded

let test_resource_json_roundtrip () =
  let r = Baobs.Resource.create () in
  let _ = run_sub_hm_with_resource ~resource:(Some r) ~seed:3L in
  let json =
    Baobs.Resource.to_json ~meta:[ ("protocol", Baobs.Json.String "sub-hm") ] r
  in
  (* Serialize → reparse → the analysis sees the recorder's rows. *)
  let report =
    Baobs.Resource.report_of_json
      (Baobs.Json.of_string (Baobs.Json.to_string json))
  in
  Alcotest.(check int) "rows survive the round-trip"
    (List.length (Baobs.Resource.rows r))
    (List.length (Baobs.Resource.report_rows report));
  List.iter2
    (fun a b ->
      Alcotest.(check int) "round" a.Baobs.Resource.round
        b.Baobs.Resource.round;
      Alcotest.(check bool) "allocated equal" true
        (a.Baobs.Resource.row_allocated_words
        = b.Baobs.Resource.row_allocated_words))
    (Baobs.Resource.rows r)
    (Baobs.Resource.report_rows report);
  (* Foreign schema refused. *)
  Alcotest.(check bool) "foreign schema refused" true
    (match
       Baobs.Resource.report_of_json
         (Baobs.Json.Obj [ ("schema", Baobs.Json.String "nope/v1") ])
     with
    | exception Baobs.Json.Parse_error _ -> true
    | _ -> false)

(* The rows account for everything a run allocates: per-run arrays made
   after set-up and result arrays made after the last round included. The
   reference is the calling domain's live counters read around the run
   (sparse sub-HM at n = 10,000, seed 1); the recorder's own sampling
   outside the first and last row is a few hundred words. *)
let test_resource_rows_sum_to_run () =
  let n = 10_000 in
  let allocated () =
    let minor = Gc.minor_words () in
    let _, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let r = Baobs.Resource.create () in
  let sparse = Sub_hm.sparse_step () in
  let proto =
    Sub_hm.protocol ~params:(Params.make ~lambda:40 ~max_epochs:40 ())
      ~world:`Hybrid
  in
  let adversary = passive () and inputs = Scenario.split_inputs ~n in
  let before = allocated () in
  let _, result =
    Engine.run_env ~resource:r ~sparse proto ~adversary ~n ~budget:0 ~inputs
      ~max_rounds:172 ~seed:1L
  in
  let measured = allocated () -. before in
  let rows = Baobs.Resource.rows r in
  let summed =
    List.fold_left (fun acc row -> acc +. row.Baobs.Resource.row_allocated_words)
      0.0 rows
  in
  Alcotest.(check int) "one row per round and set-up"
    (result.Engine.rounds_used + 1) (List.length rows);
  Alcotest.(check bool)
    (Printf.sprintf "rows sum to %.0f of %.0f words allocated" summed measured)
    true
    (Float.abs (measured -. summed) <= 1000.0)

(* The metadata ba_run writes for a run of [n] nodes. *)
let run_meta ?(protocol = "sub-hm") ?(seed = 4) ~n () =
  [ ("protocol", Baobs.Json.String protocol);
    ("n", Baobs.Json.Int n);
    ("budget", Baobs.Json.Int 0);
    ("seed", Baobs.Json.Int seed) ]

let synthetic_resource_json ?(meta = []) rows =
  Baobs.Json.Obj
    ((("schema", Baobs.Json.String "ba-resource/v1") :: meta)
    @ [ ( "rounds",
        Baobs.Json.List
          (List.mapi
             (fun i allocated ->
               Baobs.Json.Obj
                 [ ("round", Baobs.Json.Int i);
                   ("allocated_words", Baobs.Json.Float allocated);
                   ("promoted_words", Baobs.Json.Float 0.0);
                   ("minor_gcs", Baobs.Json.Int 0);
                   ("major_gcs", Baobs.Json.Int 0);
                   ("heap_words", Baobs.Json.Int 1000);
                   ("top_heap_words", Baobs.Json.Int 1000) ])
             rows) ) ])

let test_resource_flatness_verdicts () =
  (* Steady allocation with per-epoch bursts and a decision-round spike:
     the shape a healthy protocol run produces — flat. *)
  let healthy =
    [ 900_000.0; 250_000.0; 0.0; 0.0; 250_000.0; 0.0; 0.0; 250_000.0;
      0.0; 0.0; 250_000.0; 0.0; 0.0; 250_000.0; 1_000_000.0; 950_000.0 ]
  in
  let f =
    Baobs.Resource.flatness
      (Baobs.Resource.report_of_json (synthetic_resource_json healthy))
  in
  Alcotest.(check bool) "bursty-but-steady is flat" true
    f.Baobs.Resource.flat;
  (* Linear growth in most rounds — a leak — is not flat. *)
  let leaking = List.init 16 (fun i -> 100_000.0 +. (25_000.0 *. float_of_int i)) in
  let f =
    Baobs.Resource.flatness
      (Baobs.Resource.report_of_json (synthetic_resource_json leaking))
  in
  Alcotest.(check bool) "linear growth is not flat" false
    f.Baobs.Resource.flat;
  Alcotest.(check bool) "drift positive" true (f.Baobs.Resource.drift > 0.0);
  (* Too few rounds to fit: trivially flat. *)
  let f =
    Baobs.Resource.flatness
      (Baobs.Resource.report_of_json
         (synthetic_resource_json [ 1.0; 2.0; 3.0 ]))
  in
  Alcotest.(check bool) "short run trivially flat" true
    f.Baobs.Resource.flat

(* Growth in n: a mean that moves by far less than √(n₂/n₁) passes; a
   per-round term proportional to n (a ratio near n₂/n₁) does not. *)
let test_resource_growth_verdicts () =
  let doc ~n words =
    Baobs.Resource.report_of_json
      (synthetic_resource_json ~meta:(run_meta ~n ())
         (List.init 16 (fun _ -> words)))
  in
  let verdict small large =
    match Baobs.Resource.growth small large with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  let g = verdict (doc ~n:10_000 3_000.0) (doc ~n:1_000_000 3_300.0) in
  Alcotest.(check (float 1e-9)) "bound = sqrt(n2/n1)" 10.0
    g.Baobs.Resource.bound;
  Alcotest.(check (float 1e-9)) "ratio of steady means" 1.1
    g.Baobs.Resource.ratio;
  Alcotest.(check bool) "per-winner allocation passes" true
    g.Baobs.Resource.sublinear;
  let g = verdict (doc ~n:10_000 3_000.0) (doc ~n:1_000_000 300_000.0) in
  Alcotest.(check bool) "per-node allocation fails" false
    g.Baobs.Resource.sublinear;
  Alcotest.(check bool) "larger n first is an error" true
    (Result.is_error
       (Baobs.Resource.growth (doc ~n:1_000_000 1.0) (doc ~n:10_000 1.0)))

(* --- Report rounds window ---------------------------------------------------- *)

let test_report_rounds_window () =
  let _, jsonl =
    run_sub_hm_jsonl ~n:101 ~lambda:20 ~max_epochs:5 ~budget:30
      ~adversary:(Baattacks.Eraser.make ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 true)
      ~seed:7L
  in
  let full = report_of_jsonl jsonl in
  let lo, hi = (1, 2) in
  let windowed = report_of_jsonl ~rounds:(lo, hi) jsonl in
  (* The windowed totals equal the full report's per-round rows summed
     over the window, and the windowed tables sum to them. *)
  let expect field =
    List.fold_left
      (fun acc (round, c) -> if lo <= round && round <= hi then acc + field c else acc)
      0
      (Baobs_report.Report.rounds full)
  in
  let t = Baobs_report.Report.totals windowed in
  Alcotest.(check int) "windowed multicasts"
    (expect (fun c -> c.Baobs_report.Report.multicasts))
    t.Baobs_report.Report.multicasts;
  Alcotest.(check int) "windowed multicast bits"
    (expect (fun c -> c.Baobs_report.Report.multicast_bits))
    t.Baobs_report.Report.multicast_bits;
  Alcotest.(check int) "windowed removals"
    (expect (fun c -> c.Baobs_report.Report.removals))
    t.Baobs_report.Report.removals;
  Alcotest.(check bool) "only windowed rounds remain" true
    (List.for_all
       (fun (round, _) -> lo <= round && round <= hi)
       (Baobs_report.Report.rounds windowed));
  Alcotest.(check bool) "window shrinks the event list" true
    (Baobs_report.Report.event_count windowed
    < Baobs_report.Report.event_count full);
  tables_sum_to_totals windowed;
  (* An empty window is a usage error, not an empty report. *)
  Alcotest.check_raises "inverted window"
    (Invalid_argument "Report.of_events: empty rounds window") (fun () ->
      ignore (report_of_jsonl ~rounds:(3, 1) jsonl))

(* --- Trace collector fixes -------------------------------------------------- *)

let test_collector_memoized_events () =
  let c = Trace.collector () in
  for round = 0 to 99 do
    Trace.observe c (Trace.Round_started { round })
  done;
  let a = Trace.events c in
  let b = Trace.events c in
  Alcotest.(check bool) "memoized list reused" true (a == b);
  Alcotest.(check int) "count without events" 100
    (Trace.count c (function Trace.Round_started _ -> true | _ -> false));
  Trace.observe c (Trace.Round_started { round = 100 });
  Alcotest.(check int) "cache invalidated on observe" 101
    (List.length (Trace.events c));
  Alcotest.(check int) "length" 101 (Trace.length c)

(* --- Causal analysis --------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let contains s sub =
  let nn = String.length sub and tn = String.length s in
  let rec scan i = i + nn <= tn && (String.sub s i nn = sub || scan (i + 1)) in
  scan 0

(* A three-node execution whose happens-before DAG fits on paper:
     round 0: node 0 multicasts (kind "a"); node 2 is corrupted.
     round 1: corrupt 2 injects to node 1 (kind "x"); honest 1 sends to
              node 0; a second send of node 1 to node 0 is erased.
     round 2: nodes 0 and 1 halt.
   Taint sources: Corrupted(2,0) -> states (2,1),(2,2); the injection
   taints (1,2); the severed send taints its would-be recipient (0,2).
   Cones (memory + delivery edges, severed edge absent):
     node 0 @ 2: {(0,2),(0,1),(0,0),(1,1),(1,0)}   -> 5 states, 1 tainted
     node 1 @ 2: {(1,2),(1,1),(1,0),(2,1),(2,0),(0,0)} -> 6 states, 2 tainted *)
let hand_built_events =
  [ Trace.Round_started { round = 0 };
    Trace.Sent
      { round = 0; node = 0; multicast = true; recipients = 3; bits = 8;
        id = 0; kind = "a"; targets = [] };
    Trace.Corrupted { round = 0; node = 2 };
    Trace.Round_started { round = 1 };
    Trace.Injected
      { round = 1; src = 2; recipients = 1; bits = 4; id = 1; kind = "x";
        targets = [ 1 ] };
    Trace.Sent
      { round = 1; node = 1; multicast = false; recipients = 1; bits = 8;
        id = 2; kind = "a"; targets = [ 0 ] };
    Trace.Removed
      { round = 1; victim = 1; multicast = false; recipients = 1; bits = 8;
        id = 3; kind = "a"; targets = [ 0 ] };
    Trace.Round_started { round = 2 };
    Trace.Halted { round = 2; node = 0; output = Some true };
    Trace.Halted { round = 2; node = 1; output = Some true } ]

(* What every decision of an analysis of [events] satisfies: taint
   within the cone, the cone within the state grid and holding the
   decider's own memory chain, the critical path within the decision
   round, and no taint unless the trace has a corruption, injection or
   removal. *)
let causal_ok events a =
  let module C = Baobs_report.Causal in
  let states = C.n a * C.rounds a in
  let adversarial =
    List.exists
      (function
        | Trace.Corrupted _ | Trace.Injected _ | Trace.Removed _ -> true
        | Trace.Round_started _ | Trace.Sent _ | Trace.Halted _ -> false)
      events
  in
  List.iter
    (fun d ->
      let holds what ok =
        Alcotest.(check bool)
          (Printf.sprintf "decision (%d, %d): %s" d.C.d_node d.C.d_round what)
          true ok
      in
      holds "0 <= tainted <= cone"
        (0 <= d.C.d_tainted_states
        && d.C.d_tainted_states <= d.C.d_cone_states);
      holds "cone <= states" (d.C.d_cone_states <= states);
      holds "cone holds the memory chain"
        (d.C.d_cone_states >= d.C.d_round + 1);
      holds "critical path <= round" (d.C.d_critical_path <= d.C.d_round);
      holds "taint needs an adversary event"
        (adversarial || d.C.d_tainted_states = 0))
    (C.decisions a)

let test_causal_hand_built_taint () =
  let a = Baobs_report.Causal.of_events hand_built_events in
  causal_ok hand_built_events a;
  Alcotest.(check int) "inferred n" 3 (Baobs_report.Causal.n a);
  Alcotest.(check int) "rounds" 3 (Baobs_report.Causal.rounds a);
  let s = Baobs_report.Causal.summary a in
  Alcotest.(check int) "delivered" 2 s.Baobs_report.Causal.s_delivered;
  Alcotest.(check int) "severed" 1 s.Baobs_report.Causal.s_severed;
  Alcotest.(check int) "injected" 1 s.Baobs_report.Causal.s_injected;
  Alcotest.(check int) "nothing approximated" 0 s.Baobs_report.Causal.s_approx;
  Alcotest.(check int) "states" 9 s.Baobs_report.Causal.s_states;
  (* 3 multicast edges + 1 unicast + 1 injection; the severed send
     contributes none. *)
  Alcotest.(check int) "delivery edges" 5 s.Baobs_report.Causal.s_edges;
  (match Baobs_report.Causal.decisions a with
  | [ d0; d1 ] ->
      Alcotest.(check int) "first decision is node 0" 0
        d0.Baobs_report.Causal.d_node;
      Alcotest.(check int) "node 0 cone" 5 d0.Baobs_report.Causal.d_cone_states;
      (* The erased send is the ONLY adversary influence on node 0: its
         absence taints the deciding state itself. *)
      Alcotest.(check int) "node 0 tainted = severed influence" 1
        d0.Baobs_report.Causal.d_tainted_states;
      Alcotest.(check int) "node 1 cone" 6 d1.Baobs_report.Causal.d_cone_states;
      Alcotest.(check int) "node 1 tainted = corrupt sender + injection" 2
        d1.Baobs_report.Causal.d_tainted_states;
      Alcotest.(check int) "node 0 critical path" 2
        d0.Baobs_report.Causal.d_critical_path;
      Alcotest.(check int) "node 1 critical path" 2
        d1.Baobs_report.Causal.d_critical_path;
      Alcotest.(check bool) "taint fractions" true
        (Baobs_report.Causal.taint_fraction d0 = 1.0 /. 5.0
        && Baobs_report.Causal.taint_fraction d1 = 2.0 /. 6.0)
  | ds ->
      Alcotest.fail
        (Printf.sprintf "expected 2 decisions, got %d" (List.length ds)));
  (* Definition-7 flow matrix: the severed round-1 send still counts in
     kind "a"'s unicast totals and as a removal. *)
  let flow round kind =
    match
      List.find_opt
        (fun f ->
          f.Baobs_report.Causal.f_round = round
          && f.Baobs_report.Causal.f_kind = kind)
        (Baobs_report.Causal.flows a)
    with
    | Some f -> f
    | None -> Alcotest.fail (Printf.sprintf "missing flow (%d, %s)" round kind)
  in
  let f0 = flow 0 "a" in
  Alcotest.(check int) "round-0 multicasts" 1 f0.Baobs_report.Causal.f_multicasts;
  Alcotest.(check int) "round-0 multicast bits" 8
    f0.Baobs_report.Causal.f_multicast_bits;
  let f1 = flow 1 "a" in
  Alcotest.(check int) "round-1 unicasts include the erased send" 2
    f1.Baobs_report.Causal.f_unicasts;
  Alcotest.(check int) "round-1 unicast bits" 16
    f1.Baobs_report.Causal.f_unicast_bits;
  Alcotest.(check int) "round-1 removals" 1 f1.Baobs_report.Causal.f_removals;
  let fx = flow 1 "x" in
  Alcotest.(check int) "round-1 injections" 1 fx.Baobs_report.Causal.f_injections;
  Alcotest.(check int) "round-1 injection bits" 4
    fx.Baobs_report.Causal.f_injection_bits

let run_sub_hm_causal ~n ~budget ~adversary ~inputs ~seed =
  let params = Params.make ~lambda:20 ~max_epochs:5 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let c = Trace.collector () in
  let result =
    Engine.run ~tracer:(Trace.observe c) ~labeler:Sub_hm.msg_kind proto
      ~adversary ~n ~budget ~inputs ~max_rounds:32 ~seed
  in
  let events = Trace.events c in
  (result, events, Baobs_report.Causal.of_events ~n events)

let sum_flows field a =
  List.fold_left (fun acc f -> acc + field f) 0 (Baobs_report.Causal.flows a)

let test_causal_e1_eraser_all_decisions_tainted () =
  (* Seeded E1: every honest decision sits downstream of an erased
     message — nonzero taint across the board, with exact recipient
     sets (labeled run, nothing approximated). *)
  let result, events, a =
    run_sub_hm_causal ~n:101 ~budget:30
      ~adversary:(Baattacks.Eraser.make ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 true)
      ~seed:7L
  in
  causal_ok events a;
  Alcotest.(check int) "labeled run is exact" 0
    (Baobs_report.Causal.approx_messages a);
  let ds = Baobs_report.Causal.decisions a in
  Alcotest.(check bool) "decisions recorded" true (List.length ds > 0);
  Alcotest.(check bool) "every decision tainted" true
    (List.for_all (fun d -> d.Baobs_report.Causal.d_tainted_states > 0) ds);
  Alcotest.(check bool) "taint is a strict subset of each cone" true
    (List.for_all
       (fun d ->
         d.Baobs_report.Causal.d_tainted_states
         <= d.Baobs_report.Causal.d_cone_states)
       ds);
  (* Every flow row carries a protocol label. *)
  Alcotest.(check bool) "flow kinds labeled" true
    (List.for_all
       (fun f -> f.Baobs_report.Causal.f_kind <> "")
       (Baobs_report.Causal.flows a));
  (* Cone-independent cross-check: the flow matrix sums to Metrics. *)
  let m = result.Engine.metrics in
  Alcotest.(check int) "flow multicasts = Metrics"
    (Metrics.honest_multicasts m)
    (sum_flows (fun f -> f.Baobs_report.Causal.f_multicasts) a);
  Alcotest.(check int) "flow multicast bits = Metrics"
    (Metrics.honest_multicast_bits m)
    (sum_flows (fun f -> f.Baobs_report.Causal.f_multicast_bits) a);
  Alcotest.(check int) "flow removals = Metrics" (Metrics.removals m)
    (sum_flows (fun f -> f.Baobs_report.Causal.f_removals) a);
  Alcotest.(check bool) "scenario has removals" true (Metrics.removals m > 0)

let test_causal_e2_passive_zero_taint () =
  (* Seeded E2 shape: no adversary events, so taint must be zero at
     every decision — the attribution never invents influence. *)
  let _, events, a =
    run_sub_hm_causal ~n:201 ~budget:0 ~adversary:(passive ())
      ~inputs:(Scenario.split_inputs ~n:201)
      ~seed:3L
  in
  causal_ok events a;
  let ds = Baobs_report.Causal.decisions a in
  Alcotest.(check int) "all nodes decide" 201 (List.length ds);
  Alcotest.(check bool) "zero taint everywhere" true
    (List.for_all (fun d -> d.Baobs_report.Causal.d_tainted_states = 0) ds);
  Alcotest.(check bool) "cones nonempty" true
    (List.for_all (fun d -> d.Baobs_report.Causal.d_cone_states > 0) ds)

let test_causal_e8_takeover_all_decisions_tainted () =
  (* Seeded E8: the takeover corrupts the public committee, so every
     honest decision flows through corrupted state. *)
  let proto = Babaselines.Static_committee.protocol ~committee_size:7 in
  let n = 60 in
  let c = Trace.collector () in
  let result =
    Engine.run ~tracer:(Trace.observe c)
      ~labeler:Babaselines.Static_committee.msg_kind proto
      ~adversary:(Baattacks.Takeover.make ~force:true ())
      ~n ~budget:10
      ~inputs:(Scenario.unanimous_inputs ~n false)
      ~max_rounds:5 ~seed:30L
  in
  let events = Trace.events c in
  let a = Baobs_report.Causal.of_events ~n events in
  causal_ok events a;
  let ds = Baobs_report.Causal.decisions a in
  Alcotest.(check int) "every honest node decides"
    (n - result.Engine.corruptions)
    (List.length ds);
  Alcotest.(check bool) "every decision tainted" true
    (List.for_all (fun d -> d.Baobs_report.Causal.d_tainted_states > 0) ds);
  Alcotest.(check bool) "injections visible in the flow matrix" true
    (sum_flows (fun f -> f.Baobs_report.Causal.f_injections) a > 0)

let test_causal_legacy_fixture_replay () =
  (* Committed pre-causal traces: every line reserializes byte for byte
     (of_json defaults the causal fields to sentinels, to_json omits
     them), and the analyses accept the legacy format. *)
  let check_lines fixture =
    List.iter
      (fun line ->
        if line <> "" then
          Alcotest.(check string) "legacy line reserializes byte-identically"
            line
            (Baobs.Json.to_string
               (Trace.to_json (Trace.of_json (Baobs.Json.of_string line)))))
      (String.split_on_char '\n' fixture)
  in
  let e1 = read_file "fixtures/legacy_e1_trace.jsonl" in
  check_lines e1;
  let e1_events = Trace.of_jsonl_string e1 in
  let a = Baobs_report.Causal.of_events e1_events in
  causal_ok e1_events a;
  Alcotest.(check bool) "legacy eraser trace shows taint" true
    (List.exists
       (fun d -> d.Baobs_report.Causal.d_tainted_states > 0)
       (Baobs_report.Causal.decisions a));
  let split = read_file "fixtures/legacy_split_trace.jsonl" in
  check_lines split;
  let split_events = Trace.of_jsonl_string split in
  let b = Baobs_report.Causal.of_events split_events in
  causal_ok split_events b;
  (* Targeted injections without recorded recipient lists are counted as
     over-approximated, not silently treated as exact. *)
  Alcotest.(check bool) "legacy targeted sends flagged approximate" true
    (Baobs_report.Causal.approx_messages b > 0)

let test_causal_off_byte_identity () =
  (* Re-run the committed fixture's exact configuration on today's
     engine with causal recording off: the JSONL must match the
     pre-causal bytes. *)
  let fixture = read_file "fixtures/legacy_e1_trace.jsonl" in
  let params = Params.make ~lambda:4 ~max_epochs:3 () in
  let proto =
    Sub_third.protocol ~params ~world:`Hybrid ~mode:Sub_third.Bit_specific
  in
  let regen ?labeler () =
    let buf = Buffer.create 1024 in
    let _ =
      Engine.run
        ~tracer:(Trace.jsonl_tracer (Baobs.Jsonl.to_buffer buf))
        ?labeler proto
        ~adversary:(Baattacks.Eraser.make ())
        ~n:9 ~budget:3
        ~inputs:(Scenario.unanimous_inputs ~n:9 true)
        ~max_rounds:24 ~seed:7L
    in
    Buffer.contents buf
  in
  Alcotest.(check string) "recording off = legacy bytes" fixture (regen ());
  (* The same run with a labeler must carry kind labels — proving the
     identity above is not vacuous. *)
  let labeled = regen ~labeler:Sub_third.msg_kind () in
  Alcotest.(check bool) "labeled run differs" true (labeled <> fixture);
  Alcotest.(check bool) "labeled run records kinds" true
    (contains labeled "\"kind\":")

let ba_run_exe = "../bin/ba_run.exe"

(* [cli exe args]: the command's exit code, stdout and stderr. *)
let cli exe args =
  let out = Filename.temp_file "cli" ".out"
  and err = Filename.temp_file "cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>%s" exe args (Filename.quote out)
         (Filename.quote err))
  in
  let result = (code, read_file out, read_file err) in
  Sys.remove out;
  Sys.remove err;
  result

let ba_run = cli ba_run_exe

(* Exit 1 and one [tool:] line: the line, and what went to stdout. *)
let error_line ~tool exe args =
  let code, out, err = cli exe args in
  Alcotest.(check int) (args ^ ": exit") 1 code;
  match String.split_on_char '\n' err with
  | [ line; "" ] when String.starts_with ~prefix:(tool ^ ": ") line ->
      (line, out)
  | _ -> Alcotest.failf "%s: expected one %s: line, got %S" args tool err

(* An out-of-range number is a usage error: exit 1 and one [tool:] line,
   before any run — never an uncaught exception (exit 125) or a run.
   Returns that line. *)
let usage_error_line ~tool exe args =
  let line, out = error_line ~tool exe args in
  Alcotest.(check string) (args ^ ": nothing run") "" out;
  line

let rejects_argument args () =
  ignore (usage_error_line ~tool:"ba_run" ba_run_exe args)

let ba_explore_exe = "../bin/ba_explore.exe"

let rejects_explore args () =
  ignore (usage_error_line ~tool:"ba_explore" ba_explore_exe args)

let ba_obs_exe = "../bin/ba_obs.exe"

let with_file contents f =
  let path = Filename.temp_file "ba_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let with_json_file json = with_file (Baobs.Json.to_string json)

(* A ba-resource/v1 document of [rounds] executed rounds at a flat
   1,000 words each, plus the setup row, after the run metadata [meta]. *)
let resource_doc ?(meta = []) ~rounds () =
  Baobs.Json.Obj
    ((("schema", Baobs.Json.String "ba-resource/v1") :: meta)
    @ [ ( "rounds",
        Baobs.Json.List
          (List.init (rounds + 1) (fun i ->
               Baobs.Json.Obj
                 [ ("round", Baobs.Json.Int (i - 1));
                   ("allocated_words", Baobs.Json.Float 1000.0);
                   ("promoted_words", Baobs.Json.Float 0.0);
                   ("minor_gcs", Baobs.Json.Int 0);
                   ("major_gcs", Baobs.Json.Int 0);
                   ("heap_words", Baobs.Json.Int 4096);
                   ("top_heap_words", Baobs.Json.Int 4096) ])) ) ])

(* Theil–Sen keeps one slope per pair of windowed rounds, so a window
   past the cap is refused, naming the cap, before anything is
   allocated for it. The document is the shortest whose trimmed window
   passes the cap (6,827 executed rounds, 4,097 fitted). *)
let test_mem_window_cap () =
  let cap = Baobs.Resource.max_window in
  let rec past rounds =
    if rounds - (2 * Baobs.Resource.trim ~rounds) > cap then rounds
    else past (rounds + 1)
  in
  with_json_file (resource_doc ~rounds:(past cap) ()) (fun path ->
      let line =
        usage_error_line ~tool:"ba_obs" ba_obs_exe
          (Printf.sprintf "mem %s" path)
      in
      let names_cap =
        List.mem (Printf.sprintf "%d-round" cap) (String.split_on_char ' ' line)
      in
      Alcotest.(check bool) ("names the cap: " ^ line) true names_cap)

(* The growth check compares two runs that differ only in n, smaller
   first; anything else is a usage error, whatever the documents
   hold. *)
let rejects_growth ~small ~large () =
  with_json_file (resource_doc ~meta:small ~rounds:20 ()) (fun a ->
      with_json_file (resource_doc ~meta:large ~rounds:20 ()) (fun b ->
          ignore
            (usage_error_line ~tool:"ba_obs" ba_obs_exe
               (Printf.sprintf "mem %s %s --check" a b))))

(* A trace the decoders refuse is a usage error through the CLI too:
   a unicast to -5 recipients (never a negative total) and a round far
   past the causal state-grid cap (never an allocation sized by it). *)
let negative_recipients =
  {|{"event":"round_started","round":0}
{"event":"sent","round":0,"node":0,"multicast":false,"recipients":-5,"bits":8}
|}

let huge_round =
  {|{"event":"round_started","round":0}
{"event":"round_started","round":4611686018427387903}
|}

let rejects_trace command trace () =
  with_file trace (fun path ->
      ignore
        (usage_error_line ~tool:"ba_obs" ba_obs_exe
           (Printf.sprintf "%s %s" command path)))

(* A document [mem] cannot read, such as a crypto gate report, is refused
   with one line, not read as a run of zero rounds. *)
let test_mem_rejects_other_schema () =
  with_json_file
    (Baobs.Json.Obj
       [ ("schema", Baobs.Json.String "ba-bench/v1");
         ("results", Baobs.Json.List []) ])
    (fun path ->
      ignore (usage_error_line ~tool:"ba_obs" ba_obs_exe ("mem " ^ path)))

(* A usage error whose one line names [flag] first. *)
let names_flag ~tool exe ~flag args () =
  let line = usage_error_line ~tool exe args in
  Alcotest.(check bool) (args ^ ": names " ^ flag) true
    (String.starts_with ~prefix:(Printf.sprintf "%s: %s " tool flag) line)

(* A count out of range on a trace [ba_obs] would otherwise analyze. *)
let rejects_count command ~flag flags =
  names_flag ~tool:"ba_obs" ba_obs_exe ~flag
    (Printf.sprintf "%s fixtures/legacy_e1_trace.jsonl %s" command flags)

(* [experiments.exe] refuses a bad number or output path before it runs
   anything, even the 0.04 s [--quick] E6. *)
let rejects_experiments ~flag flags =
  names_flag ~tool:"experiments" "../bin/experiments.exe" ~flag
    ("--quick --only E6 " ^ flags)

(* A [--json] write that fails after the tables are printed is one
   [experiments:] line and exit 1, not an uncaught exception. *)
let test_experiments_write_error () =
  if Sys.file_exists "/dev/full" then
    ignore
      (error_line ~tool:"experiments" "../bin/experiments.exe"
         "--quick --only E1b --json /dev/full")

(* A malformed [BA_JOBS] is refused before anything runs, by both tools
   that read it. *)
let rejects_ba_jobs ~tool exe args value =
  names_flag ~tool
    (Printf.sprintf "BA_JOBS=%s %s" (Filename.quote value) exe)
    ~flag:"BA_JOBS" args

(* BA_JOBS is the one parallelism setting, and it moves no byte: [exe]
   prints the same stdout and writes the same JSON to the file [args]
   names at 1 domain and at 4. Each child gets its BA_JOBS on its own
   command line, whatever the suite runs at. *)
let same_across_jobs exe args () =
  let run jobs =
    let json = Filename.temp_file "jobs" ".json" in
    let code, out, err =
      cli (Printf.sprintf "BA_JOBS=%d %s" jobs exe) (args (Filename.quote json))
    in
    let doc = read_file json in
    Sys.remove json;
    Alcotest.(check int) (Printf.sprintf "BA_JOBS=%d exit: %s" jobs err) 0 code;
    (out, doc)
  in
  let out1, doc1 = run 1 in
  let out4, doc4 = run 4 in
  Alcotest.(check string) "stdout" out1 out4;
  Alcotest.(check string) "JSON" doc1 doc4

(* Every option of the four tools, as [--help=plain] lists them, one line
   per option: "TOOL: NAMES", the option's names sorted, lines sorted per
   tool. [--help] is left out. Names only, so that another cmdliner's
   help text cannot move it: an option added or removed must change
   fixtures/cli_options.txt too. *)
let cli_tools =
  [ ("ba_run", ba_run_exe, "");
    ("ba_explore", ba_explore_exe, "");
    ("ba_obs report", ba_obs_exe, "report ");
    ("ba_obs causal", ba_obs_exe, "causal ");
    ("ba_obs mem", ba_obs_exe, "mem ");
    ("experiments", "../bin/experiments.exe", "") ]

let option_lines (tool, exe, command) =
  let code, help, err = cli exe (command ^ "--help=plain") in
  Alcotest.(check int) (tool ^ " --help: " ^ err) 0 code;
  (* "-o FILE, --output=FILE" and "--help[=FMT]" name -o, --output and
     --help *)
  let before c s = List.hd (String.split_on_char c s) in
  let names line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char ',')
    |> List.filter_map (fun token ->
           if String.starts_with ~prefix:"-" token then
             Some (before '[' (before '=' token))
           else None)
    |> List.sort String.compare
  in
  String.split_on_char '\n' help
  |> List.filter_map (fun line ->
         (* an option's entry starts at column 7; its help text at 11 *)
         if String.starts_with ~prefix:"       -" line then
           match names line with
           | [ "--help" ] -> None
           | site -> Some (tool ^ ": " ^ String.concat " " site)
         else None)
  |> List.sort String.compare

let test_cli_options () =
  Alcotest.(check (list string)) "fixtures/cli_options.txt"
    (String.split_on_char '\n' (read_file "fixtures/cli_options.txt")
    |> List.filter (fun line -> line <> ""))
    (List.concat_map option_lines cli_tools)

(* The seeded n = 401 split-vote run with resource telemetry passes the
   memory gate. *)
let test_n401_mem_check () =
  let path = Filename.temp_file "ba_run" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, _, _ =
        ba_run
          ("-p sub-hm -n 401 -a split-vote -f 130 --inputs split --seed 7 \
            --resource-json " ^ Filename.quote path)
      in
      Alcotest.(check int) "ba_run exit" 0 code;
      let code, _, err = cli ba_obs_exe ("mem " ^ path ^ " --check") in
      Alcotest.(check int) ("mem --check: " ^ err) 0 code)

(* [printed args]: what [ba_obs args] prints, after exit 0. *)
let printed args =
  let code, out, err = cli ba_obs_exe args in
  Alcotest.(check int) (args ^ ": " ^ err) 0 code;
  out

(* ba_obs writes exactly the library's renderings, which the analyses
   group pins: both --formats of report, causal and mem, and of the
   growth report. *)
let test_cli_renders () =
  let module R = Baobs_report.Report in
  let module C = Baobs_report.Causal in
  let module M = Baobs.Resource in
  let json j = Baobs.Json.to_string j ^ "\n" in
  let trace = "fixtures/legacy_e1_trace.jsonl" in
  let events = Trace.of_jsonl_string (read_file trace) in
  let report = R.of_events events and causal = C.of_events events in
  let renders cases =
    List.iter
      (fun (args, expected) ->
        Alcotest.(check string) args expected (printed args))
      cases
  in
  let analyze command flags = Printf.sprintf "%s %s %s" command trace flags in
  renders
    [ (analyze "report" "", R.to_text ~k:10 report);
      (analyze "report" "--format json", json (R.to_json ~k:10 report));
      (analyze "causal" "", C.to_text ~top:10 causal);
      (analyze "causal" "--format json", json (C.to_json causal)) ];
  let doc n = resource_doc ~meta:(run_meta ~n ()) ~rounds:20 () in
  with_json_file (doc 100) (fun small ->
      with_json_file (doc 1000) (fun large ->
          let read path =
            M.report_of_json (Baobs.Json.of_string (read_file path))
          in
          let r = read small in
          let f = M.flatness r in
          let g = Result.get_ok (M.growth r (read large)) in
          let mem flags = Printf.sprintf "mem %s %s" small flags in
          renders
            [ (mem "", M.report_to_text r f ^ "\n");
              (mem "--format json", json (M.report_to_json r f));
              (mem large, M.growth_to_text g ^ "\n");
              (mem (large ^ " --format json"), json (M.growth_to_json g)) ]))

(* ba_run labels the trace, ba_obs analyzes it: after [--causal
   --trace-jsonl], [ba_obs causal --format json] writes exactly the
   ba-causal/v1 document of the run's own trace. A doomed trace
   destination is refused before the run. *)
let test_ba_run_causal_through_ba_obs () =
  let args =
    "-p sub-third -n 9 -a eraser -f 3 --lambda 4 --epochs 3 --inputs ones \
     --seed 7 --causal --trace-jsonl "
  in
  let code, _, _ = ba_run (args ^ "/nonexistent-xyz/trace.jsonl") in
  Alcotest.(check int) "doomed path rejected up front" 1 code;
  let trace = Filename.temp_file "ba_causal" ".jsonl" in
  let code, _, err = ba_run (args ^ Filename.quote trace) in
  Alcotest.(check int) ("ba_run: " ^ err) 0 code;
  let jsonl = read_file trace in
  let document =
    printed
      (Printf.sprintf "causal %s -n 9 --format json" (Filename.quote trace))
  in
  Sys.remove trace;
  Alcotest.(check bool) "the trace is labeled" true (contains jsonl "\"kind\":");
  let analysis =
    Baobs_report.Causal.of_events ~n:9 (Trace.of_jsonl_string jsonl)
  in
  Alcotest.(check bool) "decisions recorded" true
    (Baobs_report.Causal.decisions analysis <> []);
  Alcotest.(check string) "ba_obs output = Causal.to_json of the trace"
    (Baobs.Json.to_string (Baobs_report.Causal.to_json analysis) ^ "\n")
    document

(* The unlabeled n = 401 split-vote run through every analyzer: its own
   trace lint passes, and the Definition-7 totals of the report and the
   sums of the causal flow matrix equal the run's metrics, injections
   included (an unlabeled trace carries them without bits). *)
let test_split_vote_analyzers () =
  let trace = Filename.temp_file "sv" ".jsonl"
  and metrics = Filename.temp_file "sv" ".json" in
  let code, _, err =
    ba_run
      (Printf.sprintf
         "-p sub-hm -n 401 -a split-vote -f 130 --inputs split --seed 7 \
          --trace-jsonl %s --metrics-json %s --check-trace"
         (Filename.quote trace) (Filename.quote metrics))
  in
  Alcotest.(check int) ("ba_run --check-trace: " ^ err) 0 code;
  let field path k doc =
    Baobs.Json.(as_int (member_exn k (member_exn path doc)))
  in
  let analysis command =
    Baobs.Json.of_string
      (printed (Printf.sprintf "%s %s --format json" command trace))
  in
  let report = analysis "report" and causal = analysis "causal" in
  let run = Baobs.Json.of_string (read_file metrics) in
  Sys.remove trace;
  Sys.remove metrics;
  let flow_sum k =
    List.fold_left
      (fun acc f -> acc + Baobs.Json.(as_int (member_exn k f)))
      0
      Baobs.Json.(as_list (member_exn "flows" causal))
  in
  Alcotest.(check bool) "the run injects" true
    (field "metrics" "injections" run > 0);
  List.iter
    (fun k ->
      Alcotest.(check int) k (field "metrics" k run) (field "totals" k report);
      Alcotest.(check int) ("flows " ^ k) (field "metrics" k run) (flow_sum k))
    [ "multicasts"; "multicast_bits"; "removals"; "injections" ]

(* A window of fewer than {!Baobs.Resource.min_window} fitted rounds
   reads flat whatever it holds, so a check refuses it and names the
   count it fitted. *)
let refuses_window ~fitted args =
  let line = usage_error_line ~tool:"ba_obs" ba_obs_exe args in
  Alcotest.(check bool) ("names the fitted count: " ^ line) true
    (contains line (Printf.sprintf " %d rounds " fitted)
    && contains line
         (Printf.sprintf "fewer than the %d" Baobs.Resource.min_window))

(* Two executed rounds lose one to each trim, so nothing is fitted. *)
let test_check_nothing_fitted () =
  with_json_file (synthetic_resource_json [ 1_000.0; 1_000.0 ]) (fun path ->
      refuses_window ~fitted:0 ("mem " ^ path ^ " --check"))

let test_check_two_rising_rounds () =
  with_json_file
    (synthetic_resource_json [ 1_000.0; 8_000.0; 27_000.0; 64_000.0 ])
    (fun path -> refuses_window ~fitted:2 ("mem " ^ path ^ " --check"))

let test_growth_two_round_documents () =
  let doc ~n words =
    synthetic_resource_json ~meta:(run_meta ~n ()) [ words; words ]
  in
  with_json_file (doc ~n:1_000 1e3) (fun small ->
      with_json_file (doc ~n:1_000_000 1e8) (fun large ->
          refuses_window ~fitted:0
            (Printf.sprintf "mem %s %s --check" small large)))

(* Drift is relative to the steady mean, so a window that allocates
   nothing reads drift 0, and a growth ratio over it reads 0: neither is a
   verdict. Both checks refuse it, naming the mean. *)
let refuses_mean args =
  let line = usage_error_line ~tool:"ba_obs" ba_obs_exe args in
  Alcotest.(check bool) ("names the mean: " ^ line) true
    (contains line "steady mean is 0 words/round")

let zero_doc ?meta () =
  synthetic_resource_json ?meta (List.init 20 (fun _ -> 0.0))

let test_check_zero_mean () =
  with_json_file (zero_doc ()) (fun path ->
      refuses_mean ("mem " ^ path ^ " --check"))

let test_growth_zero_means () =
  with_json_file (zero_doc ~meta:(run_meta ~n:1_000 ()) ()) (fun small ->
      with_json_file (zero_doc ~meta:(run_meta ~n:1_000_000 ()) ()) (fun large ->
          refuses_mean (Printf.sprintf "mem %s %s --check" small large)))

(* --epochs caps quadratic-HM's iterations as it caps sub-HM's: with split
   inputs nobody decides in iteration 1, so at one iteration every node
   halts undecided in round 2. *)
let test_ba_run_epochs_cap_quadratic_hm () =
  let code, out, _ =
    ba_run "-p quadratic-hm -n 11 --epochs 1 --inputs split --seed 3"
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "termination failure" 2 code;
  Alcotest.(check bool) "three rounds" true (List.mem "rounds        : 3" lines);
  Alcotest.(check bool) "nobody decides" true
    (List.mem "outputs       : 0 decided (0 ones, 0 zeros)" lines)

(* Quadratic-HM draws one leader per iteration before round 0, so an
   --epochs the round cap accepts could still exhaust memory, or exit 125
   from Array.make at the round cap's own limit; the entry refuses any
   value above 10⁶. *)
let test_ba_run_quadratic_hm_leader_cap () =
  List.iter
    (fun epochs ->
      Alcotest.(check string) ("--epochs " ^ epochs)
        ("ba_run: quadratic-hm draws its leader schedule before round 0: \
          --epochs must be at most 1000000, got " ^ epochs)
        (usage_error_line ~tool:"ba_run" ba_run_exe
           ("-p quadratic-hm -n 3 --epochs " ^ epochs)))
    [ "1000001"; string_of_int Baattacks.Registry.max_epochs ]

(* Every run is labeled with its -p name, on stdout and in the metrics
   JSON: a real-world run must not read as a hybrid one, nor the
   bit-agnostic ablation as the paper's protocol. *)
let test_ba_run_labels_its_protocol () =
  List.iter
    (fun name ->
      let json = Filename.temp_file "ba_run" ".json" in
      let code, out, _ =
        ba_run
          (Printf.sprintf "-p %s -n 31 --lambda 12 --epochs 4 --seed 3 \
                           --metrics-json %s"
             name (Filename.quote json))
      in
      let metrics = read_file json in
      Sys.remove json;
      Alcotest.(check int) (name ^ ": exit") 0 code;
      Alcotest.(check bool) (name ^ ": stdout") true
        (List.mem ("protocol      : " ^ name) (String.split_on_char '\n' out));
      Alcotest.(check bool) (name ^ ": metrics json") true
        (String.starts_with
           ~prefix:(Printf.sprintf "{\"protocol\":\"%s\"," name)
           metrics))
    [ "sub-hm-real"; "sub-third-agnostic" ]

(* A usage error opens no output: a --trace-jsonl file that already
   exists keeps its bytes. *)
let keeps_trace_file args () =
  let path = Filename.temp_file "ba_run" ".jsonl" in
  let oc = open_out path in
  output_string oc "kept\n";
  close_out oc;
  rejects_argument (args ^ " --trace-jsonl " ^ Filename.quote path) ();
  let after = read_file path in
  Sys.remove path;
  Alcotest.(check string) (args ^ ": file untouched") "kept\n" after

(* A digest fixture: each line reads "<trace> <metrics> <stdout> KEY",
   the SHA-256 digests of one ba_run.exe run, and KEY is the words that
   name the run. *)
let read_digests file =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | trace :: metrics :: out :: (_ :: _ as key) ->
          Some (key, String.concat " " [ trace; metrics; out ])
      | _ -> None)
    (String.split_on_char '\n' (read_file ("fixtures/" ^ file)))

(* [args] writing its trace and metrics to two fresh paths, which do not
   exist yet. *)
let with_outputs args =
  let fresh ext =
    let path = Filename.temp_file "ba_run" ext in
    Sys.remove path;
    path
  in
  let trace = fresh ".jsonl" and metrics = fresh ".json" in
  ( Printf.sprintf "%s --trace-jsonl %s --metrics-json %s" args
      (Filename.quote trace) (Filename.quote metrics),
    trace,
    metrics )

(* The digests of one run of [args], as a fixture line holds them; the
   exit code is appended to stdout. *)
let run_digests args =
  let hex s = Bacrypto.Sha256.(to_hex (digest_string s)) in
  let args, trace, metrics = with_outputs args in
  let code, out, _ = ba_run args in
  let digest path =
    let d = hex (read_file path) in
    Sys.remove path;
    d
  in
  String.concat " "
    [ digest trace; digest metrics; hex (out ^ Printf.sprintf "exit %d\n" code) ]

(* Every (-p, -a) pair of the registry, run once through ba_run.exe. An
   accepted pair has the digests its line of fixtures/ba_run_pairs.txt
   pins (KEY is "<-p> <-a>"); that file was generated with the ba_run.exe
   of the commit before the registry, which wrote each protocol's
   dispatch by hand and ran every node's step, and a failing case prints
   the digests it received. A refused pair is one ba_run: line and
   creates no file. At seed 4 a crowd that hears private inboxes as the
   shared tail breaks sub-third's split-vote pairs. *)
let pair_digests = lazy (read_digests "ba_run_pairs.txt")

let test_ba_run_pairs (Baattacks.Registry.Entry e) () =
  let open Baattacks.Registry in
  let accepted =
    List.filter (fun a -> List.mem_assoc a e.adversaries) adversary_names
  in
  let expected = Lazy.force pair_digests in
  Alcotest.(check (list string))
    (e.name ^ ": the fixture's adversaries")
    (List.filter_map
       (function [ p; a ], _ when p = e.name -> Some a | _ -> None)
       expected)
    accepted;
  List.iter
    (fun adv ->
      let args =
        Printf.sprintf
          "-p %s -a %s -n 41 -f 13 --lambda 12 --epochs 4 --inputs split \
           --seed 4"
          e.name adv
      in
      if List.mem adv accepted then
        Alcotest.(check string) args
          (List.assoc [ e.name; adv ] expected)
          (run_digests args)
      else begin
        let args, trace, metrics = with_outputs args in
        rejects_argument args ();
        Alcotest.(check bool) (args ^ ": no output file") false
          (Sys.file_exists trace || Sys.file_exists metrics)
      end)
    adversary_names

(* A protocol with a crowd hook runs through it, and the hook writes what
   every node's own step writes: each argument line has the digests its
   line of fixtures/dense_sparse.txt pins (KEY is the case name), which
   were generated with ba_run.exe stepping every node. One line per
   crowd protocol family and world: sub-HM split-vote in both worlds,
   quadratic-HM under the eraser, sub-third with targeted injections
   (private inboxes) and its bit-agnostic ablation under the equivocator,
   the warmup, and Chen-Micali with and without erasure. Three lines
   break a property on purpose and exit 2. *)
let dense_sparse_lines =
  [ ("sub-hm", "-p sub-hm -n 401 -a split-vote -f 130 --inputs split --seed 7");
    ( "sub-hm-real",
      "-p sub-hm-real -n 101 -a split-vote -f 32 --inputs split --seed 7" );
    ( "quadratic-hm",
      "-p quadratic-hm -n 101 -a eraser -f 50 --inputs split --seed 7" );
    ( "sub-third",
      "-p sub-third -n 401 -a split-vote -f 130 --inputs split --seed 7" );
    ( "sub-third-agnostic",
      "-p sub-third-agnostic -n 360 -a equivocator -f 100 --lambda 20 \
       --epochs 5 --inputs split --seed 3" );
    ( "warmup-third",
      "-p warmup-third -n 41 -a silencer -f 13 --inputs split --seed 5 \
       --epochs 6" );
    ( "chen-micali",
      "-p chen-micali -n 360 -a cm-equivocator -f 110 --lambda 20 --epochs 5 \
       --inputs split --seed 3" );
    ( "chen-micali-no-erasure",
      "-p chen-micali-no-erasure -n 360 -a cm-equivocator -f 110 --lambda 20 \
       --epochs 5 --inputs split --seed 3" ) ]

let line_digests = lazy (read_digests "dense_sparse.txt")

let test_dense_sparse (name, args) () =
  Alcotest.(check string) args
    (List.assoc [ name ] (Lazy.force line_digests))
    (run_digests args)

(* Which path ba_run took, read off its work rather than its time: the
   crowd checks each signed quadratic-HM message once, 246 signature
   verifications at n = 61, where stepping every node makes 11,226. *)
let test_crowd_path_work () =
  let code, out, _ = ba_run "-p quadratic-hm -n 61 --seed 3 --timings" in
  Alcotest.(check int) "exit" 0 code;
  let verifies =
    List.find_map
      (fun line ->
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | "signature.verify" :: calls :: _ -> Some calls
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  Alcotest.(check (option string)) "signature.verify calls" (Some "246")
    verifies

(* Recording reads GC counters only: the seeded E1 run writes the same
   trace with --resource-json as without. *)
let test_ba_run_recording_keeps_trace () =
  let trace flags =
    let path = Filename.temp_file "ba_run" ".jsonl" in
    let code, _, _ =
      ba_run
        (Printf.sprintf
           "-p sub-hm -n 101 -a eraser -f 30 --epochs 5 --lambda 20 \
            --inputs ones --seed 7 --trace-jsonl %s%s"
           (Filename.quote path) flags)
    in
    Alcotest.(check int) ("exit" ^ flags) 0 code;
    let t = read_file path in
    Sys.remove path;
    t
  in
  let resource = Filename.temp_file "ba_run" ".json" in
  let recorded = trace (" --resource-json " ^ Filename.quote resource) in
  Sys.remove resource;
  Alcotest.(check bool) "same trace" true (String.equal (trace "") recorded)

(* --- crypto gate ---------------------------------------------------------- *)

let crypto_gate_exe = "../ci/crypto_gate.exe"

let crypto_rows =
  [ "ba/crypto/sha256-1KiB"; "ba/crypto/hmac-1KiB"; "ba/crypto/vrf-eval";
    "ba/crypto/vrf-verify"; "ba/crypto/fmine-mine" ]

(* A ba-bench/v1 baseline of [rows], each at [others] ns (10^12) except
   [fast], at 10^-3 ns. Every benchmark runs between the two by a factor
   of 10^6 or more on any host, so no verdict depends on its speed. *)
let synthetic_baseline ?fast ?(others = 1e12) ?(rows = crypto_rows) () =
  Baobs.Json.Obj
    [ ("schema", Baobs.Json.String "ba-bench/v1");
      ( "results",
        Baobs.Json.List
          (List.map
             (fun name ->
               Baobs.Json.Obj
                 [ ("name", Baobs.Json.String name);
                   ( "ns_per_run",
                     Baobs.Json.Float
                       (if Some name = fast then 1e-3 else others) ) ])
             rows) ) ]

(* A path in the temporary directory that names no file. *)
let fresh_path () =
  let path = Filename.temp_file "crypto_gate" ".json" in
  Sys.remove path;
  path

let test_crypto_gate_names_the_slow_row () =
  let fast = "ba/crypto/vrf-verify" in
  with_json_file (synthetic_baseline ~fast ()) (fun base ->
      let out = fresh_path () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists out then Sys.remove out)
        (fun () ->
          let code, stdout, err =
            cli crypto_gate_exe (base ^ " " ^ Filename.quote out)
          in
          Alcotest.(check int) "exit" 1 code;
          (match String.split_on_char '\n' err with
          | [ line; "" ] ->
              Alcotest.(check bool) ("names only " ^ fast ^ ": " ^ line) true
                (String.starts_with ~prefix:("crypto_gate: " ^ fast ^ ": ") line)
          | _ -> Alcotest.failf "expected one crypto_gate: line, got %S" err);
          List.iter
            (fun name ->
              Alcotest.(check bool) ("row " ^ name) true (contains stdout name))
            crypto_rows;
          let report = Baobs.Json.of_string (String.trim (read_file out)) in
          let results = Baobs.Json.(as_list (member_exn "results" report)) in
          Alcotest.(check string) "schema" "ba-bench/v1"
            Baobs.Json.(as_string (member_exn "schema" report));
          Alcotest.(check (list string)) "a median per row" crypto_rows
            (List.map
               (fun r ->
                 let ns = Baobs.Json.(as_float (member_exn "ns_per_run" r)) in
                 Alcotest.(check bool) "positive median" true (ns > 0.0);
                 Baobs.Json.(as_string (member_exn "name" r)))
               results)))

(* Refused with one line before anything is timed: the table, printed
   once the passes end, never appears, and OUT is not created. *)
let refuses_crypto_gate ?(out = fresh_path ()) args () =
  ignore (usage_error_line ~tool:"crypto_gate" crypto_gate_exe (args out));
  Alcotest.(check bool) "no report written" false (Sys.file_exists out)

let test_crypto_gate_malformed_baselines () =
  let refuses_baseline contents =
    with_file contents (fun base ->
        refuses_crypto_gate (fun out -> base ^ " " ^ Filename.quote out) ())
  in
  refuses_baseline "{\"schema\":\"ba-bench/v1\",";
  refuses_baseline "{\"schema\":\"ba-bench/v1\"}";
  refuses_baseline
    (Baobs.Json.to_string
       (synthetic_baseline ~rows:(List.tl crypto_rows) ()));
  refuses_baseline
    (Baobs.Json.to_string (synthetic_baseline ~others:0.0 ()));
  refuses_crypto_gate
    (fun out -> "/nonexistent-xyz/BENCH_5.json " ^ Filename.quote out)
    ()

let test_crypto_gate_unwritable_output () =
  with_json_file (synthetic_baseline ()) (fun base ->
      refuses_crypto_gate ~out:"/nonexistent-xyz/bench.json"
        (fun out -> base ^ " " ^ out)
        ())

let test_crypto_gate_argument_count () =
  with_json_file (synthetic_baseline ()) (fun base ->
      List.iter
        (fun args -> refuses_crypto_gate (fun _ -> args) ())
        [ ""; base; base ^ " a.json b.json" ])

(* A write that fails after the passes is one line and exit 1, not an
   uncaught exception. *)
let test_crypto_gate_write_error () =
  if Sys.file_exists "/dev/full" then
    with_json_file (synthetic_baseline ()) (fun base ->
        ignore
          (error_line ~tool:"crypto_gate" crypto_gate_exe
             (base ^ " /dev/full")))

(* --- examples -------------------------------------------------------------- *)

(* README quotes what the examples print, so each must still run. *)
let test_example ?expect name () =
  let code, out, err = cli (Printf.sprintf "../examples/%s.exe" name) "" in
  Alcotest.(check int) (name ^ " exit: " ^ err) 0 code;
  Option.iter
    (fun line -> Alcotest.(check bool) line true (contains out line))
    expect

(* Ids off the state grid are a parse error naming the event, never an
   out-of-bounds crash or a silent read of another node's state. *)
let rejects label ?n events =
  Alcotest.(check bool) label true
    (match Baobs_report.Causal.of_events ?n events with
    | exception Baobs.Json.Parse_error _ -> true
    | _ -> false)

let test_causal_rejects_ids_beyond_n () =
  rejects "legacy split trace at -n 2" ~n:2
    (Trace.of_jsonl_string (read_file "fixtures/legacy_split_trace.jsonl"));
  (* a node count below 1 is refused, not read as 1 *)
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Causal.of_events: n = 0 is below 1") (fun () ->
      ignore (Baobs_report.Causal.of_events ~n:0 []))

let test_causal_rejects_negative_round () =
  rejects "sent at round -5"
    [ sent ~round:(-5) ~node:0 ~multicast:true ~recipients:2 ]

let test_causal_rejects_negative_halt () =
  rejects "halted node -4"
    [ Trace.Round_started { round = 0 };
      Trace.Halted { round = 0; node = -4; output = Some true } ]

let test_causal_rejects_negative_target () =
  rejects "unicast to -5"
    [ Trace.Round_started { round = 0 };
      Trace.Sent
        { round = 0; node = 0; multicast = false; recipients = 1; bits = 8;
          id = 0; kind = "a"; targets = [ -5 ] };
      Trace.Round_started { round = 1 } ]

let test_causal_rejects_negative_sender () =
  rejects "sent by node -1"
    [ Trace.Round_started { round = 0 };
      Trace.Round_started { round = 1 };
      sent ~round:1 ~node:(-1) ~multicast:true ~recipients:2 ]

(* The round is read off the trace and sizes the state grid, so a round
   past {!Baobs_report.Causal.max_states} is refused rather than
   allocated (or overflowed into an out-of-bounds index). *)
let test_causal_rejects_huge_round () =
  rejects "round 4611686018427387903"
    [ Trace.Round_started { round = 0 };
      Trace.Round_started { round = max_int } ];
  rejects "one round past the cap at n = 2" ~n:2
    [ Trace.Round_started { round = Baobs_report.Causal.max_states / 2 } ]

(* --- decoders ---------------------------------------------------------------- *)

(* Every decoder of a document from outside the program returns a value
   or raises [Baobs.Json.Parse_error], whatever the document holds. The
   properties mutate valid documents and run the decoder on the result;
   any other exception fails them. *)

type mutation =
  | Truncate of int  (** keep the first [k mod length] bytes *)
  | Overwrite of int * char  (** one byte *)
  | Stringify of int  (** the [k]-th number becomes a string *)
  | Negate of int
  | Inflate of int * int  (** the [k]-th number gains [z] zeros *)
  | Drop of int * int  (** a member of the [k]-th object *)

let pp_mutation = function
  | Truncate k -> Printf.sprintf "truncate %d" k
  | Overwrite (k, c) -> Printf.sprintf "overwrite %d with %C" k c
  | Stringify k -> Printf.sprintf "stringify number %d" k
  | Negate k -> Printf.sprintf "negate number %d" k
  | Inflate (k, z) -> Printf.sprintf "inflate number %d by 10^%d" k z
  | Drop (k, j) -> Printf.sprintf "drop member %d of object %d" j k

let mutation =
  let open QCheck.Gen in
  QCheck.make ~print:pp_mutation
    (oneof
       [ map (fun k -> Truncate k) nat;
         map2 (fun k c -> Overwrite (k, c)) nat char;
         map (fun k -> Stringify k) nat;
         map (fun k -> Negate k) nat;
         map2 (fun k z -> Inflate (k, z)) nat (int_range 1 24);
         map2 (fun k j -> Drop (k, j)) nat nat ])

(* The (start, length) of every number in a JSON text: a run of number
   characters right after ':', ',' or '['. *)
let numbers text =
  let is_num c = String.contains "0123456789+-.eE" c in
  let rec scan i acc =
    if i >= String.length text then List.rev acc
    else if is_num text.[i] && i > 0 && String.contains ":,[" text.[i - 1] then begin
      let j = ref i in
      while !j < String.length text && is_num text.[!j] do
        incr j
      done;
      scan !j ((i, !j - i) :: acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

(* [text] with its [k]-th number (mod their count) rewritten by [f]. *)
let rewrite_number text k f =
  match numbers text with
  | [] -> text
  | spans ->
      let start, len = List.nth spans (k mod List.length spans) in
      String.sub text 0 start
      ^ f (String.sub text start len)
      ^ String.sub text (start + len) (String.length text - start - len)

(* One JSON line with a member of its [k]-th object (preorder, mod their
   count) dropped. *)
let drop_member line k j =
  let open Baobs.Json in
  let count = ref 0 in
  let rec objects = function
    | Obj fields as o -> o :: List.concat_map (fun (_, v) -> objects v) fields
    | List items -> List.concat_map objects items
    | Null | Bool _ | Int _ | Float _ | String _ -> []
  in
  let json = of_string line in
  let target = k mod max 1 (List.length (objects json)) in
  let rec drop = function
    | Obj fields ->
        let here = !count in
        incr count;
        let fields = List.map (fun (key, v) -> (key, drop v)) fields in
        if here = target && fields <> [] then
          Obj (List.filteri (fun i _ -> i <> j mod List.length fields) fields)
        else Obj fields
    | List items -> List (List.map drop items)
    | (Null | Bool _ | Int _ | Float _ | String _) as v -> v
  in
  to_string (drop json)

let mutate text = function
  | Truncate k -> String.sub text 0 (k mod (String.length text + 1))
  | Overwrite (k, c) ->
      let b = Bytes.of_string text in
      Bytes.set b (k mod Bytes.length b) c;
      Bytes.to_string b
  | Stringify k -> rewrite_number text k (fun _ -> {|"x"|})
  | Negate k ->
      rewrite_number text k (fun n ->
          if String.starts_with ~prefix:"-" n then
            String.sub n 1 (String.length n - 1)
          else "-" ^ n)
  | Inflate (k, z) -> rewrite_number text k (fun n -> n ^ String.make z '0')
  | Drop (k, j) ->
      (* one line of a JSONL document, the whole of any other *)
      let lines = String.split_on_char '\n' (String.trim text) in
      let at = k mod List.length lines in
      String.concat "\n"
        (List.mapi (fun i l -> if i = at then drop_member l k j else l) lines)

let total_on name ~document decode =
  let text = Lazy.from_fun document in
  QCheck.Test.make ~name ~count:300 mutation (fun m ->
      match decode (mutate (Lazy.force text) m) with
      | _ -> true
      | exception Baobs.Json.Parse_error _ -> true)

(* A labeled trace holding every event kind: corruptions, removals and
   sends from a sub-HM eraser run, injections and halts from a split-vote
   run. *)
let decoder_trace () =
  let run adversary n budget =
    let buf = Buffer.create 4096 in
    ignore
      (Engine.run ~labeler:Sub_hm.msg_kind
         ~tracer:(Trace.jsonl_tracer (Baobs.Jsonl.to_buffer buf))
         (Sub_hm.protocol
            ~params:(Params.make ~lambda:6 ~max_epochs:3 ())
            ~world:`Hybrid)
         ~adversary ~n ~budget ~inputs:(Scenario.split_inputs ~n)
         ~max_rounds:24 ~seed:5L);
    Buffer.contents buf
  in
  run (Baattacks.Eraser.make ()) 9 3 ^ run (Baattacks.Split_vote.sub_hm ()) 9 4

(* A resource document with the run metadata [ba_run] writes. *)
let decoder_resource () =
  let n = 21 and resource = Baobs.Resource.create () in
  ignore
    (Engine.run ~resource
       (Sub_hm.protocol ~params:(Params.make ~lambda:8 ~max_epochs:4 ())
          ~world:`Hybrid)
       ~adversary:(passive ()) ~n ~budget:0
       ~inputs:(Scenario.split_inputs ~n) ~max_rounds:28 ~seed:5L);
  Baobs.Json.to_string
    (Baobs.Resource.to_json
       ~meta:
         Baobs.Json.
           [ ("protocol", String "sub-hm"); ("n", Int n); ("seed", Int 5);
             ("budget", Int 0) ]
       resource)

(* A schedule holding every action and destination form. *)
let decoder_schedule () =
  Baobs.Json.to_string
    (Schedule.to_json
       { Schedule.name = "every-action";
         model = Corruption.Strongly_adaptive;
         setup = [ 1; 4 ];
         steps =
           [ (0, [ Schedule.Corrupt 2; Remove { victim = 2; index = 0 } ]);
             ( 1,
               [ Inject { src = 1; kind = "vote"; bit = true; dst = Everyone };
                 Inject { src = 4; kind = "propose"; bit = false; dst = Lower_half };
                 Inject { src = 4; kind = "commit"; bit = true; dst = Upper_half };
                 Inject { src = 2; kind = "status"; bit = false; dst = Nodes [ 0; 3 ] }
               ] );
             (2, [ Halt ]) ] })

let decoder_tests =
  [ total_on "Json.of_string" ~document:decoder_resource (fun text ->
        ignore (Baobs.Json.of_string text));
    total_on "Trace.of_jsonl_string" ~document:decoder_trace (fun text ->
        ignore (Trace.of_jsonl_string text));
    total_on "Schedule.of_json" ~document:decoder_schedule (fun text ->
        ignore (Schedule.of_json (Baobs.Json.of_string text)));
    total_on "Resource.report_of_json" ~document:decoder_resource (fun text ->
        ignore (Baobs.Resource.report_of_json (Baobs.Json.of_string text))) ]

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "whitespace" `Quick test_json_parse_whitespace;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
          Alcotest.test_case "rates" `Quick test_rates_json_roundtrip ] );
      ( "probe",
        [ Alcotest.test_case "spans" `Quick test_probe_spans;
          Alcotest.test_case "two-domain hammer" `Quick
            test_probe_two_domain_hammer;
          Alcotest.test_case "negative span clamped" `Quick
            test_probe_negative_span_clamped ] );
      ( "report",
        [ Alcotest.test_case "e1 reproduces Metrics" `Quick
            test_report_reproduces_metrics_e1;
          Alcotest.test_case "exports" `Quick test_report_exports;
          Alcotest.test_case "empty trace" `Quick test_report_empty_trace;
          Alcotest.test_case "any node id" `Quick test_report_any_node_id;
          Alcotest.test_case "rounds window" `Quick test_report_rounds_window;
          Alcotest.test_case "negative sizes rejected" `Quick
            test_report_rejects_negative_sizes;
          Alcotest.test_case "ba_obs renders each --format" `Quick
            test_cli_renders;
          Alcotest.test_case "split-vote run, every analyzer" `Quick
            test_split_vote_analyzers ]
      );
      ( "resource",
        [ Alcotest.test_case "delta nonnegative" `Quick
            test_resource_delta_nonnegative;
          Alcotest.test_case "recorder rows" `Quick test_resource_recorder_rows;
          Alcotest.test_case "disabled records nothing" `Quick
            test_resource_disabled_records_nothing;
          Alcotest.test_case "trace byte-identical" `Quick
            test_resource_trace_byte_identical;
          Alcotest.test_case "json roundtrip" `Quick
            test_resource_json_roundtrip;
          Alcotest.test_case "flatness verdicts" `Quick
            test_resource_flatness_verdicts;
          Alcotest.test_case "rows sum to the run" `Quick
            test_resource_rows_sum_to_run;
          Alcotest.test_case "growth verdicts" `Quick
            test_resource_growth_verdicts;
          Alcotest.test_case "n=401 run passes mem --check" `Quick
            test_n401_mem_check;
          Alcotest.test_case "ba_run recording keeps the trace" `Quick
            test_ba_run_recording_keeps_trace ] );
      ( "sink-path",
        [ Alcotest.test_case "validate_path" `Quick test_validate_path ] );
      ( "ba-run-args",
        [ Alcotest.test_case "even n for quadratic-hm" `Quick
            (rejects_argument "-p quadratic-hm -n 100");
          Alcotest.test_case "budget above n" `Quick
            (rejects_argument "-p sub-hm -n 5 -a eraser -f 10");
          Alcotest.test_case "negative budget" `Quick
            (rejects_argument "-p sub-hm --budget=-1");
          Alcotest.test_case "lambda 0" `Quick
            (rejects_argument "-p sub-hm --lambda 0");
          Alcotest.test_case "epochs 0" `Quick
            (rejects_argument "-p sub-hm --epochs 0");
          Alcotest.test_case "no nodes" `Quick
            (rejects_argument "-p sub-hm -n 0");
          Alcotest.test_case "reps 0" `Quick
            (rejects_argument "-p sub-hm -n 11 --reps 0");
          Alcotest.test_case "negative reps" `Quick
            (rejects_argument "-p sub-hm -n 11 --reps=-2");
          Alcotest.test_case "epochs cap quadratic-hm" `Quick
            test_ba_run_epochs_cap_quadratic_hm;
          Alcotest.test_case "quadratic-hm leader cap" `Quick
            test_ba_run_quadratic_hm_leader_cap;
          Alcotest.test_case "label is the -p name" `Quick
            test_ba_run_labels_its_protocol;
          Alcotest.test_case "static-committee above n" `Quick
            (rejects_argument "-p static-committee -n 5 --lambda 40");
          Alcotest.test_case "sparse-relay n up to 3" `Quick (fun () ->
              List.iter
                (fun n -> rejects_argument ("-p sparse-relay -n " ^ n) ())
                [ "1"; "2"; "3" ]);
          Alcotest.test_case "epochs overflow" `Quick
            (rejects_argument "-p sub-hm -n 11 --epochs 4611686018427387903");
          Alcotest.test_case "refusal keeps files" `Quick
            (keeps_trace_file "-p warmup-third -n 11 -a split-vote");
          Alcotest.test_case "sweep keeps files" `Quick
            (keeps_trace_file "-p sub-hm -n 11 --reps 2");
          Alcotest.test_case "BA_JOBS 0" `Quick
            (rejects_ba_jobs ~tool:"ba_run" ba_run_exe "-p sub-hm -n 11" "0");
          Alcotest.test_case "BA_JOBS abc" `Quick
            (rejects_ba_jobs ~tool:"ba_run" ba_run_exe "-p sub-hm -n 11" "abc");
          Alcotest.test_case "causal without a trace" `Quick
            (names_flag ~tool:"ba_run" ba_run_exe ~flag:"--causal"
               "-p sub-hm -n 11 --causal --check-trace") ] );
      ( "ba-run-pairs",
        List.map
          (fun (Baattacks.Registry.Entry e as entry) ->
            Alcotest.test_case e.name `Quick (test_ba_run_pairs entry))
          Baattacks.Registry.entries );
      ( "dense-sparse",
        List.map
          (fun ((name, _) as line) ->
            Alcotest.test_case name `Quick (test_dense_sparse line))
          dense_sparse_lines
        @ [ Alcotest.test_case "crowd path by work" `Quick
              test_crowd_path_work ] );
      ( "explore-args",
        [ Alcotest.test_case "lambda 0" `Quick
            (rejects_explore "-p sub-third --lambda 0");
          Alcotest.test_case "epochs 0" `Quick
            (rejects_explore "-p sub-third --epochs 0");
          Alcotest.test_case "negative budget" `Quick
            (rejects_explore "-p sub-third --budget=-1");
          Alcotest.test_case "budget above n" `Quick
            (rejects_explore "-p sub-third -n 3 --budget 5");
          Alcotest.test_case "committee 0" `Quick
            (rejects_explore "-p static-committee --committee 0");
          Alcotest.test_case "committee above n" `Quick
            (rejects_explore "-p static-committee -n 3 --committee 5");
          Alcotest.test_case "max-rounds 0" `Quick
            (rejects_explore "-p sub-third --max-rounds 0");
          Alcotest.test_case "negative max-rounds" `Quick
            (rejects_explore "-p sub-third --max-rounds=-1");
          Alcotest.test_case "max-nodes 0" `Quick
            (rejects_explore "-p sub-third --max-nodes 0");
          Alcotest.test_case "negative max-actions" `Quick
            (rejects_explore "-p sub-third --max-actions=-1");
          Alcotest.test_case "actions-per-round 0" `Quick
            (rejects_explore "-p sub-third --actions-per-round 0");
          Alcotest.test_case "epochs overflow" `Quick
            (rejects_explore
               "-p sub-third --epochs 4611686018427387903 --max-rounds 1") ] );
      ( "ba-obs-args",
        [ Alcotest.test_case "mem: not a resource document" `Quick
            test_mem_rejects_other_schema;
          Alcotest.test_case "mem window cap" `Quick test_mem_window_cap;
          Alcotest.test_case "growth: protocols differ" `Quick
            (rejects_growth ~small:(run_meta ~n:100 ())
               ~large:(run_meta ~protocol:"sub-third" ~n:1000 ()));
          Alcotest.test_case "growth: seeds differ" `Quick
            (rejects_growth ~small:(run_meta ~n:100 ())
               ~large:(run_meta ~seed:7 ~n:1000 ()));
          Alcotest.test_case "growth: n not increasing" `Quick
            (rejects_growth ~small:(run_meta ~n:1000 ())
               ~large:(run_meta ~n:1000 ()));
          Alcotest.test_case "growth: no run metadata" `Quick
            (rejects_growth ~small:[] ~large:(run_meta ~n:1000 ()));
          Alcotest.test_case "growth: n decreasing" `Quick
            (rejects_growth ~small:(run_meta ~n:1000 ())
               ~large:(run_meta ~n:100 ()));
          Alcotest.test_case "growth: 2-round documents" `Quick
            test_growth_two_round_documents;
          Alcotest.test_case "growth: zero means" `Quick test_growth_zero_means;
          Alcotest.test_case "report: negative recipients" `Quick
            (rejects_trace "report" negative_recipients);
          Alcotest.test_case "causal: negative recipients" `Quick
            (rejects_trace "causal" negative_recipients);
          Alcotest.test_case "causal: round past the cap" `Quick
            (rejects_trace "causal" huge_round);
          Alcotest.test_case "report: negative top" `Quick
            (rejects_count "report" ~flag:"--top" "--top=-1");
          Alcotest.test_case "causal: negative top" `Quick
            (rejects_count "causal" ~flag:"--top" "--top=-1");
          Alcotest.test_case "causal: n 0" `Quick
            (rejects_count "causal" ~flag:"-n" "-n 0");
          Alcotest.test_case "check: 0 rounds fitted" `Quick
            test_check_nothing_fitted;
          Alcotest.test_case "check: 2 rising rounds" `Quick
            test_check_two_rising_rounds;
          Alcotest.test_case "check: zero mean" `Quick test_check_zero_mean ] );
      ( "exp-args",
        [ Alcotest.test_case "json in a missing dir" `Quick
            (rejects_experiments ~flag:"--json:"
               "--json /nonexistent-dir/x.json");
          Alcotest.test_case "json is a directory" `Quick
            (rejects_experiments ~flag:"--json:"
               ("--json " ^ Filename.quote (Filename.get_temp_dir_name ())));
          Alcotest.test_case "BA_JOBS 0" `Quick
            (rejects_ba_jobs ~tool:"experiments" "../bin/experiments.exe"
               "--quick --only E6" "0");
          Alcotest.test_case "BA_JOBS abc" `Quick
            (rejects_ba_jobs ~tool:"experiments" "../bin/experiments.exe"
               "--quick --only E6" "abc");
          Alcotest.test_case "json on a full device" `Quick
            test_experiments_write_error;
          Alcotest.test_case "unknown id" `Quick
            (names_flag ~tool:"experiments" "../bin/experiments.exe"
               ~flag:"unknown" "--only E99") ] );
      ( "cli-options",
        [ Alcotest.test_case "each tool's options" `Quick test_cli_options ] );
      ( "cross-jobs",
        [ Alcotest.test_case "ba_run sweep" `Quick
            (same_across_jobs ba_run_exe (fun json ->
                 "-p sub-hm -n 101 --inputs split --reps 8 --metrics-json "
                 ^ json));
          Alcotest.test_case "experiments E1" `Quick
            (same_across_jobs "../bin/experiments.exe" (fun json ->
                 "--quick --only E1 --json " ^ json)) ] );
      ( "series",
        [ Alcotest.test_case "e1 eraser scenario" `Quick
            test_series_matches_metrics_e1;
          Alcotest.test_case "e2 passive scenario" `Quick
            test_series_matches_metrics_e2;
          Alcotest.test_case "json export" `Quick test_series_json;
          Alcotest.test_case "empty export" `Quick test_series_empty_export ] );
      ( "jsonl",
        [ Alcotest.test_case "valid lines" `Quick test_jsonl_sink_valid_lines ] );
      ( "collector",
        [ Alcotest.test_case "memoization" `Quick test_collector_memoized_events ] );
      ( "causal",
        Alcotest.test_case "hand-built taint cone" `Quick
          test_causal_hand_built_taint
        :: Alcotest.test_case "e1 eraser: all decisions tainted" `Quick
             test_causal_e1_eraser_all_decisions_tainted
        :: Alcotest.test_case "e2 passive: zero taint" `Quick
             test_causal_e2_passive_zero_taint
        :: Alcotest.test_case "e8 takeover: all decisions tainted" `Quick
             test_causal_e8_takeover_all_decisions_tainted
        :: Alcotest.test_case "legacy fixture replay" `Quick
             test_causal_legacy_fixture_replay
        :: Alcotest.test_case "recording off is byte-identical" `Quick
             test_causal_off_byte_identity
        :: Alcotest.test_case "ba_run --causal through ba_obs" `Quick
             test_ba_run_causal_through_ba_obs
        :: Alcotest.test_case "rejects ids beyond -n" `Quick
             test_causal_rejects_ids_beyond_n
        :: Alcotest.test_case "rejects a negative send round" `Quick
             test_causal_rejects_negative_round
        :: Alcotest.test_case "rejects a negative halted id" `Quick
             test_causal_rejects_negative_halt
        :: Alcotest.test_case "rejects a negative target" `Quick
             test_causal_rejects_negative_target
        :: Alcotest.test_case "rejects a negative sender" `Quick
             test_causal_rejects_negative_sender
        :: [ Alcotest.test_case "rejects a round past the cap" `Quick
               test_causal_rejects_huge_round ] );
      ( "crypto-gate",
        [ Alcotest.test_case "names only the slow row" `Quick
            test_crypto_gate_names_the_slow_row;
          Alcotest.test_case "malformed baseline" `Quick
            test_crypto_gate_malformed_baselines;
          Alcotest.test_case "unwritable output" `Quick
            test_crypto_gate_unwritable_output;
          Alcotest.test_case "argument count" `Quick
            test_crypto_gate_argument_count;
          Alcotest.test_case "write error" `Quick test_crypto_gate_write_error
        ] );
      ( "examples",
        [ Alcotest.test_case "quickstart" `Quick
            (test_example
               ~expect:"verdict: consistent=true valid=true terminated=true"
               "quickstart");
          Alcotest.test_case "adaptive_attack" `Quick
            (test_example "adaptive_attack");
          Alcotest.test_case "committee_scaling" `Quick
            (test_example "committee_scaling");
          Alcotest.test_case "setup_necessity" `Quick
            (test_example "setup_necessity");
          Alcotest.test_case "assumption_ablation" `Quick
            (test_example "assumption_ablation") ] );
      ( "decoders",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xdec0de |]))
          decoder_tests ) ]
