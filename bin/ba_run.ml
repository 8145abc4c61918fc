(* Command-line runner: execute one protocol × adversary × parameter
   configuration and print the outcome, the property verdict, and the
   communication metrics.

     dune exec bin/ba_run.exe -- --protocol sub-hm --n 201 --adversary \
       split-vote --budget 60 --inputs split --seed 7
*)

open Basim
open Bacore
open Cmdliner

type proto_choice =
  | P_warmup
  | P_sub_third
  | P_sub_third_agnostic
  | P_quadratic
  | P_sub_hm
  | P_sub_hm_real
  | P_dolev_strong
  | P_static_committee
  | P_nakamoto
  | P_sparse_relay
  | P_chen_micali
  | P_chen_micali_no_erasure

let protocols =
  [ ("warmup-third", P_warmup);
    ("sub-third", P_sub_third);
    ("sub-third-agnostic", P_sub_third_agnostic);
    ("quadratic-hm", P_quadratic);
    ("sub-hm", P_sub_hm);
    ("sub-hm-real", P_sub_hm_real);
    ("dolev-strong", P_dolev_strong);
    ("static-committee", P_static_committee);
    ("nakamoto", P_nakamoto);
    ("sparse-relay", P_sparse_relay);
    ("chen-micali", P_chen_micali);
    ("chen-micali-no-erasure", P_chen_micali_no_erasure) ]

type adv_choice =
  | A_none
  | A_eraser
  | A_silencer
  | A_split
  | A_equivocator
  | A_cm_equivocator
  | A_takeover

let adversaries =
  [ ("none", A_none);
    ("eraser", A_eraser);
    ("silencer", A_silencer);
    ("split-vote", A_split);
    ("equivocator", A_equivocator);
    ("cm-equivocator", A_cm_equivocator);
    ("takeover", A_takeover) ]

type inputs_choice = I_zero | I_one | I_split | I_random

let inputs_choices =
  [ ("zeros", I_zero); ("ones", I_one); ("split", I_split); ("random", I_random) ]

let make_inputs choice ~n ~seed =
  match choice with
  | I_zero -> Scenario.unanimous_inputs ~n false
  | I_one -> Scenario.unanimous_inputs ~n true
  | I_split -> Scenario.split_inputs ~n
  | I_random -> Scenario.random_inputs ~n seed

let print_result ~label ~inputs result =
  let verdict = Properties.agreement ~inputs result in
  Printf.printf "protocol      : %s\n" label;
  Printf.printf "rounds        : %d\n" result.Engine.rounds_used;
  Printf.printf "corruptions   : %d\n" result.Engine.corruptions;
  Printf.printf "verdict       : %s\n"
    (Format.asprintf "%a" Properties.pp verdict);
  Printf.printf "communication : %s\n"
    (Format.asprintf "%a" Metrics.pp result.Engine.metrics);
  let decided =
    Array.to_list result.Engine.outputs |> List.filter_map (fun o -> o)
  in
  let ones = List.length (List.filter (fun b -> b) decided) in
  Printf.printf "outputs       : %d decided (%d ones, %d zeros)\n"
    (List.length decided) ones
    (List.length decided - ones);
  if Properties.ok verdict then 0 else 2

(* Monte-Carlo sweep (--reps > 1): the single configuration repeated
   over derived seeds — fresh inputs, adversary and protocol state per
   trial — aggregated through the deterministic parallel trial runner,
   so the printed rates are identical for every --jobs value. *)
let print_rates ~label (rates : Baexperiments.Common.rates) =
  let open Baexperiments.Common in
  Printf.printf "protocol      : %s\n" label;
  Printf.printf "trials        : %d\n" rates.trials;
  Printf.printf "non-term      : %s\n" (rate rates.termination_fail rates.trials);
  Printf.printf "inconsistent  : %s\n" (rate rates.consistency_fail rates.trials);
  Printf.printf "invalid       : %s\n" (rate rates.validity_fail rates.trials);
  Printf.printf "mean rounds   : %.2f\n" (mean_rounds rates);
  Printf.printf "mean multicast: %.2f\n" (mean_multicasts rates);
  Printf.printf "mean unicasts : %.2f\n" (mean_unicasts rates);
  Printf.printf "mean removals : %.2f\n" (mean_removals rates);
  Printf.printf "mean corrupt  : %.2f\n" (mean_corruptions rates)

(* Each protocol has its own message type, so the dispatch instantiates
   engine, adversary, and printer together. *)
let dispatch proto adv ~n ~budget ~lambda ~epochs ~inputs_choice ~seed ~reps
    ~jobs ~sparse ~trace ~trace_jsonl ~metrics_json ~resource_json ~causal
    ~causal_json ~timings ~check_trace =
  (* every run is labeled with its -p name *)
  let label = fst (List.find (fun (_, p) -> p = proto) protocols) in
  (* --causal-json implies causal recording (message ids, kind labels,
     explicit recipient lists in the trace). *)
  let causal = causal || causal_json <> None in
  let collector =
    if trace || check_trace || causal_json <> None then
      Some (Trace.collector ())
    else None
  in
  let jsonl =
    Option.map
      (fun path ->
        let oc = open_out path in
        (oc, Trace.jsonl_tracer (Baobs.Jsonl.to_channel oc)))
      trace_jsonl
  in
  let tracer e =
    (match collector with Some c -> Trace.observe c e | None -> ());
    match jsonl with Some (_, emit) -> emit e | None -> ()
  in
  (* Sampling reads GC counters only, so recording cannot change the
     execution or its trace (asserted in CI). *)
  let resource = Option.map (fun _ -> Baobs.Resource.create ()) resource_json in
  if timings then Baobs.Probe.enable ();
  let print_trace () =
    match collector with
    | Some c when trace ->
        print_endline "--- trace ---";
        print_string (Trace.render c)
    | Some _ | None -> ()
  in
  (* Post-run bookkeeping shared by every protocol branch: close the
     JSONL sink, export metrics + series, print timings. *)
  let finish (result : Engine.result) =
    (match jsonl with Some (oc, _) -> close_out oc | None -> ());
    (match (resource_json, resource) with
    | Some path, Some r ->
        let meta =
          [ ("protocol", Baobs.Json.String label);
            ("n", Baobs.Json.Int n);
            ("budget", Baobs.Json.Int budget);
            ("seed", Baobs.Json.Int seed);
            ("rounds_used", Baobs.Json.Int result.Engine.rounds_used) ]
        in
        let oc = open_out path in
        output_string oc (Baobs.Json.to_string (Baobs.Resource.to_json ~meta r));
        output_char oc '\n';
        close_out oc
    | _ -> ());
    (match metrics_json with
    | Some path ->
        let json =
          Baobs.Json.Obj
            [ ("protocol", Baobs.Json.String label);
              ("n", Baobs.Json.Int n);
              ("budget", Baobs.Json.Int budget);
              ("seed", Baobs.Json.Int seed);
              ("rounds_used", Baobs.Json.Int result.Engine.rounds_used);
              ("metrics", Metrics.to_json result.Engine.metrics);
              ("series", Metrics.series_to_json result.Engine.metrics) ]
        in
        let oc = open_out path in
        output_string oc (Baobs.Json.to_string json);
        output_char oc '\n';
        close_out oc
    | None -> ());
    if timings then begin
      print_endline "--- timings ---";
      print_string (Baobs.Probe.report ())
    end
  in
  let params = Params.make ~lambda ~max_epochs:epochs () in
  let seed64 = Int64.of_int seed in
  let inputs = make_inputs inputs_choice ~n ~seed:seed64 in
  let max_rounds = (4 * epochs) + 12 in
  let generic_adv () =
    match adv with
    | A_none ->
        Ok (fun () -> Engine.passive ~name:"none" ~model:Corruption.Adaptive)
    | A_eraser -> Ok (fun () -> Baattacks.Eraser.make ())
    | A_silencer -> Ok (fun () -> Baattacks.Eraser.silencer ())
    | A_split | A_equivocator | A_cm_equivocator | A_takeover ->
        Error "this adversary only targets specific protocols"
  in
  (* Pipe the collected trace through the invariant verifier; a finding
     means the run violated the declared adversary model. Exit 3 keeps
     trace violations distinct from property-verdict failures (2). *)
  let run_check_trace adversary (result : Engine.result) =
    if not check_trace then 0
    else
      match collector with
      | None -> 0
      | Some c ->
          let findings =
            Bacheck.Trace_lint.verify ~metrics:result.Engine.metrics
              ~model:adversary.Engine.model ~budget (Trace.events c)
          in
          let items = Bacheck.Report.of_trace_findings findings in
          if Bacheck.Report.emit_text ~tool:"check-trace" items then 3 else 0
  in
  let run_sweep ?sparse_make proto_rec make_adv =
    if
      trace || check_trace || causal || trace_jsonl <> None
      || resource_json <> None
    then begin
      prerr_endline
        "ba_run: --trace/--trace-jsonl/--check-trace/--causal/--causal-json/\
         --resource-json observe a single execution; drop them or use --reps 1";
      1
    end
    else begin
      let rates =
        Baexperiments.Common.measure ?jobs ~reps ~seed:seed64 (fun s ->
            let inputs = make_inputs inputs_choice ~n ~seed:s in
            (* fresh hook per trial: trials may run on parallel domains *)
            let sparse = Option.map (fun make -> make ()) sparse_make in
            let result =
              Engine.run ?sparse proto_rec ~adversary:(make_adv ()) ~n ~budget
                ~inputs ~max_rounds ~seed:s
            in
            (result, Properties.agreement ~inputs result))
      in
      print_rates ~label rates;
      if timings then begin
        print_endline "--- timings ---";
        print_string (Baobs.Probe.report ())
      end;
      (match metrics_json with
      | Some path ->
          let json =
            Baobs.Json.Obj
              [ ("protocol", Baobs.Json.String label);
                ("n", Baobs.Json.Int n);
                ("budget", Baobs.Json.Int budget);
                ("seed", Baobs.Json.Int seed);
                ("reps", Baobs.Json.Int reps);
                ("rates", Baexperiments.Common.rates_to_json rates) ]
          in
          let oc = open_out path in
          output_string oc (Baobs.Json.to_string json);
          output_char oc '\n';
          close_out oc
      | None -> ());
      if
        rates.Baexperiments.Common.consistency_fail = 0
        && rates.Baexperiments.Common.validity_fail = 0
        && rates.Baexperiments.Common.termination_fail = 0
      then 0
      else 2
    end
  in
  let run_proto ?sparse_make ~labeler proto_rec make_adv =
    if reps > 1 then run_sweep ?sparse_make proto_rec make_adv
    else begin
      let adversary = make_adv () in
      let labeler = if causal then Some labeler else None in
      let sparse = Option.map (fun make -> make ()) sparse_make in
      let result =
        Engine.run ~tracer ?resource ?labeler ?sparse proto_rec ~adversary ~n
          ~budget ~inputs ~max_rounds ~seed:seed64
      in
      print_trace ();
      finish result;
      (match (causal_json, collector) with
      | Some path, Some c ->
          let analysis = Baobs_report.Causal.of_events ~n (Trace.events c) in
          let oc = open_out path in
          output_string oc
            (Baobs.Json.to_string (Baobs_report.Causal.to_json analysis));
          output_char oc '\n';
          close_out oc
      | (Some _ | None), (Some _ | None) -> ());
      let check_code = run_check_trace adversary result in
      let verdict_code = print_result ~label ~inputs result in
      if check_code <> 0 then check_code else verdict_code
    end
  in
  let run_generic ?sparse_make ~labeler proto_rec =
    match generic_adv () with
    | Error e ->
        prerr_endline e;
        1
    | Ok adversary -> run_proto ?sparse_make ~labeler proto_rec adversary
  in
  let crowd make = if sparse then Some make else None in
  match proto with
  | P_warmup ->
      run_generic
        ?sparse_make:(crowd Warmup_third.sparse_step)
        ~labeler:Warmup_third.msg_kind
        (Warmup_third.protocol ~params)
  | P_quadratic ->
      run_generic
        ?sparse_make:(crowd Quadratic_hm.sparse_step)
        ~labeler:Quadratic_hm.msg_kind
        (Quadratic_hm.protocol ~max_iters:epochs ())
  | P_dolev_strong ->
      run_generic ~labeler:Babaselines.Dolev_strong.msg_kind
        (Babaselines.Dolev_strong.protocol ~sender:0 ~f:((n - 1) / 3))
  | P_static_committee ->
      let proto_rec =
        Babaselines.Static_committee.protocol ~committee_size:lambda
      in
      let adversary =
        match adv with
        | A_none ->
            Ok (fun () -> Engine.passive ~name:"none" ~model:Corruption.Adaptive)
        | A_eraser -> Ok (fun () -> Baattacks.Eraser.make ())
        | A_silencer -> Ok (fun () -> Baattacks.Eraser.silencer ())
        | A_takeover -> Ok (fun () -> Baattacks.Takeover.make ~force:true ())
        | A_split | A_equivocator | A_cm_equivocator ->
            Error "use takeover against static-committee"
      in
      (match adversary with
      | Error e ->
          prerr_endline e;
          1
      | Ok adversary ->
          run_proto ~labeler:Babaselines.Static_committee.msg_kind proto_rec
            adversary)
  | P_nakamoto ->
      run_generic ~labeler:Babaselines.Nakamoto.msg_kind
        (Babaselines.Nakamoto.protocol ~p:0.01 ~confirmations:6)
  | P_sparse_relay ->
      run_generic ~labeler:Babaselines.Sparse_relay.msg_kind
        (Babaselines.Sparse_relay.protocol ~d:3)
  | P_chen_micali | P_chen_micali_no_erasure ->
      let erasure = proto = P_chen_micali in
      let proto_rec = Babaselines.Chen_micali.protocol ~params ~erasure in
      let adversary =
        match adv with
        | A_none ->
            Ok (fun () -> Engine.passive ~name:"none" ~model:Corruption.Adaptive)
        | A_eraser -> Ok (fun () -> Baattacks.Eraser.make ())
        | A_silencer -> Ok (fun () -> Baattacks.Eraser.silencer ())
        | A_cm_equivocator -> Ok (fun () -> Baattacks.Cm_equivocator.make ())
        | A_split | A_equivocator | A_takeover ->
            Error "use cm-equivocator against chen-micali"
      in
      (match adversary with
      | Error e ->
          prerr_endline e;
          1
      | Ok adversary ->
          run_proto
            ?sparse_make:(crowd Babaselines.Chen_micali.sparse_step)
            ~labeler:Babaselines.Chen_micali.msg_kind proto_rec adversary)
  | P_sub_third | P_sub_third_agnostic ->
      let mode =
        match proto with
        | P_sub_third -> Sub_third.Bit_specific
        | _ -> Sub_third.Bit_agnostic
      in
      let proto_rec = Sub_third.protocol ~params ~world:`Hybrid ~mode in
      let adversary =
        match adv with
        | A_none ->
            Ok (fun () -> Engine.passive ~name:"none" ~model:Corruption.Adaptive)
        | A_eraser -> Ok (fun () -> Baattacks.Eraser.make ())
        | A_silencer -> Ok (fun () -> Baattacks.Eraser.silencer ())
        | A_split -> Ok (fun () -> Baattacks.Split_vote.sub_third ())
        | A_equivocator -> Ok (fun () -> Baattacks.Equivocator.make ())
        | A_cm_equivocator | A_takeover ->
            Error "cm-equivocator/takeover target other protocols"
      in
      (match adversary with
      | Error e ->
          prerr_endline e;
          1
      | Ok adversary ->
          run_proto
            ?sparse_make:(crowd Sub_third.sparse_step)
            ~labeler:Sub_third.msg_kind proto_rec adversary)
  | P_sub_hm | P_sub_hm_real ->
      let world = match proto with P_sub_hm -> `Hybrid | _ -> `Real in
      let proto_rec = Sub_hm.protocol ~params ~world in
      let adversary =
        match adv with
        | A_none ->
            Ok (fun () -> Engine.passive ~name:"none" ~model:Corruption.Adaptive)
        | A_eraser -> Ok (fun () -> Baattacks.Eraser.make ())
        | A_silencer -> Ok (fun () -> Baattacks.Eraser.silencer ())
        | A_split -> Ok (fun () -> Baattacks.Split_vote.sub_hm ())
        | A_equivocator | A_cm_equivocator | A_takeover ->
            Error "the equivocators/takeover target other protocols"
      in
      (match adversary with
      | Error e ->
          prerr_endline e;
          1
      | Ok adversary ->
          run_proto
            ?sparse_make:(crowd Sub_hm.sparse_step)
            ~labeler:Sub_hm.msg_kind proto_rec adversary)

let proto_arg =
  Arg.(
    required
    & opt (some (enum protocols)) None
    & info [ "protocol"; "p" ] ~docv:"NAME"
        ~doc:(Printf.sprintf "Protocol: %s." (String.concat ", " (List.map fst protocols))))

let adv_arg =
  Arg.(
    value
    & opt (enum adversaries) A_none
    & info [ "adversary"; "a" ] ~docv:"NAME"
        ~doc:(Printf.sprintf "Adversary: %s." (String.concat ", " (List.map fst adversaries))))

let n_arg = Arg.(value & opt int 201 & info [ "n" ] ~doc:"Number of nodes.")

let budget_arg =
  Arg.(value & opt int 0 & info [ "budget"; "f" ] ~doc:"Corruption budget.")

let lambda_arg =
  Arg.(value & opt int 40 & info [ "lambda" ] ~doc:"Expected committee size λ.")

let epochs_arg =
  Arg.(value & opt int 40 & info [ "epochs" ] ~doc:"Epoch/iteration cap.")

let inputs_arg =
  Arg.(
    value
    & opt (enum inputs_choices) I_random
    & info [ "inputs" ] ~docv:"KIND" ~doc:"Input bits: zeros, ones, split, random.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.")

let reps_arg =
  Arg.(
    value & opt int 1
    & info [ "reps" ] ~docv:"N"
        ~doc:
          "Repeat the configuration over $(docv) derived seeds and print \
           aggregate rates instead of one run's verdict (exit 2 if any \
           trial failed a property).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "With --reps, run trials on $(docv) domains (default: BA_JOBS or \
           the machine's recommended domain count). Aggregates are \
           byte-identical for every $(docv).")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print a per-round event trace.")

let trace_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"FILE"
        ~doc:
          "Stream the execution trace to $(docv), one JSON object per event \
           per line.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write run metrics and the per-round × per-node metric series to \
           $(docv) as JSON.")

let resource_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resource-json" ] ~docv:"FILE"
        ~doc:
          "Record a per-round GC/memory series (allocated words, promoted \
           words, collections, heap size) and write the ba-resource/v1 \
           report to $(docv) after the run; analyze it with ba_obs mem.")

let causal_arg =
  Arg.(
    value & flag
    & info [ "causal" ]
        ~doc:
          "Record causal fields in the trace: stable per-run message ids, \
           protocol kind labels, and explicit recipient lists for targeted \
           sends. Analyze the resulting --trace-jsonl file with ba_obs \
           causal. Without this flag the trace is byte-identical to the \
           legacy format.")

let causal_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "causal-json" ] ~docv:"FILE"
        ~doc:
          "Run the causal analysis (happens-before cones, critical paths, \
           flow matrix, taint attribution) after the run and write the \
           ba-causal/v1 document to $(docv). Implies --causal.")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:
          "Enable phase/crypto timers and print a per-probe summary after the \
           run.")

let check_trace_arg =
  Arg.(
    value & flag
    & info [ "check-trace" ]
        ~doc:
          "Collect the execution trace and verify it against the adversary \
           model's invariants (round monotonicity, removal discipline, \
           budget, Definition-7 accounting). Exits 3 on any finding.")

let sparse_arg =
  Arg.(
    value & flag
    & info [ "sparse" ]
        ~doc:
          "Execute rounds through the engine's sparse path with the \
           protocol's crowd hook (every protocol but dolev-strong, \
           static-committee, nakamoto and sparse-relay). Traces, \
           metrics, series and verdicts are byte-identical to the dense \
           path; a round costs O(active nodes) instead of O(n × inbox), \
           which is what makes n = 100000 runs practical.")

(* Out-of-range numbers are usage errors, reported before the run like a
   doomed output path; the library's own guards would otherwise surface
   them as uncaught exceptions. *)
let argument_error proto ~n ~budget ~lambda ~epochs ~reps ~jobs =
  if n < 1 then Some (Printf.sprintf "-n must be at least 1, got %d" n)
  else if proto = P_quadratic && (n < 3 || n mod 2 = 0) then
    Some
      (Printf.sprintf
         "quadratic-hm needs an odd -n of at least 3 (n = 2f+1), got %d" n)
  else if budget < 0 || budget > n then
    Some
      (Printf.sprintf "--budget must be between 0 and n = %d, got %d" n budget)
  else if lambda < 1 then
    Some (Printf.sprintf "--lambda must be at least 1, got %d" lambda)
  else if epochs < 1 then
    Some (Printf.sprintf "--epochs must be at least 1, got %d" epochs)
  else if reps < 1 then
    Some (Printf.sprintf "--reps must be at least 1, got %d" reps)
  else
    match jobs with
    | Some j when j < 1 ->
        Some (Printf.sprintf "--jobs must be at least 1, got %d" j)
    | Some _ | None -> None

let main proto adv n budget lambda epochs inputs_choice seed reps jobs sparse
    trace trace_jsonl metrics_json resource_json causal causal_json timings
    check_trace =
  (* Reject doomed output destinations before the run, not after it:
     --metrics-json and --resource-json only open their file once the
     (possibly long) execution has completed. *)
  let path_errors =
    List.filter_map
      (fun (flag, path) ->
        match path with
        | None -> None
        | Some p -> (
            match Baobs.Jsonl.validate_path p with
            | Ok () -> None
            | Error e -> Some (Printf.sprintf "%s: %s" flag e)))
      [ ("--trace-jsonl", trace_jsonl);
        ("--metrics-json", metrics_json);
        ("--resource-json", resource_json);
        ("--causal-json", causal_json) ]
  in
  let argument_error =
    argument_error proto ~n ~budget ~lambda ~epochs ~reps ~jobs
  in
  if path_errors <> [] then begin
    List.iter (fun e -> prerr_endline ("ba_run: " ^ e)) path_errors;
    1
  end
  else if argument_error <> None then begin
    Option.iter (fun e -> prerr_endline ("ba_run: " ^ e)) argument_error;
    1
  end
  else if
    sparse
    && (match proto with
       | P_dolev_strong | P_static_committee | P_nakamoto | P_sparse_relay ->
           true
       | _ -> false)
  then begin
    prerr_endline
      "ba_run: --sparse has no crowd hook for dolev-strong, \
       static-committee, nakamoto or sparse-relay";
    1
  end
  else
    try
      dispatch proto adv ~n ~budget ~lambda ~epochs ~inputs_choice ~seed ~reps
        ~jobs ~sparse ~trace ~trace_jsonl ~metrics_json ~resource_json ~causal
        ~causal_json ~timings ~check_trace
    with Sys_error e ->
      (* e.g. a destination that became unwritable mid-run *)
      prerr_endline ("ba_run: " ^ e);
      1

let cmd =
  let doc = "Run one Byzantine Agreement protocol execution on the simulator" in
  Cmd.v
    (Cmd.info "ba_run" ~doc)
    Term.(
      const main $ proto_arg $ adv_arg $ n_arg $ budget_arg $ lambda_arg
      $ epochs_arg $ inputs_arg $ seed_arg $ reps_arg $ jobs_arg
      $ sparse_arg $ trace_arg $ trace_jsonl_arg $ metrics_json_arg
      $ resource_json_arg $ causal_arg $ causal_json_arg $ timings_arg
      $ check_trace_arg)

let () = exit (Cmd.eval' cmd)
