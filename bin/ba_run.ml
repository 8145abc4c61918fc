(* Command-line runner: execute one protocol × adversary × parameter
   configuration and print the outcome, the property verdict, and the
   communication metrics.

     dune exec bin/ba_run.exe -- --protocol sub-hm -n 201 --adversary \
       split-vote --budget 60 --inputs split --seed 7

   Every -p name is an entry of Baattacks.Registry, so this runner holds
   no per-protocol code. An entry with a crowd hook always runs through
   it, which writes the same bytes as the dense step at a fraction of the
   cost; the dense-only baselines run every node's step. *)

open Basim
open Bacore
open Cmdliner
module Registry = Baattacks.Registry

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
   so the printed rates are identical for every BA_JOBS value. *)
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

let print_timings () =
  print_endline "--- timings ---";
  Printf.printf "sha256 kernel: %s\n"
    Bacrypto.Sha256.(kernel_name kernel);
  print_string (Baobs.Probe.report ())

(* Every usage error, decided before the run opens any output: a
   malformed BA_JOBS, numbers out of range (the library's own guards
   would otherwise surface them as uncaught exceptions), the entry's own
   rules, an adversary the entry refuses, single-run observers in a
   sweep, and --causal with no trace to label. The first one in this
   order is reported. *)
let usage_error (e : (_, _, _) Registry.t) ~adv ~n ~budget ~params ~reps
    ~observes ~causal ~traced =
  let error bad fmt =
    Printf.ksprintf (fun s -> if bad then Some s else None) fmt
  in
  let { Params.lambda; max_epochs = epochs } = params in
  List.find_map Fun.id
    [ Bapar.env_error ();
      error (n < 1) "-n must be at least 1, got %d" n;
      e.check ~n params;
      error (budget < 0 || budget > n)
        "--budget must be between 0 and n = %d, got %d" n budget;
      error (lambda < 1) "--lambda must be at least 1, got %d" lambda;
      error (epochs < 1) "--epochs must be at least 1, got %d" epochs;
      error (epochs > Registry.max_epochs) "--epochs must be at most %d, got %d"
        Registry.max_epochs epochs;
      error (reps < 1) "--reps must be at least 1, got %d" reps;
      error (not (List.mem_assoc adv e.adversaries)) "%s" e.refusal;
      error (reps > 1 && observes)
        "--trace/--trace-jsonl/--check-trace/--causal/--resource-json \
         observe a single execution; drop them or use --reps 1";
      error (causal && not traced)
        "--causal labels a written trace; add --trace or --trace-jsonl"
    ]

let main (Registry.Entry e) adv n budget lambda epochs inputs seed reps trace
    trace_jsonl metrics_json resource_json causal timings check_trace =
  (* every run is labeled with its -p name *)
  let label = e.Registry.name in
  (* what Params.make builds, once [usage_error] has checked the two
     numbers; the entry's check reads it first *)
  let params = { Params.lambda; max_epochs = epochs } in
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
        ("--resource-json", resource_json) ]
  in
  let errors =
    if path_errors <> [] then path_errors
    else
      Option.to_list
        (usage_error e ~adv ~n ~budget ~params ~reps
           ~observes:
             (trace || check_trace || causal || trace_jsonl <> None
             || resource_json <> None)
           ~causal ~traced:(trace || trace_jsonl <> None))
  in
  if errors <> [] then begin
    List.iter (fun error -> prerr_endline ("ba_run: " ^ error)) errors;
    1
  end
  else
    try
      if timings then Baobs.Probe.enable ();
      let protocol = e.protocol ~n params in
      let make_adv = List.assoc adv e.adversaries in
      let make_inputs = List.assoc inputs Scenario.named in
      let max_rounds = Registry.max_rounds params in
      let seed64 = Int64.of_int seed in
      (* a fresh hook per run: sweep trials may run on parallel domains *)
      let crowd () = Option.map (fun make -> make ()) e.crowd in
      let header =
        Baobs.Json.
          [ ("protocol", String label);
            ("n", Int n);
            ("budget", Int budget);
            ("seed", Int seed) ]
      in
      if reps > 1 then begin
        let rates =
          Baexperiments.Common.measure ~reps ~seed:seed64 (fun s ->
              let inputs = make_inputs ~n s in
              let result =
                Engine.run ?sparse:(crowd ()) protocol ~adversary:(make_adv ())
                  ~n ~budget ~inputs ~max_rounds ~seed:s
              in
              (result, Properties.agreement ~inputs result))
        in
        print_rates ~label rates;
        if timings then print_timings ();
        Option.iter
          (fun path ->
            Baobs.Json.(
              to_file path
                (Obj
                   (header
                   @ [ ("reps", Int reps);
                       ("rates", Baexperiments.Common.rates_to_json rates) ]))))
          metrics_json;
        if
          rates.Baexperiments.Common.consistency_fail = 0
          && rates.Baexperiments.Common.validity_fail = 0
          && rates.Baexperiments.Common.termination_fail = 0
        then 0
        else 2
      end
      else begin
        let inputs = make_inputs ~n seed64 in
        let collector =
          if trace || check_trace then Some (Trace.collector ()) else None
        in
        let jsonl =
          Option.map
            (fun path ->
              let oc = open_out path in
              (oc, Trace.jsonl_tracer (Baobs.Jsonl.to_channel oc)))
            trace_jsonl
        in
        let tracer ev =
          (match collector with Some c -> Trace.observe c ev | None -> ());
          match jsonl with Some (_, emit) -> emit ev | None -> ()
        in
        (* Sampling reads GC counters only, so recording cannot change the
           execution or its trace (asserted in test/test_obs.ml). *)
        let resource =
          Option.map
            (fun path -> (path, Baobs.Resource.create ()))
            resource_json
        in
        let adversary = make_adv () in
        let result =
          Engine.run ~tracer
            ?resource:(Option.map snd resource)
            ?labeler:(if causal then Some e.labeler else None)
            ?sparse:(crowd ()) protocol ~adversary ~n ~budget ~inputs
            ~max_rounds ~seed:seed64
        in
        (match collector with
        | Some c when trace ->
            print_endline "--- trace ---";
            print_string (Trace.render c)
        | Some _ | None -> ());
        Option.iter (fun (oc, _) -> close_out oc) jsonl;
        let rounds_used =
          ("rounds_used", Baobs.Json.Int result.Engine.rounds_used)
        in
        Option.iter
          (fun (path, r) ->
            Baobs.Json.to_file path
              (Baobs.Resource.to_json ~meta:(header @ [ rounds_used ]) r))
          resource;
        let metrics = result.Engine.metrics in
        Option.iter
          (fun path ->
            Baobs.Json.to_file path
              (Baobs.Json.Obj
                 (header
                 @ [ rounds_used;
                     ("metrics", Metrics.to_json metrics);
                     ("series", Metrics.series_to_json metrics) ])))
          metrics_json;
        if timings then print_timings ();
        (* Pipe the collected trace through the invariant verifier; a
           finding means the run violated the declared adversary model.
           Exit 3 keeps trace violations distinct from property-verdict
           failures (2). *)
        let check_code =
          match collector with
          | Some c when check_trace ->
              let findings =
                Bacheck.Trace_lint.verify ~metrics
                  ~model:adversary.Engine.model ~budget (Trace.events c)
              in
              let items = Bacheck.Report.of_trace_findings findings in
              if Bacheck.Report.emit_text ~tool:"check-trace" items then 3
              else 0
          | Some _ | None -> 0
        in
        let verdict_code = print_result ~label ~inputs result in
        if check_code <> 0 then check_code else verdict_code
      end
    with Sys_error error ->
      (* e.g. a destination that became unwritable mid-run *)
      prerr_endline ("ba_run: " ^ error);
      1

let proto_arg =
  let protocols =
    List.map
      (fun (Registry.Entry e as entry) -> (e.Registry.name, entry))
      Registry.entries
  in
  Arg.(
    required
    & opt (some (enum protocols)) None
    & info [ "protocol"; "p" ] ~docv:"NAME"
        ~doc:(Printf.sprintf "Protocol: %s." (String.concat ", " (List.map fst protocols))))

let adv_arg =
  Arg.(
    value
    & opt (enum (List.map (fun a -> (a, a)) Registry.adversary_names)) "none"
    & info [ "adversary"; "a" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Adversary: %s."
             (String.concat ", " Registry.adversary_names)))

let n_arg = Arg.(value & opt int 201 & info [ "n" ] ~doc:"Number of nodes.")

let budget_arg =
  Arg.(value & opt int 0 & info [ "budget"; "f" ] ~doc:"Corruption budget.")

let lambda_arg =
  Arg.(value & opt int 40 & info [ "lambda" ] ~doc:"Expected committee size λ.")

let epochs_arg =
  Arg.(value & opt int 40 & info [ "epochs" ] ~doc:"Epoch/iteration cap.")

let inputs_arg =
  let names = List.map fst Scenario.named in
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) names)) "random"
    & info [ "inputs" ] ~docv:"KIND"
        ~doc:(Printf.sprintf "Input bits: %s." (String.concat ", " names)))

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.")

let reps_arg =
  Arg.(
    value & opt int 1
    & info [ "reps" ] ~docv:"N"
        ~doc:
          "Repeat the configuration over $(docv) derived seeds and print \
           aggregate rates instead of one run's verdict (exit 2 if any \
           trial failed a property).")

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
           sends. Needs --trace or --trace-jsonl. Analyze the resulting \
           --trace-jsonl file with ba_obs causal (its --format json writes \
           the ba-causal/v1 document). Without this flag the trace is \
           byte-identical to the legacy format.")

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

let cmd =
  let doc = "Run one Byzantine Agreement protocol execution on the simulator" in
  Cmd.v
    (Cmd.info "ba_run" ~doc)
    Term.(
      const main $ proto_arg $ adv_arg $ n_arg $ budget_arg $ lambda_arg
      $ epochs_arg $ inputs_arg $ seed_arg $ reps_arg $ trace_arg
      $ trace_jsonl_arg $ metrics_json_arg
      $ resource_json_arg $ causal_arg $ timings_arg
      $ check_trace_arg)

let () = exit (Cmd.eval' cmd)
