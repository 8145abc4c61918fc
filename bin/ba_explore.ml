(* Bounded adversary-schedule model checker CLI.

     dune exec bin/ba_explore.exe -- --protocol sub-third \
       -n 3 --budget 2 --lambda 3 --epochs 2 --inputs ones --seed 7

   Runs Bacheck.Explore's exhaustive DFS over the bounded adversary
   decision tree for a schedule that breaks consistency, validity or
   termination; exits 2 when one is found, writing the minimized
   counterexample as a replayable schedule (--schedule-json) and trace
   (--trace-jsonl). *)

open Basim
open Cmdliner
module Registry = Baattacks.Registry

(* The registry entries that have a schedule compiler. *)
let protocols =
  List.filter_map
    (fun (Registry.Entry e as entry) ->
      if Option.is_some e.Registry.search then Some (e.Registry.name, entry)
      else None)
    Registry.entries

type dsts_choice = D_everyone | D_halves

let dsts_choices = [ ("everyone", D_everyone); ("halves", D_halves) ]

type format_choice = F_text | F_json

let formats = [ ("text", F_text); ("json", F_json) ]

let models =
  [ ("static", Corruption.Static);
    ("adaptive", Corruption.Adaptive);
    ("strongly-adaptive", Corruption.Strongly_adaptive) ]

type opts = {
  max_rounds : int;
  max_nodes : int;
  max_actions : int;
  actions_per_round : int;
  dsts : dsts_choice;
  format : format_choice;
  schedule_json : string option;
  trace_jsonl : string option;
  replay : string option;
}

(* Re-run a schedule through the engine with a JSONL tracer, so the
   counterexample's trace can be linted and analyzed on its own. *)
let write_trace (inst : (_, _, _) Bacheck.Explore.instance) sched path =
  let oc = open_out path in
  let emit = Trace.jsonl_tracer (Baobs.Jsonl.to_channel oc) in
  let adversary =
    Schedule.to_adversary ~compiler:inst.Bacheck.Explore.compiler sched
  in
  let (_ : Engine.result) =
    Engine.run ~tracer:emit inst.Bacheck.Explore.protocol ~adversary
      ~n:inst.Bacheck.Explore.n ~budget:inst.Bacheck.Explore.budget
      ~inputs:inst.Bacheck.Explore.inputs
      ~max_rounds:inst.Bacheck.Explore.max_rounds
      ~seed:inst.Bacheck.Explore.exec_seed
  in
  close_out oc

let output_report opts items stats =
  let tool = "ba_explore" in
  match opts.format with
  | F_json ->
      let json =
        match Bacheck.Report.to_json ~tool items with
        | Baobs.Json.Obj fields ->
            Baobs.Json.Obj
              (fields @ [ ("stats", Bacheck.Explore.stats_to_json stats) ])
        | j -> j
      in
      print_endline (Baobs.Json.to_string json)
  | F_text ->
      Printf.printf "explored      : %d\n" stats.Bacheck.Explore.explored;
      Printf.printf "violating     : %d\n" stats.Bacheck.Explore.violating;
      if stats.Bacheck.Explore.node_cap_hit then
        Printf.printf "node cap hit  : yes (raise --max-nodes)\n";
      let (_ : bool) = Bacheck.Report.emit_text ~tool items in
      ()

let run_replay (inst : (_, _, _) Bacheck.Explore.instance) opts path =
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let sched = Schedule.of_json (Baobs.Json.of_string contents) in
  let o = Bacheck.Explore.run_schedule inst sched in
  let violations = Bacheck.Explore.violations_of o in
  let finding =
    { Bacheck.Explore.schedule = sched;
      minimized = sched;
      violations;
      verdict = o.Bacheck.Explore.verdict;
      lint = o.Bacheck.Explore.lint }
  in
  let items =
    if violations = [] then []
    else Bacheck.Explore.to_report_items [ finding ]
  in
  (match opts.trace_jsonl with
  | Some p -> write_trace inst sched p
  | None -> ());
  output_report opts items
    { Bacheck.Explore.explored = 1;
      violating = (if violations = [] then 0 else 1);
      node_cap_hit = false };
  if violations = [] then 0 else 2

let run_search (inst : (_, _, _) Bacheck.Explore.instance) opts =
  match opts.replay with
  | Some path -> run_replay inst opts path
  | None ->
      let space =
        { (Bacheck.Explore.default_space ~max_round:(opts.max_rounds - 1)) with
          Bacheck.Explore.max_actions = opts.max_actions;
          actions_per_round = opts.actions_per_round;
          dsts =
            (match opts.dsts with
            | D_everyone -> [ Schedule.Everyone ]
            | D_halves ->
                [ Schedule.Everyone; Schedule.Lower_half; Schedule.Upper_half ])
        }
      in
      let findings, stats =
        Bacheck.Explore.dfs ~space ~max_nodes:opts.max_nodes inst
      in
      (match (findings, opts.schedule_json) with
      | f :: _, Some path ->
          Baobs.Json.to_file path (Schedule.to_json f.Bacheck.Explore.minimized)
      | _, _ -> ());
      (match (findings, opts.trace_jsonl) with
      | f :: _, Some path -> write_trace inst f.Bacheck.Explore.minimized path
      | _, _ -> ());
      output_report opts (Bacheck.Explore.to_report_items findings) stats;
      if findings = [] then 0 else 2

(* Out-of-range numbers are usage errors, reported before any run like a
   doomed output path; the library's own guards would otherwise surface
   them as uncaught exceptions, or the search would cover nothing and
   report "clean". *)
let argument_error (e : (_, _, _) Registry.t) ~n ~budget ~params ~at_least_one
    =
  let error bad fmt =
    Printf.ksprintf (fun s -> if bad then Some s else None) fmt
  in
  let epochs = params.Bacore.Params.max_epochs in
  List.find_map Fun.id
    ([ error (n < 1) "-n must be at least 1, got %d" n;
       error (budget < 0 || budget > n)
         "--budget must be between 0 and n = %d, got %d" n budget;
       e.check ~n params ]
    @ List.map
        (fun (flag, v) -> error (v < 1) "%s must be at least 1, got %d" flag v)
        at_least_one
    @ [ error
          (epochs > Registry.max_epochs)
          "--epochs must be at most %d, got %d" Registry.max_epochs epochs ])

let main (Registry.Entry e) model n budget lambda epochs inputs seed
    max_rounds max_nodes max_actions actions_per_round dsts format
    schedule_json trace_jsonl replay =
  let path_errors =
    List.filter_map
      (fun (flag, path) ->
        match path with
        | None -> None
        | Some p -> (
            match Baobs.Jsonl.validate_path p with
            | Ok () -> None
            | Error e -> Some (Printf.sprintf "%s: %s" flag e)))
      [ ("--schedule-json", schedule_json);
        ("--trace-jsonl", trace_jsonl) ]
  in
  (* what Params.make builds, once [argument_error] has checked the two
     numbers *)
  let params = { Bacore.Params.lambda; max_epochs = epochs } in
  let errors =
    if path_errors <> [] then path_errors
    else
      Option.to_list
        (argument_error e ~n ~budget ~params
           ~at_least_one:
             [ ("--lambda", lambda);
               ("--epochs", epochs);
               ("--max-rounds", max_rounds);
               ("--max-nodes", max_nodes);
               ("--max-actions", max_actions);
               ("--actions-per-round", actions_per_round) ])
  in
  if errors <> [] then begin
    List.iter (fun error -> prerr_endline ("ba_explore: " ^ error)) errors;
    1
  end
  else begin
    let opts =
      { max_rounds;
        max_nodes;
        max_actions;
        actions_per_round;
        dsts;
        format;
        schedule_json;
        trace_jsonl;
        replay }
    in
    let seed64 = Int64.of_int seed in
    try
      run_search
        { Bacheck.Explore.protocol = e.protocol ~n params;
          (* [protocols] offers only entries with a compiler *)
          compiler = Option.get e.search;
          model;
          n;
          budget;
          inputs = List.assoc inputs Scenario.named ~n seed64;
          max_rounds = Registry.max_rounds params;
          exec_seed = seed64 }
        opts
    with
    | Baobs.Json.Parse_error e ->
        prerr_endline ("ba_explore: bad schedule JSON: " ^ e);
        1
    | Engine.Illegal_action e ->
        prerr_endline ("ba_explore: illegal schedule: " ^ e);
        1
    | Sys_error e ->
        prerr_endline ("ba_explore: " ^ e);
        1
  end

let proto_arg =
  Arg.(
    required
    & opt (some (enum protocols)) None
    & info [ "protocol"; "p" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Protocol to search against: %s."
             (String.concat ", " (List.map fst protocols))))

let model_arg =
  Arg.(
    value
    & opt (enum models) Corruption.Adaptive
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          "Corruption model granted to the searched adversary: static, \
           adaptive, strongly-adaptive.")

let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Number of nodes.")

let budget_arg =
  Arg.(value & opt int 1 & info [ "budget"; "f" ] ~doc:"Corruption budget.")

let lambda_arg =
  Arg.(
    value & opt int 3
    & info [ "lambda"; "committee" ]
        ~doc:
          "Expected committee size λ (sub-third), or the committee size \
           (static-committee).")

let epochs_arg =
  Arg.(value & opt int 2 & info [ "epochs" ] ~doc:"Epoch cap (sub-third).")

let inputs_arg =
  let names = List.map fst Scenario.named in
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) names)) "ones"
    & info [ "inputs" ] ~docv:"KIND"
        ~doc:(Printf.sprintf "Input bits: %s." (String.concat ", " names)))

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ]
        ~doc:"Seed of every leaf execution. Same seed, same findings.")

let max_rounds_arg =
  Arg.(
    value & opt int 2
    & info [ "max-rounds" ] ~docv:"R"
        ~doc:"Schedule actions may occur in rounds 0 .. $(docv)-1.")

let max_nodes_arg =
  Arg.(
    value & opt int 200_000
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:"DFS executes at most $(docv) schedules before giving up.")

let max_actions_arg =
  Arg.(
    value & opt int 4
    & info [ "max-actions" ] ~docv:"N"
        ~doc:"At most $(docv) actions per schedule (setup included).")

let actions_per_round_arg =
  Arg.(
    value & opt int 4
    & info [ "actions-per-round" ] ~docv:"N"
        ~doc:"At most $(docv) actions in any single round.")

let dsts_arg =
  Arg.(
    value
    & opt (enum dsts_choices) D_everyone
    & info [ "dsts" ] ~docv:"KIND"
        ~doc:
          "Injection-target vocabulary: everyone (multicast only) or halves \
           (multicast plus the two network halves — the split-vote idiom).")

let format_arg =
  Arg.(
    value
    & opt (enum formats) F_text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")

let schedule_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "schedule-json" ] ~docv:"FILE"
        ~doc:
          "Write the first finding's minimized schedule to $(docv) as \
           ba-schedule/v1 JSON (replayable with --replay).")

let trace_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"FILE"
        ~doc:
          "Re-run the first finding's minimized schedule and stream its \
           execution trace to $(docv) (one JSON object per event — feed it \
           to ba_obs report).")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Skip searching: load a ba-schedule/v1 JSON from $(docv), run it \
           against the configured instance, and judge it (exit 2 if it \
           violates a property).")

let cmd =
  let doc =
    "Bounded model checking over adversary schedules for the BA simulator"
  in
  Cmd.v
    (Cmd.info "ba_explore" ~doc)
    Term.(
      const main $ proto_arg $ model_arg $ n_arg $ budget_arg $ lambda_arg
      $ epochs_arg $ inputs_arg $ seed_arg $ max_rounds_arg $ max_nodes_arg
      $ max_actions_arg $ actions_per_round_arg $ dsts_arg $ format_arg
      $ schedule_json_arg $ trace_jsonl_arg $ replay_arg)

let () = exit (Cmd.eval' cmd)
