(* Observability toolchain: consume what the instrumented runs emit.

     ba_obs report trace.jsonl              per-round/per-node analytics
     ba_obs causal trace.jsonl              happens-before DAG, cones, taint
     ba_obs compare BENCH_A.json BENCH_B.json   bench-regression gate
     ba_obs mem resource.json               per-round memory-flatness report
     ba_obs mem small.json large.json       growth of words/round in n

   Exit codes: 0 clean; 1 usage, I/O, parse errors, a [mem --check]
   window too short for a verdict, or (compare) a regression past the
   threshold; 2 a failed [report --check],
   [causal --check], or [mem --check] (flatness, or growth in n). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_json path = Baobs.Json.of_string (String.trim (read_file path))

let write_out output text =
  match output with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc

(* Shared error discipline: Sys_error covers unreadable inputs and
   unwritable outputs; Parse_error covers malformed JSON/traces. *)
let guarded f =
  try f () with
  | Sys_error e ->
      prerr_endline ("ba_obs: " ^ e);
      1
  | Baobs.Json.Parse_error e ->
      prerr_endline ("ba_obs: " ^ e);
      1

(* A usage error: one [ba_obs:] line and exit 1, before any input is
   read. *)
let usage_error msg =
  prerr_endline ("ba_obs: " ^ msg);
  1

(* ---------- report ------------------------------------------------------ *)

type format = Text | Json | Csv

let formats = [ ("text", Text); ("json", Json); ("csv", Csv) ]

let run_report file format top chk rounds output =
  guarded (fun () ->
      let report =
        Baobs_report.Report.of_events ?rounds
          (Basim.Trace.of_jsonl_string (read_file file))
      in
      let rendered =
        match format with
        | Text -> Baobs_report.Report.to_text ~k:top report
        | Json ->
            Baobs.Json.to_string (Baobs_report.Report.to_json ~k:top report)
            ^ "\n"
        | Csv -> Baobs_report.Report.to_csv report
      in
      write_out output rendered;
      if not chk then 0
      else
        match Baobs_report.Report.check report with
        | Ok () ->
            prerr_endline "ba_obs: check ok";
            0
        | Error errors ->
            List.iter (fun e -> prerr_endline ("ba_obs: check: " ^ e)) errors;
            2)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE" ~doc:"JSONL trace file (from ba_run --trace-jsonl).")

let format_arg =
  Arg.(
    value
    & opt (enum formats) Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text, json, or csv.")

let top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K" ~doc:"How many top talkers to list.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Verify the report's internal consistency (event JSON \
           round-trip; per-round and per-node tables sum to the totals) \
           and exit 2 on any mismatch.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")

(* "A:B" — an inclusive round window (A = -1 covers setup events). *)
let rounds_conv =
  let parse s =
    match String.index_opt s ':' with
    | None -> Error (`Msg "expected A:B (inclusive round window)")
    | Some i -> (
        let a = String.sub s 0 i
        and b = String.sub s (i + 1) (String.length s - i - 1) in
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some lo, Some hi when lo <= hi -> Ok (lo, hi)
        | Some lo, Some hi ->
            Error
              (`Msg (Printf.sprintf "empty round window %d:%d" lo hi))
        | _ -> Error (`Msg "expected A:B with integer bounds"))
  in
  let print fmt (lo, hi) = Format.fprintf fmt "%d:%d" lo hi in
  Arg.conv (parse, print)

let rounds_arg =
  Arg.(
    value
    & opt (some rounds_conv) None
    & info [ "rounds" ] ~docv:"A:B"
        ~doc:
          "Restrict the report to rounds $(docv) inclusive (applied before \
           the timeline/matrix/histograms; --check sums are recomputed over \
           the window). Round -1 is setup.")

let report_cmd =
  let doc =
    "Analyze a JSONL execution trace: per-round timeline, per-node \
     communication matrix with top-k talkers, message-size percentiles"
  in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const run_report $ file_arg $ format_arg $ top_arg $ check_arg
          $ rounds_arg $ output_arg)

(* ---------- causal ------------------------------------------------------ *)

type causal_format = C_text | C_json | C_csv | C_dot

let causal_formats =
  [ ("text", C_text); ("json", C_json); ("csv", C_csv); ("dot", C_dot) ]

let run_causal file format top n_override chk chrome output =
  guarded (fun () ->
      let causal =
        Baobs_report.Causal.of_events ?n:n_override
          (Basim.Trace.of_jsonl_string (read_file file))
      in
      let rendered =
        match format with
        | C_text -> Baobs_report.Causal.to_text ~top causal
        | C_json ->
            Baobs.Json.to_string (Baobs_report.Causal.to_json causal) ^ "\n"
        | C_csv -> Baobs_report.Causal.to_csv causal
        | C_dot -> Baobs_report.Causal.to_dot causal
      in
      write_out output rendered;
      (match chrome with
      | Some path ->
          write_out (Some path)
            (Baobs.Json.to_string (Baobs_report.Causal.to_chrome causal) ^ "\n")
      | None -> ());
      if not chk then 0
      else
        match Baobs_report.Causal.check causal with
        | Ok () ->
            prerr_endline "ba_obs: causal check ok";
            0
        | Error errors ->
            List.iter
              (fun e -> prerr_endline ("ba_obs: causal check: " ^ e))
              errors;
            2)

let causal_format_arg =
  Arg.(
    value
    & opt (enum causal_formats) C_text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: text, json (ba-causal/v1), csv, or dot.")

let causal_top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K"
        ~doc:
          "How many decisions to list in the text format (highest tainted \
           fraction first).")

let causal_n_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"N"
        ~doc:
          "Node count (default: the smallest count consistent with the \
           trace).")

let causal_check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Self-verify the analysis — per-decision cone/taint/critical-path \
           invariants, and zero taint on a trace without adversary events — \
           and exit 2 on any violation. (A trace with ids off the state \
           grid is rejected on load, exit 1.)")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Also write a Chrome trace_event document with per-message flow \
           arrows to $(docv) (load in ui.perfetto.dev).")

let causal_cmd =
  let doc =
    "Reconstruct the happens-before DAG of a traced execution: per-decision \
     causal cones, critical paths, a per-kind flow matrix, and \
     adversary-influence (taint) attribution"
  in
  Cmd.v
    (Cmd.info "causal" ~doc)
    Term.(const run_causal $ file_arg $ causal_format_arg $ causal_top_arg
          $ causal_n_arg $ causal_check_arg $ chrome_arg $ output_arg)

(* ---------- mem --------------------------------------------------------- *)

let mem_argument_error ~warmup ~cooldown ~tolerance =
  let trim flag = function
    | Some w when w < 0 ->
        Some (Printf.sprintf "%s must be at least 0, got %d" flag w)
    | Some _ | None -> None
  in
  match (trim "--warmup" warmup, trim "--cooldown" cooldown) with
  | Some e, _ | None, Some e -> Some e
  | None, None ->
      if Float.is_finite tolerance && tolerance >= 0.0 then None
      else
        Some
          (Printf.sprintf "--tolerance must be a finite fraction >= 0, got %g"
             tolerance)

let run_flatness file format warmup cooldown tolerance chk output =
  guarded (fun () ->
      let report = Baobs.Resource.report_of_json (read_json file) in
      let flat = Baobs.Resource.flatness ?warmup ?cooldown ~tolerance report in
      let fitted = flat.Baobs.Resource.measured in
      if chk && fitted < Baobs.Resource.min_window then
        usage_error
          (Printf.sprintf
             "mem check: %d rounds fitted (warmup %d, cooldown %d), fewer \
              than the %d a verdict needs"
             fitted flat.Baobs.Resource.warmup flat.Baobs.Resource.cooldown
             Baobs.Resource.min_window)
      else begin
        let rendered =
          match format with
          | Text -> Baobs.Resource.report_to_text report flat ^ "\n"
          | Json ->
              Baobs.Json.to_string (Baobs.Resource.report_to_json report flat)
              ^ "\n"
          | Csv -> Baobs.Resource.report_to_csv report
        in
        write_out output rendered;
        if not chk then 0
        else if flat.Baobs.Resource.flat then begin
          prerr_endline "ba_obs: mem check ok";
          0
        end
        else begin
          Printf.eprintf
            "ba_obs: mem check: allocated words/round drifted %+.4f over the \
             post-warmup window (tolerance %.2f) — per-round memory is not \
             flat\n"
            flat.Baobs.Resource.drift flat.Baobs.Resource.tolerance;
          2
        end
      end)

(* Two documents: does the steady-state mean grow slower than √(n₂/n₁)?
   Documents of different runs are a usage error. The report has no
   table, so there is no CSV form. *)
let run_growth small large ~json warmup cooldown chk output =
  guarded (fun () ->
      let read file = Baobs.Resource.report_of_json (read_json file) in
      match Baobs.Resource.growth ?warmup ?cooldown (read small) (read large) with
      | Error e -> usage_error e
      | Ok g ->
          let rendered =
            if json then
              Baobs.Json.to_string (Baobs.Resource.growth_to_json g) ^ "\n"
            else Baobs.Resource.growth_to_text g ^ "\n"
          in
          write_out output rendered;
          if not chk then 0
          else if g.Baobs.Resource.sublinear then begin
            prerr_endline "ba_obs: mem growth check ok";
            0
          end
          else begin
            Printf.eprintf
              "ba_obs: mem check: steady-state words/round grew %.2fx from n \
               = %d to n = %d, past sqrt(n2/n1) = %.2f — per-round memory \
               grows with n\n"
              g.ratio g.small_n g.large_n g.bound;
            2
          end)

let run_mem file larger format warmup cooldown tolerance chk output =
  match (mem_argument_error ~warmup ~cooldown ~tolerance, larger, format) with
  | Some e, _, _ -> usage_error e
  | None, None, _ ->
      run_flatness file format warmup cooldown tolerance chk output
  | None, Some _, Csv -> usage_error "--format csv needs a single document"
  | None, Some large, (Text | Json) ->
      run_growth file large ~json:(format = Json) warmup cooldown chk output

let mem_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"RESOURCE"
        ~doc:"ba-resource/v1 report (from ba_run --resource-json).")

let mem_larger_arg =
  Arg.(
    value
    & pos 1 (some file) None
    & info [] ~docv:"LARGER"
        ~doc:
          "A second ba-resource/v1 report of the same protocol, seed and \
           budget at a larger n. With it, report how the steady-state mean \
           words/round grows from the first run to this one; $(b,--check) \
           then exits 2 when it grows by more than sqrt(n2/n1).")

let warmup_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "warmup" ] ~docv:"N"
        ~doc:
          "Exclude the first $(docv) executed rounds from the flatness fit \
           (default: a fifth of the rounds, at least 1).")

let cooldown_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cooldown" ] ~docv:"N"
        ~doc:
          "Exclude the last $(docv) executed rounds from the flatness fit — \
           the decide/halt phase is a one-off allocation spike, not a leak \
           (default: a fifth of the rounds, at least 1).")

let tolerance_arg =
  Arg.(
    value & opt float 0.25
    & info [ "tolerance" ] ~docv:"FRAC"
        ~doc:
          "Maximum tolerated relative drift of allocated-words-per-round \
           across the post-warmup window (default 0.25); finite and at \
           least 0.")

let mem_check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Assert the allocated-words-per-round slope is ≈ 0 after warmup \
           and exit 2 on violation; a window of fewer than 3 fitted rounds \
           is no verdict and exits 1. With two reports, assert instead that \
           the steady-state mean grows by at most sqrt(n2/n1).")

let mem_cmd =
  let doc =
    Printf.sprintf
      "Render a per-round memory/GC flatness report from a ba_run \
       --resource-json document, optionally gating on \
       allocated-words-per-round flatness (the fitted window is capped at \
       %d rounds); given two documents at n1 < n2, gate instead on the \
       growth of the steady-state mean with n"
      Baobs.Resource.max_window
  in
  Cmd.v
    (Cmd.info "mem" ~doc)
    Term.(const run_mem $ mem_file_arg $ mem_larger_arg $ format_arg $ warmup_arg
          $ cooldown_arg $ tolerance_arg $ mem_check_arg $ output_arg)

(* ---------- compare ----------------------------------------------------- *)

let run_compare base current threshold only json_out =
  guarded (fun () ->
      if not (Float.is_finite threshold && threshold > 0.0) then
        usage_error
          (Printf.sprintf "--threshold must be a positive finite fraction, got %g"
             threshold)
      else begin
        let cmp =
          Baobs.Bench_compare.diff ~threshold ?only ~base:(read_json base)
            ~current:(read_json current) ()
        in
        print_string (Baobs.Bench_compare.render cmp);
        (match json_out with
        | Some path ->
            write_out (Some path)
              (Baobs.Json.to_string (Baobs.Bench_compare.to_json cmp) ^ "\n")
        | None -> ());
        Baobs.Bench_compare.exit_code cmp
      end)

let base_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BASE" ~doc:"Baseline bench report (BENCH_*.json).")

let current_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"CURRENT" ~doc:"Current bench report to gate.")

let threshold_arg =
  Arg.(
    value & opt float 0.2
    & info [ "threshold" ] ~docv:"FRAC"
        ~doc:
          "Regression threshold as a fraction: a benchmark regresses when \
           current/base exceeds 1 + $(docv) (default 0.2 = 20%); positive \
           and finite.")

let only_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"PREFIX"
        ~doc:
          "Restrict the comparison to benchmarks whose name starts with \
           $(docv) (e.g. ba/crypto/ to gate on the low-noise microbenches \
           only).")

let json_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the machine-readable comparison to $(docv).")

let compare_cmd =
  let doc =
    "Diff two bench reports by ns/run and exit 1 if any benchmark \
     regressed past the threshold"
  in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(const run_compare $ base_arg $ current_arg $ threshold_arg
          $ only_arg $ json_out_arg)

(* ---------- group ------------------------------------------------------- *)

let cmd =
  let doc =
    "Analyze traces, resource records, and bench reports from the BA harness"
  in
  Cmd.group (Cmd.info "ba_obs" ~doc)
    [ report_cmd; causal_cmd; compare_cmd; mem_cmd ]

let () = exit (Cmd.eval' cmd)
