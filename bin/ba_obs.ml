(* Observability toolchain: consume what the instrumented runs emit.

     ba_obs report trace.jsonl              per-round/per-node analytics
     ba_obs causal trace.jsonl              happens-before DAG, cones, taint
     ba_obs mem resource.json               per-round memory-flatness report
     ba_obs mem small.json large.json       growth of words/round in n

   [report], [causal] and [mem] each render as text for people (the
   default) or, with [--format json], as the one JSON document programs
   read: ba-report/v1, ba-causal/v1, ba-mem-report/v1 or
   ba-mem-growth/v1.

   Each writes to stdout; redirect it to keep a file.

   Exit codes: 0 clean; 1 usage, I/O, parse errors, or a [mem --check]
   window too short for a verdict or with a steady mean of at most 0
   words/round; 2 a failed [mem --check] (flatness, or growth in n). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_json path = Baobs.Json.of_string (String.trim (read_file path))

(* Shared error discipline: Sys_error covers unreadable inputs;
   Parse_error covers malformed JSON/traces. *)
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

(* [f] under {!guarded}, unless one of [errors] is a usage error. *)
let checked errors f =
  match List.find_map Fun.id errors with
  | Some e -> usage_error e
  | None -> guarded f

let top_error top =
  if top < 0 then Some (Printf.sprintf "--top must be at least 0, got %d" top)
  else None

let json_line json = Baobs.Json.to_string json ^ "\n"

type format = Text | Json

(* [schema] names the document [--format json] writes. *)
let format_arg schema =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json) ]) Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:(Printf.sprintf "Output format: text, or json (%s)." schema))

(* ---------- report ------------------------------------------------------ *)

let run_report file format top rounds =
  checked [ top_error top ] (fun () ->
      let report =
        Baobs_report.Report.of_events ?rounds
          (Basim.Trace.of_jsonl_string (read_file file))
      in
      print_string
        (match format with
        | Text -> Baobs_report.Report.to_text ~k:top report
        | Json -> json_line (Baobs_report.Report.to_json ~k:top report));
      0)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE" ~doc:"JSONL trace file (from ba_run --trace-jsonl).")

let top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K"
        ~doc:"How many top talkers to list (at least 0).")

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
           the timeline/matrix/histograms). Round -1 is setup.")

let report_cmd =
  let doc =
    "Analyze a JSONL execution trace: per-round timeline, per-node \
     communication matrix with top-k talkers, message-size percentiles"
  in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const run_report $ file_arg $ format_arg "ba-report/v1" $ top_arg
          $ rounds_arg)

(* ---------- causal ------------------------------------------------------ *)

let run_causal file format top n_override =
  let n_error =
    match n_override with
    | Some n when n < 1 ->
        Some (Printf.sprintf "-n must be at least 1, got %d" n)
    | Some _ | None -> None
  in
  checked [ top_error top; n_error ] (fun () ->
      let causal =
        Baobs_report.Causal.of_events ?n:n_override
          (Basim.Trace.of_jsonl_string (read_file file))
      in
      print_string
        (match format with
        | Text -> Baobs_report.Causal.to_text ~top causal
        | Json -> json_line (Baobs_report.Causal.to_json causal));
      0)

let causal_top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K"
        ~doc:
          "How many decisions to list in the text format (highest tainted \
           fraction first; at least 0).")

let causal_n_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"N"
        ~doc:
          "Node count, at least 1 (default: the smallest count consistent \
           with the trace).")

let causal_cmd =
  let doc =
    "Reconstruct the happens-before DAG of a traced execution: per-decision \
     causal cones, critical paths, a per-kind flow matrix, and \
     adversary-influence (taint) attribution"
  in
  Cmd.v
    (Cmd.info "causal" ~doc)
    Term.(const run_causal $ file_arg $ format_arg "ba-causal/v1"
          $ causal_top_arg $ causal_n_arg)

(* ---------- mem --------------------------------------------------------- *)

let run_flatness file format chk =
  guarded (fun () ->
      let report = Baobs.Resource.report_of_json (read_json file) in
      let flat = Baobs.Resource.flatness report in
      let fitted = flat.Baobs.Resource.measured in
      if chk && fitted < Baobs.Resource.min_window then
        usage_error
          (Printf.sprintf
             "mem check: %d rounds fitted (warmup %d, cooldown %d), fewer \
              than the %d a verdict needs"
             fitted flat.Baobs.Resource.warmup flat.Baobs.Resource.cooldown
             Baobs.Resource.min_window)
      else if chk && flat.Baobs.Resource.mean_words <= 0.0 then
        (* drift is relative to the mean, so a mean <= 0 reads drift 0 *)
        usage_error
          (Printf.sprintf
             "mem check: the steady mean is %g words/round over %d rounds \
              (warmup %d, cooldown %d); a verdict needs a positive mean"
             flat.Baobs.Resource.mean_words fitted flat.Baobs.Resource.warmup
             flat.Baobs.Resource.cooldown)
      else begin
        print_string
          (match format with
          | Text -> Baobs.Resource.report_to_text report flat ^ "\n"
          | Json -> json_line (Baobs.Resource.report_to_json report flat));
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
            flat.Baobs.Resource.drift Baobs.Resource.tolerance;
          2
        end
      end)

(* Two documents: does the steady-state mean grow slower than √(n₂/n₁)?
   Documents of different runs are a usage error. *)
let run_growth small large format chk =
  guarded (fun () ->
      let read file = Baobs.Resource.report_of_json (read_json file) in
      match Baobs.Resource.growth (read small) (read large) with
      | Error e -> usage_error e
      | Ok g ->
          print_string
            (match format with
            | Text -> Baobs.Resource.growth_to_text g ^ "\n"
            | Json -> json_line (Baobs.Resource.growth_to_json g));
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

let run_mem file larger format chk =
  match larger with
  | None -> run_flatness file format chk
  | Some large -> run_growth file large format chk

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

let mem_check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          (Printf.sprintf
             "Assert the allocated-words-per-round slope is ≈ 0 over the \
              steady-state window (a fifth of the executed rounds, at least \
              1, trimmed from each end): a relative drift past %.2f exits 2. \
              A window of fewer than 3 fitted rounds, or one whose mean is \
              at most 0 words/round, is no verdict and exits 1. With two \
              reports, assert instead that the steady-state mean grows by at \
              most sqrt(n2/n1)."
             Baobs.Resource.tolerance))

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
    Term.(const run_mem $ mem_file_arg $ mem_larger_arg
          $ format_arg "ba-mem-report/v1; with two reports, ba-mem-growth/v1"
          $ mem_check_arg)

(* ---------- group ------------------------------------------------------- *)

let cmd =
  let doc = "Analyze traces and resource records from the BA harness" in
  Cmd.group (Cmd.info "ba_obs" ~doc) [ report_cmd; causal_cmd; mem_cmd ]

let () = exit (Cmd.eval' cmd)
