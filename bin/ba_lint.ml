(* Source-lint driver: walks lib/**/*.ml for banned patterns and emits
   a machine-readable JSON report. Deliberately dependency-free (stdlib
   [Arg], no cmdliner) so the lint gate builds even when the main CLI
   does not. Exit status: 0 clean, 1 findings, 2 usage error. *)

let root = ref "."
let json_out = ref ""
let quiet = ref false

let spec =
  [ ("--root", Arg.Set_string root, "DIR repository root to scan (default .)");
    ( "--json",
      Arg.Set_string json_out,
      "FILE write the JSON report to FILE (default: no report)" );
    ("--quiet", Arg.Set quiet, " suppress per-finding lines on stdout") ]

let usage = "ba_lint [--root DIR] [--json FILE] [--quiet]"

let () =
  Arg.parse spec
    (fun anon ->
      Printf.eprintf "ba_lint: unexpected argument %S\n" anon;
      Arg.usage spec usage;
      exit 2)
    usage;
  let findings = Bacheck.Source_lint.scan_tree ~root:!root in
  if not !quiet then
    List.iter
      (fun f -> Format.printf "%a@." Bacheck.Source_lint.pp_finding f)
      findings;
  let report =
    Baobs.Json.Obj
      [ ("tool", Baobs.Json.String "ba_lint");
        ("root", Baobs.Json.String !root);
        ("findings", Bacheck.Source_lint.findings_to_json findings);
        ("count", Baobs.Json.Int (List.length findings)) ]
  in
  if !json_out <> "" then Baobs.Json.to_file !json_out report;
  if findings = [] then begin
    if not !quiet then print_endline "ba_lint: clean"
  end
  else begin
    Printf.printf "ba_lint: %d finding(s)\n" (List.length findings);
    exit 1
  end
