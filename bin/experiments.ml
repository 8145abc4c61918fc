(* CLI for the experiment suite: runs E1–E11 (or a chosen one) and prints
   the tables recorded in EXPERIMENTS.md. *)

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced repetitions (smoke run).")

let only =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"ID" ~doc:"Run a single experiment (E1, E1b, … E11).")

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.")

let json_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write every produced table to $(docv) as JSON.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run Monte-Carlo trials on $(docv) domains, at least 1 (default: \
           BA_JOBS or the machine's recommended domain count). Every table \
           and the --json document are byte-identical for every $(docv).")

(* Refused before anything runs: one [experiments:] line naming the
   flag, exit 1, nothing on stdout. *)
let usage_error ~json_path ~jobs =
  match (Bapar.env_error (), jobs, json_path) with
  | Some e, _, _ -> Some e
  | None, Some j, _ when j < 1 ->
      Some (Printf.sprintf "--jobs must be at least 1, got %d" j)
  | None, _, Some path -> (
      match Baobs.Jsonl.validate_path path with
      | Ok () -> None
      | Error e -> Some ("--json: " ^ e))
  | None, (Some _ | None), None -> None

let main quick only list_flag json_path jobs =
  let refuse e =
    prerr_endline ("experiments: " ^ e);
    1
  in
  match (usage_error ~json_path ~jobs, only) with
  | Some e, _ -> refuse e
  | None, _ when list_flag ->
      List.iter
        (fun e ->
          Printf.printf "%-4s %s\n" e.Baexperiments.All.id
            e.Baexperiments.All.claim)
        Baexperiments.All.experiments;
      0
  | None, None -> (
      (* e.g. a --json destination that fills up after the tables *)
      try
        Baexperiments.All.run_all ~quick ?jobs ?json_path ();
        0
      with Sys_error e -> refuse e)
  | None, Some id -> (
      match Baexperiments.All.run_one ~quick ?jobs ?json_path id with
      | true -> 0
      | false -> refuse (Printf.sprintf "unknown experiment %S (try --list)" id)
      | exception Sys_error e -> refuse e)

let cmd =
  let doc =
    "Regenerate the evaluation of 'Communication Complexity of Byzantine \
     Agreement, Revisited' (PODC 2019)"
  in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(const main $ quick $ only $ list_flag $ json_path $ jobs)

let () = exit (Cmd.eval' cmd)
