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

(* Refused before anything runs: one [experiments:] line naming
   BA_JOBS or the flag, exit 1, nothing on stdout. *)
let usage_error ~json_path =
  match (Bapar.env_error (), json_path) with
  | Some e, _ -> Some e
  | None, Some path -> (
      match Baobs.Jsonl.validate_path path with
      | Ok () -> None
      | Error e -> Some ("--json: " ^ e))
  | None, None -> None

let main quick only list_flag json_path =
  let refuse e =
    prerr_endline ("experiments: " ^ e);
    1
  in
  match (usage_error ~json_path, only) with
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
        Baexperiments.All.run_all ~quick ?json_path ();
        0
      with Sys_error e -> refuse e)
  | None, Some id -> (
      match Baexperiments.All.run_one ~quick ?json_path id with
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
    Term.(const main $ quick $ only $ list_flag $ json_path)

let () = exit (Cmd.eval' cmd)
