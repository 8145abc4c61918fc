type target = Channel of out_channel | Buffer of Buffer.t

type t = { target : target; mutable emitted : int }

let to_channel oc = { target = Channel oc; emitted = 0 }

let to_buffer buf = { target = Buffer buf; emitted = 0 }

let emit t json =
  let line = Json.to_string json in
  (match t.target with
  | Channel oc ->
      output_string oc line;
      output_char oc '\n'
  | Buffer buf ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n');
  t.emitted <- t.emitted + 1

let emitted t = t.emitted

let validate_path path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then
    Error (Printf.sprintf "%s: parent directory %s does not exist" path dir)
  else if not (Sys.is_directory dir) then
    Error (Printf.sprintf "%s: parent %s is not a directory" path dir)
  else if Sys.file_exists path && Sys.is_directory path then
    Error (Printf.sprintf "%s: is a directory" path)
  else Ok ()
