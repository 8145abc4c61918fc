type t = Channel of out_channel | Buffer of Buffer.t

let to_channel oc = Channel oc

let to_buffer buf = Buffer buf

let emit t json =
  let line = Json.to_string json in
  match t with
  | Channel oc ->
      output_string oc line;
      output_char oc '\n'
  | Buffer buf ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n'

let validate_path path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then
    Error (Printf.sprintf "%s: parent directory %s does not exist" path dir)
  else if not (Sys.is_directory dir) then
    Error (Printf.sprintf "%s: parent %s is not a directory" path dir)
  else if Sys.file_exists path && Sys.is_directory path then
    Error (Printf.sprintf "%s: is a directory" path)
  else Ok ()
