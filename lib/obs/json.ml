type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---------- printing --------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  (* %.17g survives a parse round-trip bit-exactly; make sure the result
     still reads back as a float, not an int. *)
  let s = Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
  | String s -> escape_to buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let to_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string j);
      output_char oc '\n';
      close_out oc)

(* ---------- parsing ---------------------------------------------------- *)

type parser_state = { src : string; mutable pos : int }

let fail st fmt =
  Format.kasprintf (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" st.pos m))) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st "expected %c, found %c" c c'
  | None -> fail st "expected %c, found end of input" c

let parse_literal st word value =
  let len = String.length word in
  if
    st.pos + len <= String.length st.src
    && String.sub st.src st.pos len = word
  then begin
    st.pos <- st.pos + len;
    value
  end
  else fail st "invalid literal"

let parse_string_raw st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> advance st; Buffer.add_char buf '"'; loop ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; loop ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; loop ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; loop ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; loop ()
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; loop ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; loop ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; loop ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then
              fail st "truncated \\u escape";
            let hex = String.sub st.src st.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail st "bad \\u escape %S" hex
            in
            st.pos <- st.pos + 4;
            (* Encode the code point as UTF-8 (we only ever emit ASCII,
               but accept the full basic multilingual plane). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
            end;
            loop ()
        | _ -> fail st "bad escape")
    | Some c -> advance st; Buffer.add_char buf c; loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail st "bad number %S" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail st "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' -> String (parse_string_raw st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [ parse_value st ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          items := parse_value st :: !items;
          skip_ws st
        done;
        expect st ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          let k = parse_string_raw st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          fields := field () :: !fields;
          skip_ws st
        done;
        expect st '}';
        Obj (List.rev !fields)
      end
  | Some c -> (
      match c with
      | '0' .. '9' | '-' -> parse_number st
      | _ -> fail st "unexpected character %c" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* ---------- accessors -------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let member_exn name j =
  match member name j with
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "missing member %S" name))

let as_int = function
  | Int i -> i
  | (Null | Bool _ | Float _ | String _ | List _ | Obj _) as j ->
      raise (Parse_error ("expected int, got " ^ to_string j))

let as_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | (Null | Bool _ | String _ | List _ | Obj _) as j ->
      raise (Parse_error ("expected number, got " ^ to_string j))

let as_string = function
  | String s -> s
  | (Null | Bool _ | Int _ | Float _ | List _ | Obj _) as j ->
      raise (Parse_error ("expected string, got " ^ to_string j))

let as_bool = function
  | Bool b -> b
  | (Null | Int _ | Float _ | String _ | List _ | Obj _) as j ->
      raise (Parse_error ("expected bool, got " ^ to_string j))

let as_list = function
  | List l -> l
  | (Null | Bool _ | Int _ | Float _ | String _ | Obj _) as j ->
      raise (Parse_error ("expected list, got " ^ to_string j))
