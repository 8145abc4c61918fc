type rule =
  | Obj_magic
  | Poly_compare
  | Stdlib_exit
  | Failwith_hot_path
  | Missing_mli

type finding = {
  rule : rule;
  file : string;
  line : int;
  excerpt : string;
}

let rule_name = function
  | Obj_magic -> "obj-magic"
  | Poly_compare -> "poly-compare"
  | Stdlib_exit -> "stdlib-exit"
  | Failwith_hot_path -> "failwith-hot-path"
  | Missing_mli -> "missing-mli"

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line (rule_name f.rule)
    f.excerpt

let findings_to_json findings =
  Baobs.Json.List
    (List.map
       (fun f ->
         Baobs.Json.Obj
           [ ("rule", Baobs.Json.String (rule_name f.rule));
             ("file", Baobs.Json.String f.file);
             ("line", Baobs.Json.Int f.line);
             ("excerpt", Baobs.Json.String f.excerpt) ])
       findings)

(* {2 Blanking pass}

   Replace comment bodies, string literals and character literals by
   spaces so the token search below never matches inside prose. Newlines
   are preserved: line numbers in the blanked text equal those of the
   source. This is a lexer-grade approximation — it understands nested
   [(* *)] comments, strings inside comments, backslash escapes, and
   distinguishes char literals from type variables — which is all the
   code in this repository needs. *)

let blank_comments_and_strings src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank j = if Bytes.get out j <> '\n' then Bytes.set out j ' ' in
  let i = ref 0 in
  let depth = ref 0 in
  (* Skip a string literal starting at the opening quote, blanking it
     (quotes included); returns the index just past the closing quote. *)
  let skip_string start =
    let j = ref start in
    blank !j;
    incr j;
    let closed = ref false in
    while (not !closed) && !j < n do
      (match src.[!j] with
      | '\\' when !j + 1 < n ->
          blank !j;
          blank (!j + 1);
          incr j
      | '"' -> closed := true
      | _ -> blank !j);
      incr j
    done;
    !j
  in
  while !i < n do
    let c = src.[!i] in
    if !depth > 0 then
      if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        incr depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        decr depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else if c = '"' then i := skip_string !i
      else begin
        blank !i;
        incr i
      end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      depth := 1;
      blank !i;
      blank (!i + 1);
      i := !i + 2
    end
    else if c = '"' then i := skip_string !i
    else if c = '\'' then begin
      (* Char literal or type variable? ['x'] and escapes are literals;
         ['a] (no closing quote in range) is a type variable. *)
      if !i + 2 < n && src.[!i + 1] = '\\' then begin
        (* Escaped char: blank up to and including the closing quote,
           which sits within the next handful of characters. *)
        let j = ref (!i + 2) in
        let stop = min n (!i + 6) in
        while !j < stop && src.[!j] <> '\'' do
          incr j
        done;
        if !j < stop && src.[!j] = '\'' then begin
          for k = !i to !j do
            blank k
          done;
          i := !j + 1
        end
        else incr i
      end
      else if !i + 2 < n && src.[!i + 2] = '\'' && src.[!i + 1] <> '\'' then begin
        blank !i;
        blank (!i + 1);
        blank (!i + 2);
        i := !i + 3
      end
      else incr i
    end
    else incr i
  done;
  Bytes.to_string out

(* {2 Token search} *)

let is_ident_char c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Whether [token] occurs in [line] at a word boundary. [qualified]
   controls occurrences preceded (after skipping spaces) by a ['.']:
   [`Forbid] rejects them (so [Int.compare] does not match [compare]),
   [`Allow] accepts them. *)
let has_token ?(qualified = `Forbid) token line =
  let tn = String.length token in
  let ln = String.length line in
  let prev_nonspace upto =
    let j = ref (upto - 1) in
    while !j >= 0 && line.[!j] = ' ' do
      decr j
    done;
    if !j >= 0 then Some line.[!j] else None
  in
  let rec search from =
    if from + tn > ln then false
    else
      match String.index_from_opt line from token.[0] with
      | None -> false
      | Some at ->
          if
            at + tn <= ln
            && String.sub line at tn = token
            && (at = 0 || not (is_ident_char line.[at - 1]))
            && (at = 0 || line.[at - 1] <> '.')
            && (at + tn = ln || not (is_ident_char line.[at + tn]))
            && (match qualified with
               | `Allow -> true
               | `Forbid -> (
                   match prev_nonspace at with
                   | Some '.' -> false
                   | Some _ | None -> true))
          then true
          else search (at + 1)
  in
  search 0

(* [let compare], [and compare] and [~compare:] introduce or name a
   module-specific comparison — those are definitions/labels, not uses
   of the polymorphic one. *)
let defines_token token line =
  let ln = String.length line in
  let tn = String.length token in
  let rec scan at =
    match String.index_from_opt line at token.[0] with
    | None -> false
    | Some at when at + tn > ln -> scan (at + 1)
    | Some at ->
        if
          String.sub line at tn = token
          && (at = 0 || not (is_ident_char line.[at - 1]))
          && (at + tn = ln || not (is_ident_char line.[at + tn]))
        then begin
          let before = String.trim (String.sub line 0 at) in
          let ends_with suf =
            let sn = String.length suf in
            String.length before >= sn
            && String.sub before (String.length before - sn) sn = suf
            && (String.length before = sn
               || not (is_ident_char before.[String.length before - sn - 1]))
          in
          if
            ends_with "let" || ends_with "and" || ends_with "~"
            || ends_with "val"
            || at + tn < ln
               && line.[at + tn] = ':'
               && at > 0
               && line.[at - 1] = '~'
          then true
          else scan (at + 1)
        end
        else scan (at + 1)
  in
  scan 0

(* {2 Hot-path region}

   The engine's per-round loop is the [while !running … done] block in
   [engine.ml]. Returns [Some (first, last)] line numbers (1-based,
   exclusive of the [while]/[done] lines themselves). *)
let hot_path_region lines =
  let indent_of s =
    let j = ref 0 in
    while !j < String.length s && s.[!j] = ' ' do
      incr j
    done;
    !j
  in
  let arr = Array.of_list lines in
  let start = ref None in
  Array.iteri
    (fun idx line ->
      match !start with
      | None ->
          if has_token ~qualified:`Allow "while" line && has_token "running" line
          then start := Some (idx, indent_of line)
      | Some _ -> ())
    arr;
  match !start with
  | None -> None
  | Some (widx, windent) ->
      let stop = ref None in
      Array.iteri
        (fun idx line ->
          if idx > widx && !stop = None then
            let t = String.trim line in
            if
              (t = "done" || t = "done;"
              || String.length t > 4
                 && String.sub t 0 4 = "done"
                 && not (is_ident_char t.[4]))
              && indent_of line <= windent
            then stop := Some idx)
        arr;
      let last =
        match !stop with Some idx -> idx (* exclusive *) | None -> Array.length arr
      in
      Some (widx + 2, last) (* 1-based, body only *)

let is_engine path = Filename.basename path = "engine.ml"

let scan_source ~path contents =
  let blanked = blank_comments_and_strings contents in
  let lines = String.split_on_char '\n' blanked in
  let raw_lines = String.split_on_char '\n' contents in
  let excerpt lineno =
    match List.nth_opt raw_lines (lineno - 1) with
    | Some l -> String.trim l
    | None -> ""
  in
  let hot =
    if is_engine path then hot_path_region lines else None
  in
  let in_hot_path lineno =
    match hot with
    | Some (first, last) -> lineno >= first && lineno <= last
    | None -> false
  in
  let findings = ref [] in
  let add rule lineno =
    findings := { rule; file = path; line = lineno; excerpt = excerpt lineno }
                :: !findings
  in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      if has_token ~qualified:`Allow "Obj.magic" line then add Obj_magic lineno;
      if
        (has_token "compare" line || has_token ~qualified:`Allow "Stdlib.compare" line)
        && not (defines_token "compare" line)
      then add Poly_compare lineno;
      if
        (has_token "exit" line || has_token ~qualified:`Allow "Stdlib.exit" line)
        && not (defines_token "exit" line)
      then add Stdlib_exit lineno;
      if in_hot_path lineno && has_token "failwith" line then
        add Failwith_hot_path lineno)
    lines;
  List.rev !findings

(* {2 Tree walk} *)

let rec walk_dir dir =
  if Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> walk_dir (Filename.concat dir entry))
  else [ dir ]

let relativize ~root path =
  let prefix = root ^ Filename.dir_sep in
  let pn = String.length prefix in
  if String.length path > pn && String.sub path 0 pn = prefix then
    String.sub path pn (String.length path - pn)
  else path

let scan_tree ~root =
  let lib = Filename.concat root "lib" in
  let files = if Sys.file_exists lib then walk_dir lib else [] in
  let findings =
    List.concat_map
      (fun path ->
        if Filename.check_suffix path ".ml" then begin
          let rel = relativize ~root path in
          let contents =
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let source_findings = scan_source ~path:rel contents in
          let mli = Filename.remove_extension path ^ ".mli" in
          if Sys.file_exists mli then source_findings
          else
            source_findings
            @ [ { rule = Missing_mli;
                  file = rel;
                  line = 1;
                  excerpt =
                    Printf.sprintf "no interface %s.mli"
                      (Filename.basename (Filename.remove_extension path)) } ]
        end
        else [])
      files
  in
  List.sort
    (fun a b ->
      match String.compare a.file b.file with
      | 0 -> Int.compare a.line b.line
      | c -> c)
    findings
