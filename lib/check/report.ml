type item = { label : string; detail : string; data : Baobs.Json.t }

let schema = "ba-findings/v1"

let of_trace_findings findings =
  List.map
    (fun f ->
      let data =
        match Trace_lint.findings_to_json [ f ] with
        | Baobs.Json.List [ j ] -> j
        | Baobs.Json.List _ | Baobs.Json.Null | Baobs.Json.Bool _
        | Baobs.Json.Int _ | Baobs.Json.Float _ | Baobs.Json.String _
        | Baobs.Json.Obj _ ->
            Baobs.Json.Null
      in
      { label = Trace_lint.kind_name f.Trace_lint.kind;
        detail = Format.asprintf "%a" Trace_lint.pp_finding f;
        data })
    findings

let to_json ~tool items =
  Baobs.Json.Obj
    [ ("schema", Baobs.Json.String schema);
      ("tool", Baobs.Json.String tool);
      ("count", Baobs.Json.Int (List.length items));
      ( "findings",
        Baobs.Json.List
          (List.map
             (fun it ->
               Baobs.Json.Obj
                 [ ("label", Baobs.Json.String it.label);
                   ("detail", Baobs.Json.String it.detail);
                   ("data", it.data) ])
             items) ) ]

let emit_text ~tool items =
  match items with
  | [] ->
      Printf.printf "%s: clean\n%!" tool;
      false
  | _ :: _ ->
      List.iter (fun it -> Printf.eprintf "%s: %s\n" tool it.detail) items;
      Printf.eprintf "%s: %d finding(s)\n%!" tool (List.length items);
      true
