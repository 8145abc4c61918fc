(* Diff two ba-bench/v1 reports (BENCH_*.json) by ns/run. A benchmark
   regresses when current/base exceeds 1 + threshold; only regressions
   make {!exit_code} nonzero, so the CLI can serve as a CI gate while
   additions, removals and missing estimates stay informational. *)

type status = Regression | Improvement | Unchanged | Added | Removed | No_estimate

type row = {
  name : string;
  base_ns : float option;
  cur_ns : float option;
  ratio : float option;  (* cur / base when both present and base > 0 *)
  status : status;
}

type t = {
  threshold : float;
  rows : row list;
}

let status_name = function
  | Regression -> "regression"
  | Improvement -> "improvement"
  | Unchanged -> "unchanged"
  | Added -> "added"
  | Removed -> "removed"
  | No_estimate -> "no-estimate"

let results_of_json json =
  let open Json in
  List.map
    (fun r ->
      let ns =
        match member_exn "ns_per_run" r with
        | Null -> None
        | (Bool _ | Int _ | Float _ | String _ | List _ | Obj _) as v ->
            Some (as_float v)
      in
      (as_string (member_exn "name" r), ns))
    (as_list (member_exn "results" json))

let classify ~threshold base cur =
  match (base, cur) with
  | None, None -> (None, No_estimate)
  | None, Some _ -> (None, Added)
  | Some _, None -> (None, Removed)
  | Some b, Some c ->
      if b <= 0.0 then (None, No_estimate)
      else
        let ratio = c /. b in
        let status =
          if ratio >= 1.0 +. threshold then Regression
          else if ratio <= 1.0 -. threshold then Improvement
          else Unchanged
        in
        (Some ratio, status)

let diff ?(threshold = 0.2) ?only ~base ~current () =
  if not (Float.is_finite threshold && threshold > 0.0) then
    invalid_arg "Bench_compare.diff: threshold must be positive and finite";
  let keep name =
    match only with
    | None -> true
    | Some prefix -> String.starts_with ~prefix name
  in
  let base_results = List.filter (fun (name, _) -> keep name) (results_of_json base) in
  let cur_results = List.filter (fun (name, _) -> keep name) (results_of_json current) in
  let names =
    List.sort_uniq String.compare
      (List.map fst base_results @ List.map fst cur_results)
  in
  let rows =
    List.map
      (fun name ->
        (* [results] may list a name once with a null estimate; absence
           and a null estimate both surface as [None]. *)
        let find results =
          Option.join (List.assoc_opt name results)
        in
        let base_ns = find base_results and cur_ns = find cur_results in
        let present results = List.mem_assoc name results in
        let ratio, status =
          if not (present base_results) then (None, Added)
          else if not (present cur_results) then (None, Removed)
          else classify ~threshold base_ns cur_ns
        in
        { name; base_ns; cur_ns; ratio; status })
      names
  in
  { threshold; rows }

let regressions t =
  List.filter (fun r -> r.status = Regression) t.rows

let has_regressions t = regressions t <> []

let exit_code t = if has_regressions t then 1 else 0

let fmt_ns = function
  | None -> "-"
  | Some ns -> Printf.sprintf "%.0f" ns

let fmt_ratio = function
  | None -> "-"
  | Some r -> Printf.sprintf "%.2fx" r

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "benchmark comparison (threshold %.0f%%)\n"
       (100.0 *. t.threshold));
  let name_w =
    List.fold_left (fun w r -> max w (String.length r.name)) 9 t.rows
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s %14s %14s %8s %s\n" name_w "benchmark" "base ns/run"
       "cur ns/run" "ratio" "status");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s %14s %14s %8s %s\n" name_w r.name
           (fmt_ns r.base_ns) (fmt_ns r.cur_ns) (fmt_ratio r.ratio)
           (status_name r.status)))
    t.rows;
  let n_reg = List.length (regressions t) in
  Buffer.add_string buf
    (if n_reg = 0 then "no regressions\n"
     else Printf.sprintf "%d regression(s)\n" n_reg);
  Buffer.contents buf

let to_json t =
  let opt_float = function None -> Json.Null | Some f -> Json.Float f in
  Json.Obj
    [ ("schema", Json.String "ba-bench-compare/v1");
      ("threshold", Json.Float t.threshold);
      ("regressions", Json.Int (List.length (regressions t)));
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [ ("name", Json.String r.name);
                   ("base_ns", opt_float r.base_ns);
                   ("cur_ns", opt_float r.cur_ns);
                   ("ratio", opt_float r.ratio);
                   ("status", Json.String (status_name r.status)) ])
             t.rows) ) ]
