(* Verdicts between two sets of ledger runs, one per (metric, workload),
   using the bounds BENCHMARK.json fixes for its end-to-end metrics.

   A side's spread is the relative range of its runs' values when it holds
   several runs of a workload, and otherwise the spread the single run
   recorded for itself. A metric whose spread exceeds its bound cannot be
   told apart from noise: it is unresolved, unless both sides hold several
   runs and every run of B reads better than every run of A. *)

module J = Baobs.Json

type bound = { name : string; lower_better : bool; bound : float }

type verdict = Within | Improved | Regressed | Unresolved

let verdict_name = function
  | Within -> "within bound"
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : string;
  a : float;  (* median over A's runs *)
  b : float;
  change : float;  (* (b - a) / a *)
  spread : float;
  limit : float;
  verdict : verdict;
}

let benchmark_metrics key benchmark =
  J.as_list (J.member_exn key benchmark)

let bounds benchmark =
  List.map
    (fun m ->
      { name = J.as_string (J.member_exn "name" m);
        lower_better = J.as_string (J.member_exn "better" m) = "lower";
        bound = J.as_float (J.member_exn "bound" m) })
    (benchmark_metrics "end_to_end" benchmark)

(* A file holds one run document or a list of them. *)
let runs_of_json = function
  | J.List docs -> docs
  | J.Obj _ as doc -> [ doc ]
  | _ -> raise (J.Parse_error "expected a run document or a list of them")

let untraced docs =
  List.filter (fun d -> not (J.as_bool (J.member_exn "trace" d))) docs

let workload d = J.as_string (J.member_exn "workload" d)

let field name key d =
  J.as_float (J.member_exn key (J.member_exn name (J.member_exn "metrics" d)))

let side_spread name docs =
  match docs with
  | [ d ] -> field name "spread" d
  | _ -> Stats.rel_range (List.map (field name "value") docs)

let relative a b = if a = 0.0 then (if b = 0.0 then 0.0 else Float.infinity) else (b -. a) /. a

let judge bound ~a_docs ~b_docs =
  let values docs = List.map (field bound.name "value") docs in
  let ma = Stats.median (values a_docs) and mb = Stats.median (values b_docs) in
  let change = relative ma mb in
  let worse = if bound.lower_better then change else -.change in
  let spread =
    Float.max (side_spread bound.name a_docs) (side_spread bound.name b_docs)
  in
  let better x y = if bound.lower_better then x < y else x > y in
  let all_better =
    List.length a_docs > 1
    && List.length b_docs > 1
    && List.for_all
         (fun b -> List.for_all (fun a -> better b a) (values a_docs))
         (values b_docs)
  in
  let verdict =
    if spread > bound.bound then if all_better then Improved else Unresolved
    else if worse > bound.bound then Regressed
    else if worse < -.bound.bound then Improved
    else Within
  in
  (ma, mb, change, spread, verdict)

let rows ~bounds a b =
  let a = untraced a and b = untraced b in
  let names = List.sort_uniq String.compare (List.map workload (a @ b)) in
  List.concat_map
    (fun w ->
      let a_docs = List.filter (fun d -> workload d = w) a in
      let b_docs = List.filter (fun d -> workload d = w) b in
      if a_docs = [] || b_docs = [] then []
      else
        List.map
          (fun bound ->
            let a, b, change, spread, verdict = judge bound ~a_docs ~b_docs in
            { workload = w; metric = bound.name; a; b; change; spread;
              limit = bound.bound; verdict })
          bounds)
    names

(* Exact per-layer totals of traced runs that differ between the sides. *)
let count_changes a b =
  let counts docs =
    List.concat_map
      (fun d ->
        match J.member "counts" d with
        | Some (J.Obj kv) ->
            List.map (fun (k, v) -> ((workload d, k), J.as_int v)) kv
        | Some _ | None -> [])
      docs
  in
  let cb = counts b in
  List.filter_map
    (fun (key, va) ->
      match List.assoc_opt key cb with
      | Some vb when vb <> va -> Some (key, va, vb)
      | Some _ | None -> None)
    (counts a)

let render rows changes =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%-16s %-24s %12s %12s %8s %7s %6s  %s\n" "workload"
    "metric" "A" "B" "change" "spread" "bound" "verdict";
  List.iter
    (fun r ->
      Printf.bprintf buf "%-16s %-24s %12.6g %12.6g %+7.1f%% %6.1f%% %5.1f%%  %s\n"
        r.workload r.metric r.a r.b (100.0 *. r.change) (100.0 *. r.spread)
        (100.0 *. r.limit) (verdict_name r.verdict))
    rows;
  List.iter
    (fun ((w, name), va, vb) ->
      Printf.bprintf buf "count changed: %s %s %d -> %d\n" w name va vb)
    changes;
  Buffer.contents buf

let exit_code rows =
  if List.exists (fun r -> r.verdict = Regressed) rows then 1 else 0
