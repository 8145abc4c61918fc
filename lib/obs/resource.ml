(* GC/memory telemetry. Sampling is counter reads ([Gc.minor_words],
   [Gc.counters], [Gc.quick_stat]) — it never triggers a collection and
   never touches protocol-visible state, which is why a run recorded
   with [Engine.run ?resource] emits a byte-identical trace to an
   unrecorded one (asserted in test/test_obs.ml). The recorder keeps one
   row per round, and every summary is computed from those rows. *)

type sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

(* The word counters are read live for the calling domain: on OCaml 5,
   [Gc.quick_stat] refreshes minor and promoted words only at a minor
   collection and major words only at a major slice, so a round that
   allocates less than a minor heap would be credited with zero words
   and its neighbour with a whole minor heap (or with words promoted
   rounds earlier). *)
let sample () =
  let minor_words = Gc.minor_words () in
  let _, promoted_words, major_words = Gc.counters () in
  let s = Gc.quick_stat () in
  { minor_words;
    promoted_words;
    major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words }

type delta = {
  allocated_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_growth_words : int;
}

let delta ~before ~after =
  { allocated_words =
      after.minor_words -. before.minor_words
      +. (after.major_words -. before.major_words)
      -. (after.promoted_words -. before.promoted_words);
    promoted_words = after.promoted_words -. before.promoted_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
    heap_growth_words = after.heap_words - before.heap_words }

(* ---------- per-round recorder ------------------------------------------ *)

type row = {
  round : int;
  row_allocated_words : float;
  row_promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  row_heap_words : int;
  row_top_heap_words : int;
}

type t = { mutable pending : sample option; mutable rows_rev : row list }

let create () = { pending = None; rows_rev = [] }

let round_begin t = t.pending <- Some (sample ())

let round_end t ~round =
  match t.pending with
  | None -> ()
  | Some before ->
      t.pending <- None;
      let after = sample () in
      let d = delta ~before ~after in
      t.rows_rev <-
        { round;
          row_allocated_words = d.allocated_words;
          row_promoted_words = d.promoted_words;
          minor_gcs = d.minor_collections;
          major_gcs = d.major_collections;
          row_heap_words = after.heap_words;
          row_top_heap_words = after.top_heap_words }
        :: t.rows_rev

let rows t = List.rev t.rows_rev

let allocation_summary t =
  match
    List.filter_map
      (fun r -> if r.round >= 0 then Some r.row_allocated_words else None)
      (rows t)
  with
  | [] -> None
  | words -> Some (Bastats.Summary.of_list words)

(* ---------- encoders ---------------------------------------------------- *)

let summary_json = function
  | None -> Json.Null
  | Some (s : Bastats.Summary.t) ->
      Json.Obj
        [ ("count", Json.Int s.Bastats.Summary.count);
          ("mean", Json.Float s.Bastats.Summary.mean);
          ("stddev", Json.Float s.Bastats.Summary.stddev);
          ("min", Json.Float s.Bastats.Summary.min);
          ("p50", Json.Float s.Bastats.Summary.p50);
          ("p95", Json.Float s.Bastats.Summary.p95);
          ("p99", Json.Float s.Bastats.Summary.p99);
          ("max", Json.Float s.Bastats.Summary.max) ]

let row_json r =
  Json.Obj
    [ ("round", Json.Int r.round);
      ("allocated_words", Json.Float r.row_allocated_words);
      ("promoted_words", Json.Float r.row_promoted_words);
      ("minor_gcs", Json.Int r.minor_gcs);
      ("major_gcs", Json.Int r.major_gcs);
      ("heap_words", Json.Int r.row_heap_words);
      ("top_heap_words", Json.Int r.row_top_heap_words) ]

let totals_of_rows rows =
  let allocated = ref 0.0
  and promoted = ref 0.0
  and minor = ref 0
  and major = ref 0
  and peak_heap = ref 0
  and top_heap = ref 0
  and measured = ref 0 in
  List.iter
    (fun r ->
      allocated := !allocated +. r.row_allocated_words;
      promoted := !promoted +. r.row_promoted_words;
      minor := !minor + r.minor_gcs;
      major := !major + r.major_gcs;
      if r.row_heap_words > !peak_heap then peak_heap := r.row_heap_words;
      if r.row_top_heap_words > !top_heap then top_heap := r.row_top_heap_words;
      if r.round >= 0 then incr measured)
    rows;
  (!allocated, !promoted, !minor, !major, !peak_heap, !top_heap, !measured)

let totals_json rows =
  let allocated, promoted, minor, major, peak_heap, top_heap, measured =
    totals_of_rows rows
  in
  Json.Obj
    [ ("allocated_words", Json.Float allocated);
      ("promoted_words", Json.Float promoted);
      ("minor_gcs", Json.Int minor);
      ("major_gcs", Json.Int major);
      ("peak_heap_words", Json.Int peak_heap);
      ("top_heap_words", Json.Int top_heap);
      ("rounds", Json.Int measured) ]

let to_json ?(meta = []) t =
  let rows = rows t in
  Json.Obj
    (("schema", Json.String "ba-resource/v1")
    :: meta
    @ [ ("totals", totals_json rows);
        ("per_round", summary_json (allocation_summary t));
        ("rounds", Json.List (List.map row_json rows)) ])

let csv_header =
  [ "round"; "allocated_words"; "promoted_words"; "minor_gcs"; "major_gcs";
    "heap_words"; "top_heap_words" ]

let rows_to_csv rows =
  Csv.to_string ~header:csv_header
    (List.map
       (fun r ->
         [ string_of_int r.round;
           Printf.sprintf "%.0f" r.row_allocated_words;
           Printf.sprintf "%.0f" r.row_promoted_words;
           string_of_int r.minor_gcs;
           string_of_int r.major_gcs;
           string_of_int r.row_heap_words;
           string_of_int r.row_top_heap_words ])
       rows)

let to_csv t = rows_to_csv (rows t)

(* ---------- analysis ([ba_obs mem]) ------------------------------------- *)

type report = { rep_rows : row list }

let parse_error fmt =
  Format.kasprintf (fun s -> raise (Json.Parse_error s)) fmt

let report_of_json json =
  (match Json.member "schema" json with
  | Some (Json.String "ba-resource/v1") -> ()
  | Some (Json.String other) ->
      parse_error "expected schema ba-resource/v1, got %s" other
  | Some (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.List _
         | Json.Obj _)
  | None ->
      parse_error "missing ba-resource/v1 schema tag");
  let row_of_json j =
    { round = Json.as_int (Json.member_exn "round" j);
      row_allocated_words = Json.as_float (Json.member_exn "allocated_words" j);
      row_promoted_words = Json.as_float (Json.member_exn "promoted_words" j);
      minor_gcs = Json.as_int (Json.member_exn "minor_gcs" j);
      major_gcs = Json.as_int (Json.member_exn "major_gcs" j);
      row_heap_words = Json.as_int (Json.member_exn "heap_words" j);
      row_top_heap_words = Json.as_int (Json.member_exn "top_heap_words" j) }
  in
  { rep_rows =
      List.map row_of_json (Json.as_list (Json.member_exn "rounds" json)) }

let report_rows r = r.rep_rows

type flatness = {
  warmup : int;
  cooldown : int;
  measured : int;
  mean_words : float;
  slope_words : float;
  drift : float;
  tolerance : float;
  flat : bool;
}

let max_window = 4096

let flatness ?warmup ?cooldown ?(tolerance = 0.25) report =
  if not (Float.is_finite tolerance && tolerance >= 0.0) then
    invalid_arg "Resource.flatness: tolerance must be finite and >= 0";
  let executed = List.filter (fun r -> r.round >= 0) report.rep_rows in
  let total = List.length executed in
  let default_trim = max 1 (total / 5) in
  let trim = function
    | Some w when w < 0 ->
        invalid_arg "Resource.flatness: warmup and cooldown must be >= 0"
    | Some w -> w
    | None -> default_trim
  in
  let warmup = trim warmup in
  (* The last rounds are the decide/halt phase — a one-off allocation
     spike several times the steady-state mean, not a leak — so the
     steady-state fit trims the tail symmetrically with the head. *)
  let cooldown = trim cooldown in
  let window =
    List.filteri (fun i _ -> i >= warmup && i < total - cooldown) executed
  in
  let m = List.length window in
  if m > max_window then
    parse_error
      "Resource.flatness: a window of %d rounds exceeds the %d-round cap" m
      max_window;
  if m < 3 then
    { warmup;
      cooldown;
      measured = m;
      mean_words =
        (if m = 0 then 0.0
         else
           List.fold_left (fun acc r -> acc +. r.row_allocated_words) 0.0 window
           /. float_of_int m);
      slope_words = 0.0;
      drift = 0.0;
      tolerance;
      flat = true }
  else begin
    (* Theil–Sen: the median of all pairwise slopes
       (y_j − y_i) / (j − i). Healthy runs are bursty — per-epoch
       allocation spikes over a mostly-quiet baseline, plus heavy final
       decision rounds — which drags a least-squares fit far from zero;
       the median slope shrugs those off while a genuine leak (growth
       in most rounds) still moves it. O(m²) pairs, bounded by
       [max_window]. *)
    let fm = float_of_int m in
    let sum_y =
      List.fold_left (fun acc r -> acc +. r.row_allocated_words) 0.0 window
    in
    let mean_y = sum_y /. fm in
    let ys =
      Array.of_list (List.map (fun r -> r.row_allocated_words) window)
    in
    let slopes = Array.make (m * (m - 1) / 2) 0.0 in
    let k = ref 0 in
    for i = 0 to m - 2 do
      for j = i + 1 to m - 1 do
        slopes.(!k) <- (ys.(j) -. ys.(i)) /. float_of_int (j - i);
        incr k
      done
    done;
    Array.sort Float.compare slopes;
    let len = Array.length slopes in
    let slope =
      if len mod 2 = 1 then slopes.(len / 2)
      else (slopes.((len / 2) - 1) +. slopes.(len / 2)) /. 2.0
    in
    let drift =
      if mean_y <= 0.0 then 0.0 else slope *. (fm -. 1.0) /. mean_y
    in
    { warmup;
      cooldown;
      measured = m;
      mean_words = mean_y;
      slope_words = slope;
      drift;
      tolerance;
      flat = Float.abs drift <= tolerance }
  end

let flatness_json f =
  Json.Obj
    [ ("warmup", Json.Int f.warmup);
      ("cooldown", Json.Int f.cooldown);
      ("measured", Json.Int f.measured);
      ("mean_words_per_round", Json.Float f.mean_words);
      ("slope_words_per_round", Json.Float f.slope_words);
      ("drift", Json.Float f.drift);
      ("tolerance", Json.Float f.tolerance);
      ("flat", Json.Bool f.flat) ]

let report_to_text report f =
  let table =
    Bastats.Table.create ~title:"Per-round resource usage" ~columns:csv_header
  in
  List.iter
    (fun r ->
      Bastats.Table.add_row table
        [ string_of_int r.round;
          Bastats.Table.fmt_int (int_of_float r.row_allocated_words);
          Bastats.Table.fmt_int (int_of_float r.row_promoted_words);
          string_of_int r.minor_gcs;
          string_of_int r.major_gcs;
          Bastats.Table.fmt_int r.row_heap_words;
          Bastats.Table.fmt_int r.row_top_heap_words ])
    report.rep_rows;
  let allocated, promoted, minor, major, peak_heap, top_heap, measured =
    totals_of_rows report.rep_rows
  in
  String.concat "\n"
    [ Bastats.Table.render table;
      Printf.sprintf
        "totals: %s words allocated (%s promoted) over %d rounds, %d minor / \
         %d major GCs, peak heap %s words (top %s)"
        (Bastats.Table.fmt_int (int_of_float allocated))
        (Bastats.Table.fmt_int (int_of_float promoted))
        measured minor major
        (Bastats.Table.fmt_int peak_heap)
        (Bastats.Table.fmt_int top_heap);
      Printf.sprintf
        "flatness: %s (warmup %d, cooldown %d, %d rounds fitted, mean %.0f \
         words/round, slope %+.1f words/round^2, drift %+.4f, tolerance %.2f)"
        (if f.flat then "FLAT" else "NOT FLAT")
        f.warmup f.cooldown f.measured f.mean_words f.slope_words f.drift
        f.tolerance ]

let report_to_json report f =
  Json.Obj
    [ ("schema", Json.String "ba-mem-report/v1");
      ("totals", totals_json report.rep_rows);
      ("flatness", flatness_json f);
      ("rounds", Json.List (List.map row_json report.rep_rows)) ]

let report_to_csv report = rows_to_csv report.rep_rows
