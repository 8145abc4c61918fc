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

(* The closing sample opens the next window, so consecutive rows tile
   the recording with no gap between them. *)
let round_end t ~round =
  match t.pending with
  | None -> ()
  | Some before ->
      let after = sample () in
      t.pending <- Some after;
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

type report = {
  rep_rows : row list;
  rep_protocol : string option;
  rep_n : int option;
  rep_seed : int option;
  rep_budget : int option;
}

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
  let meta key read = Option.map read (Json.member key json) in
  { rep_rows =
      List.map row_of_json (Json.as_list (Json.member_exn "rounds" json));
    rep_protocol = meta "protocol" Json.as_string;
    rep_n = meta "n" Json.as_int;
    rep_seed = meta "seed" Json.as_int;
    rep_budget = meta "budget" Json.as_int }

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

let min_window = 3

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
  if m < min_window then
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

(* ---------- growth in n ------------------------------------------------- *)

type growth = {
  protocol : string;
  seed : int;
  budget : int;
  small_n : int;
  large_n : int;
  small : flatness;
  large : flatness;
  ratio : float;
  bound : float;
  sublinear : bool;
}

let growth ?warmup ?cooldown small large =
  let run r = (r.rep_protocol, r.rep_seed, r.rep_budget, r.rep_n) in
  let differ what a b =
    Error
      (Printf.sprintf "growth check: the documents differ in %s (%s vs %s)"
         what a b)
  in
  match (run small, run large) with
  | (Some p1, Some s1, Some b1, Some n1), (Some p2, Some s2, Some b2, Some n2)
    ->
      if not (String.equal p1 p2) then differ "protocol" p1 p2
      else if s1 <> s2 then differ "seed" (string_of_int s1) (string_of_int s2)
      else if b1 <> b2 then
        differ "budget" (string_of_int b1) (string_of_int b2)
      else if n1 < 1 || n2 <= n1 then
        Error
          (Printf.sprintf
             "growth check: the first document's n must be at least 1 and \
              below the second's, got %d and %d"
             n1 n2)
      else begin
        let small_fit = flatness ?warmup ?cooldown small
        and large_fit = flatness ?warmup ?cooldown large in
        match
          List.find_opt
            (fun (_, f) -> f.measured < min_window)
            [ (n1, small_fit); (n2, large_fit) ]
        with
        | Some (n, f) ->
            Error
              (Printf.sprintf
                 "growth check: the n = %d document fits %d rounds (warmup \
                  %d, cooldown %d), fewer than the %d a verdict needs"
                 n f.measured f.warmup f.cooldown min_window)
        | None ->
            let ratio =
              if large_fit.mean_words <= 0.0 then 0.0
              else large_fit.mean_words /. Float.max small_fit.mean_words 1.0
            in
            let bound = Float.sqrt (float_of_int n2 /. float_of_int n1) in
            Ok
              { protocol = p1; seed = s1; budget = b1; small_n = n1;
                large_n = n2; small = small_fit; large = large_fit; ratio;
                bound; sublinear = ratio <= bound }
      end
  | _ ->
      Error
        "growth check: both documents must record the protocol, n, seed and \
         budget of their run"

let growth_to_text g =
  let side n f =
    Printf.sprintf
      "  n = %s: steady mean %s words/round over %d rounds (warmup %d, \
       cooldown %d)"
      (Bastats.Table.fmt_int n)
      (Bastats.Table.fmt_int (int_of_float (Float.round f.mean_words)))
      f.measured f.warmup f.cooldown
  in
  String.concat "\n"
    [ Printf.sprintf "growth: %s, seed %d, budget %d, n %s -> %s" g.protocol
        g.seed g.budget
        (Bastats.Table.fmt_int g.small_n)
        (Bastats.Table.fmt_int g.large_n);
      side g.small_n g.small;
      side g.large_n g.large;
      Printf.sprintf
        "  ratio %.2f, bound sqrt(n2/n1) = %.2f: %s" g.ratio g.bound
        (if g.sublinear then "SUBLINEAR" else "GROWS WITH n") ]

let growth_to_json g =
  let side n f =
    Json.Obj
      [ ("n", Json.Int n);
        ("warmup", Json.Int f.warmup);
        ("cooldown", Json.Int f.cooldown);
        ("measured", Json.Int f.measured);
        ("mean_words_per_round", Json.Float f.mean_words) ]
  in
  Json.Obj
    [ ("schema", Json.String "ba-mem-growth/v1");
      ("protocol", Json.String g.protocol);
      ("seed", Json.Int g.seed);
      ("budget", Json.Int g.budget);
      ("small", side g.small_n g.small);
      ("large", side g.large_n g.large);
      ("ratio", Json.Float g.ratio);
      ("bound", Json.Float g.bound);
      ("sublinear", Json.Bool g.sublinear) ]
