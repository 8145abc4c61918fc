(* Trace analytics: fold a (re-parsed) execution trace into per-round,
   per-node, and per-size views. The Definition-7 counters are the
   [Basim.Metrics.observe] fold of the trace, the engine's own rule, so
   a report's totals reproduce the engine's aggregates for the same
   run; the report adds halts and message-size histograms. *)

open Basim

type counts = {
  multicasts : int;
  multicast_bits : int;
  unicasts : int;
  unicast_bits : int;
  removals : int;
  injections : int;
  corruptions : int;
  halts : int;
}

type t = {
  event_count : int;
  totals : counts;
  per_round : (int * counts) list;
  per_node : (int * counts) list;
  multicast_sizes : Bastats.Histogram.t;  (* bits per honest multicast *)
  unicast_sizes : Bastats.Histogram.t;    (* bits per honest targeted send *)
}

let with_halts halts (c : Metrics.counts) =
  { multicasts = c.multicasts;
    multicast_bits = c.multicast_bits;
    unicasts = c.unicasts;
    unicast_bits = c.unicast_bits;
    removals = c.removals;
    injections = c.injections;
    corruptions = c.corruptions;
    halts }

let zero = with_halts 0 (Metrics.totals (Metrics.create ~n:0))

let sorted_bindings table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The fold's rows plus one for every key that only saw halts. *)
let rows folded halts =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (key, c) ->
      let h = Option.value ~default:0 (Hashtbl.find_opt halts key) in
      Hashtbl.replace table key (with_halts h c))
    folded;
  Hashtbl.iter
    (fun key h ->
      if not (Hashtbl.mem table key) then
        Hashtbl.replace table key { zero with halts = h })
    halts;
  sorted_bindings table

let of_events ?rounds events =
  let events =
    match rounds with
    | None -> events
    | Some (lo, hi) ->
        if lo > hi then invalid_arg "Report.of_events: empty rounds window";
        List.filter
          (fun e ->
            let r = Trace.round_of e in
            lo <= r && r <= hi)
          events
  in
  (* [n] scales only the classical totals, which a report does not show. *)
  let metrics = Metrics.of_events ~n:0 events in
  let multicast_sizes = Bastats.Histogram.create ()
  and unicast_sizes = Bastats.Histogram.create () in
  let halts_by_round = Hashtbl.create 16
  and halts_by_node = Hashtbl.create 64 in
  let bump table key =
    Hashtbl.replace table key
      (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  List.iter
    (function
      | Trace.Sent { multicast; bits; _ } | Trace.Removed { multicast; bits; _ }
        ->
          Bastats.Histogram.add
            (if multicast then multicast_sizes else unicast_sizes)
            bits
      | Trace.Halted { round; node; output = _ } ->
          bump halts_by_round round;
          bump halts_by_node node
      | Trace.Round_started _ | Trace.Injected _ | Trace.Corrupted _ -> ())
    events;
  { event_count = List.length events;
    totals =
      with_halts
        (Hashtbl.fold (fun _ h acc -> acc + h) halts_by_round 0)
        (Metrics.totals metrics);
    per_round = rows (Metrics.by_round metrics) halts_by_round;
    per_node = rows (Metrics.by_node metrics) halts_by_node;
    multicast_sizes;
    unicast_sizes }

(* ---------- accessors --------------------------------------------------- *)

let event_count t = t.event_count

let totals t = t.totals

let rounds t = t.per_round

let nodes t = t.per_node

let top_talkers ?(k = 10) t =
  let by_load (i1, c1) (i2, c2) =
    (* Heaviest multicast bit-load first (the paper's figure of merit),
       unicast bits then node id as tie-breaks. *)
    match Int.compare c2.multicast_bits c1.multicast_bits with
    | 0 -> (
        match Int.compare c2.unicast_bits c1.unicast_bits with
        | 0 -> Int.compare i1 i2
        | c -> c)
    | c -> c
  in
  List.filteri (fun i _ -> i < k) (List.sort by_load (nodes t))

let size_summary histogram =
  match
    List.concat_map
      (fun (v, c) -> List.init c (fun _ -> v))
      (Bastats.Histogram.bins histogram)
  with
  | [] -> None
  | samples -> Some (Bastats.Summary.of_ints samples)

let multicast_size_summary t = size_summary t.multicast_sizes

let unicast_size_summary t = size_summary t.unicast_sizes

(* ---------- exporters --------------------------------------------------- *)

let counts_cells c =
  [ string_of_int c.multicasts;
    string_of_int c.multicast_bits;
    string_of_int c.unicasts;
    string_of_int c.unicast_bits;
    string_of_int c.removals;
    string_of_int c.injections;
    string_of_int c.corruptions;
    string_of_int c.halts ]

let counts_columns =
  [ "multicasts"; "multicast_bits"; "unicasts"; "unicast_bits"; "removals";
    "injections"; "corruptions"; "halts" ]

let round_table t =
  let table =
    Bastats.Table.create ~title:"Per-round timeline"
      ~columns:("round" :: counts_columns)
  in
  List.iter
    (fun (round, c) ->
      Bastats.Table.add_row table (string_of_int round :: counts_cells c))
    (rounds t);
  Bastats.Table.add_row table ("total" :: counts_cells t.totals);
  table

let talkers_table ?k t =
  let table =
    Bastats.Table.create ~title:"Top talkers (by multicast bits)"
      ~columns:("node" :: counts_columns)
  in
  List.iter
    (fun (node, c) ->
      Bastats.Table.add_row table (string_of_int node :: counts_cells c))
    (top_talkers ?k t);
  table

let sizes_table t =
  let table =
    Bastats.Table.create ~title:"Message sizes (bits)"
      ~columns:[ "kind"; "count"; "mean"; "min"; "p50"; "p95"; "p99"; "max" ]
  in
  let row kind summary =
    match summary with
    | None -> ()
    | Some (s : Bastats.Summary.t) ->
        Bastats.Table.add_row table
          [ kind;
            string_of_int s.Bastats.Summary.count;
            Bastats.Table.fmt_float s.Bastats.Summary.mean;
            Bastats.Table.fmt_float s.Bastats.Summary.min;
            Bastats.Table.fmt_float s.Bastats.Summary.p50;
            Bastats.Table.fmt_float s.Bastats.Summary.p95;
            Bastats.Table.fmt_float s.Bastats.Summary.p99;
            Bastats.Table.fmt_float s.Bastats.Summary.max ]
  in
  row "multicast" (multicast_size_summary t);
  row "unicast" (unicast_size_summary t);
  table

let to_text ?k t =
  String.concat "\n"
    [ Printf.sprintf "events: %d" (event_count t);
      Bastats.Table.render (round_table t);
      Bastats.Table.render (talkers_table ?k t);
      Bastats.Table.render (sizes_table t) ]

let counts_json c =
  Baobs.Json.Obj
    (List.map2
       (fun name cell -> (name, Baobs.Json.Int (int_of_string cell)))
       counts_columns (counts_cells c))

let summary_json = function
  | None -> Baobs.Json.Null
  | Some (s : Bastats.Summary.t) ->
      Baobs.Json.Obj
        [ ("count", Baobs.Json.Int s.Bastats.Summary.count);
          ("mean", Baobs.Json.Float s.Bastats.Summary.mean);
          ("min", Baobs.Json.Float s.Bastats.Summary.min);
          ("p50", Baobs.Json.Float s.Bastats.Summary.p50);
          ("p95", Baobs.Json.Float s.Bastats.Summary.p95);
          ("p99", Baobs.Json.Float s.Bastats.Summary.p99);
          ("max", Baobs.Json.Float s.Bastats.Summary.max) ]

let to_json ?k t =
  let keyed name bindings =
    Baobs.Json.List
      (List.map
         (fun (key, c) ->
           match counts_json c with
           | Baobs.Json.Obj fields ->
               Baobs.Json.Obj ((name, Baobs.Json.Int key) :: fields)
           | Baobs.Json.Null | Baobs.Json.Bool _ | Baobs.Json.Int _
           | Baobs.Json.Float _ | Baobs.Json.String _ | Baobs.Json.List _ ->
               assert false)
         bindings)
  in
  Baobs.Json.Obj
    [ ("schema", Baobs.Json.String "ba-report/v1");
      ("events", Baobs.Json.Int (event_count t));
      ("totals", counts_json t.totals);
      ("rounds", keyed "round" (rounds t));
      ("nodes", keyed "node" (nodes t));
      ("top_talkers", keyed "node" (top_talkers ?k t));
      ( "sizes",
        Baobs.Json.Obj
          [ ("multicast", summary_json (multicast_size_summary t));
            ("unicast", summary_json (unicast_size_summary t)) ] ) ]
