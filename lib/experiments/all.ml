type entry = {
  id : string;
  claim : string;
  run : ?reps:int -> ?seed:int64 -> unit -> Bastats.Table.t list;
}

let experiments =
  [ { id = "E1";
      claim =
        "Thm 1/4: strongly adaptive (after-the-fact removal) forces Ω(f²) \
         communication";
      run = E1_strong_adaptive.run };
    { id = "E1b";
      claim = "Dolev-Reischuk isolation on a deterministic sparse relay";
      run = E1b_dolev_reischuk.run };
    { id = "E2";
      claim = "Thm 2: polylog multicast complexity, flat in n";
      run = E2_multicast_scaling.run };
    { id = "E3";
      claim = "Cor 16: expected O(1) rounds vs Nakamoto's linear confirmation";
      run = E3_round_complexity.run };
    { id = "E4";
      claim = "resilience thresholds: n/3 (§3) vs (1-ε)n/2 (App. C)";
      run = E4_resilience.run };
    { id = "E5";
      claim = "§3.3 Remark: bit-specific eligibility is necessary";
      run = E5_bit_specific.run };
    { id = "E5b";
      claim = "§3.2: Chen-Micali needs memory erasure; bit-specific tickets don't";
      run = E5b_memory_erasure.run };
    { id = "E6";
      claim = "Thm 3: no sublinear multicast BA without setup";
      run = E6_setup_necessity.run };
    { id = "E7";
      claim = "Lemmas 10-12: committees, good iterations, terminate cascade";
      run = E7_stochastic_lemmas.run };
    { id = "E8";
      claim = "§1: public committees die under adaptive corruption";
      run = E8_takeover.run };
    { id = "E9";
      claim = "App. D/E: the Fmine compiler preserves behaviour";
      run = E9_compiler.run };
    { id = "E10";
      claim = "§1.1: Broadcast from BA preserves communication efficiency";
      run = E10_broadcast.run };
    { id = "E11";
      claim = "Lemmas 10-15: failure rates decay as exp(-Ω(ε²λ))";
      run = E11_lambda_decay.run } ]

let print_entry ?quick entry =
  Printf.printf "\n### %s — %s\n\n" entry.id entry.claim;
  let tables =
    match quick with
    | Some true -> entry.run ~reps:3 ()
    | Some false | None -> entry.run ()
  in
  List.iter
    (fun t ->
      Bastats.Table.print t;
      print_newline ())
    tables;
  tables

let table_to_json t =
  let open Baobs.Json in
  let strings l = List (List.map (fun s -> String s) l) in
  Obj
    [ ("title", String (Bastats.Table.title t));
      ("columns", strings (Bastats.Table.columns t));
      ( "rows",
        List (List.map strings (Bastats.Table.rows t)) );
      ("notes", strings (Bastats.Table.notes t)) ]

let suite_json ~quick entries =
  Baobs.Json.Obj
    [ ("suite", Baobs.Json.String "ba-revisited-experiments");
      ("quick", Baobs.Json.Bool quick);
      ( "experiments",
        Baobs.Json.List
          (List.map
             (fun (entry, tables) ->
               Baobs.Json.Obj
                 [ ("id", Baobs.Json.String entry.id);
                   ("claim", Baobs.Json.String entry.claim);
                   ("tables", Baobs.Json.List (List.map table_to_json tables)) ])
             entries) ) ]

let run_all ?(quick = false) ?json_path () =
  print_endline
    "Communication Complexity of Byzantine Agreement, Revisited — experiment \
     suite";
  let entries =
    List.map (fun entry -> (entry, print_entry ~quick entry)) experiments
  in
  match json_path with
  | Some path -> Baobs.Json.to_file path (suite_json ~quick entries)
  | None -> ()

let run_one ?(quick = false) ?json_path id =
  let target = String.lowercase_ascii id in
  match
    List.find_opt
      (fun e -> String.lowercase_ascii e.id = target)
      experiments
  with
  | Some entry ->
      let tables = print_entry ~quick entry in
      (match json_path with
      | Some path ->
          Baobs.Json.to_file path (suite_json ~quick [ (entry, tables) ])
      | None -> ());
      true
  | None -> false
