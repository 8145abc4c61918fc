type counts = {
  multicasts : int;
  multicast_bits : int;
  unicasts : int;
  unicast_bits : int;
  removals : int;
  injections : int;
  injection_bits : int;
  corruptions : int;
}

(* Counter indices, in the order of [counts] and of the JSON exports. *)
let c_multicasts = 0
let c_multicast_bits = 1
let c_unicasts = 2
let c_unicast_bits = 3
let c_removals = 4
let c_injections = 5
let c_injection_bits = 6
let c_corruptions = 7
let n_counters = 8

let counter_names =
  [| "multicasts"; "multicast_bits"; "unicasts"; "unicast_bits"; "removals";
     "injections"; "injection_bits"; "corruptions" |]

let counts_of a =
  { multicasts = a.(c_multicasts);
    multicast_bits = a.(c_multicast_bits);
    unicasts = a.(c_unicasts);
    unicast_bits = a.(c_unicast_bits);
    removals = a.(c_removals);
    injections = a.(c_injections);
    injection_bits = a.(c_injection_bits);
    corruptions = a.(c_corruptions) }

(* Int-keyed tables: a node or round id is its own hash. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

(* The store is sparse: a round that was charged holds one node -> count
   table per counter that was charged in it, so committee protocols pay
   for their speakers, not for n × rounds, and any round or node id
   fits. The totals are kept beside the store, so the accessors never
   fold it. *)
type t = {
  n : int;
  totals : int array;
  mutable max_round : int;
  store : int Int_tbl.t option array Int_tbl.t;
}

let create ~n =
  { n;
    totals = Array.make n_counters 0;
    max_round = -1;
    store = Int_tbl.create 16 }

(* The node table of [counter] in [round], created on first use. *)
let table t ~round counter =
  let row =
    match Int_tbl.find t.store round with
    | row -> row
    | exception Not_found ->
        let row = Array.make n_counters None in
        Int_tbl.add t.store round row;
        row
  in
  match row.(counter) with
  | Some tbl -> tbl
  | None ->
      let tbl = Int_tbl.create 16 in
      row.(counter) <- Some tbl;
      tbl

let charge t ~round ~node counter by =
  t.totals.(counter) <- t.totals.(counter) + by;
  let tbl = table t ~round counter in
  match Int_tbl.find_opt tbl node with
  | Some v -> Int_tbl.replace tbl node (v + by)
  | None -> Int_tbl.add tbl node by

let honest_send t ~round ~node ~multicast ~recipients ~bits =
  if multicast then begin
    charge t ~round ~node c_multicasts 1;
    charge t ~round ~node c_multicast_bits bits
  end
  else begin
    charge t ~round ~node c_unicasts recipients;
    charge t ~round ~node c_unicast_bits (recipients * bits)
  end

let observe t = function
  | Trace.Round_started { round } ->
      if round > t.max_round then t.max_round <- round
  | Trace.Sent { round; node; multicast; recipients; bits; _ } ->
      honest_send t ~round ~node ~multicast ~recipients ~bits
  | Trace.Removed { round; victim; multicast; recipients; bits; _ } ->
      honest_send t ~round ~node:victim ~multicast ~recipients ~bits;
      charge t ~round ~node:victim c_removals 1
  | Trace.Injected { round; src; bits; _ } ->
      charge t ~round ~node:src c_injections 1;
      charge t ~round ~node:src c_injection_bits (max 0 bits)
  | Trace.Corrupted { round; node } -> charge t ~round ~node c_corruptions 1
  | Trace.Halted _ -> ()

let of_events ~n events =
  let t = create ~n in
  List.iter (observe t) events;
  t

let honest_multicasts t = t.totals.(c_multicasts)

let honest_multicast_bits t = t.totals.(c_multicast_bits)

let honest_unicasts t = t.totals.(c_unicasts)

let classical_messages t = (honest_multicasts t * t.n) + honest_unicasts t

let classical_bits t =
  (honest_multicast_bits t * t.n) + t.totals.(c_unicast_bits)

let removals t = t.totals.(c_removals)

let injections t = t.totals.(c_injections)

let rounds t = t.max_round + 1

let totals t = counts_of t.totals

let sorted_bindings table =
  Int_tbl.fold (fun key v acc -> (key, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The counter array of [node] in [per_node], created zeroed. *)
let node_counters per_node node =
  match Int_tbl.find per_node node with
  | a -> a
  | exception Not_found ->
      let a = Array.make n_counters 0 in
      Int_tbl.add per_node node a;
      a

(* The charged rounds, ascending, each with its per-node counter arrays,
   nodes ascending. *)
let rows t =
  List.map
    (fun (round, row) ->
      let per_node = Int_tbl.create 16 in
      Array.iteri
        (fun c tbl ->
          Option.iter
            (Int_tbl.iter (fun node v -> (node_counters per_node node).(c) <- v))
            tbl)
        row;
      (round, sorted_bindings per_node))
    (sorted_bindings t.store)

let sum_into acc a = Array.iteri (fun c v -> acc.(c) <- acc.(c) + v) a

let by_round t =
  List.map
    (fun (round, nodes) ->
      let sums = Array.make n_counters 0 in
      List.iter (fun (_, a) -> sum_into sums a) nodes;
      (round, counts_of sums))
    (rows t)

let by_node t =
  let per_node = Int_tbl.create 64 in
  List.iter
    (fun (_, nodes) ->
      List.iter (fun (node, a) -> sum_into (node_counters per_node node) a) nodes)
    (rows t);
  List.map (fun (node, sums) -> (node, counts_of sums)) (sorted_bindings per_node)

let pp fmt t =
  Format.fprintf fmt
    "rounds=%d multicasts=%d (%d bits) unicasts=%d removals=%d injections=%d"
    (rounds t) (honest_multicasts t) (honest_multicast_bits t)
    (honest_unicasts t) (removals t) (injections t)

let to_json t =
  let open Baobs.Json in
  Obj
    [ ("n", Int t.n);
      ("rounds", Int (rounds t));
      ("multicasts", Int (honest_multicasts t));
      ("multicast_bits", Int (honest_multicast_bits t));
      ("unicasts", Int (honest_unicasts t));
      ("unicast_bits", Int t.totals.(c_unicast_bits));
      ("removals", Int (removals t));
      ("injections", Int (injections t));
      ("injection_bits", Int t.totals.(c_injection_bits));
      ("classical_messages", Int (classical_messages t));
      ("classical_bits", Int (classical_bits t)) ]

let series_to_json t =
  let open Baobs.Json in
  let nonzero a =
    List.filter_map
      (fun c ->
        if a.(c) = 0 then None else Some (counter_names.(c), Int a.(c)))
      (List.init n_counters Fun.id)
  in
  let round_json (round, nodes) =
    match
      List.filter_map
        (fun (node, a) ->
          match nonzero a with
          | [] -> None
          | fields -> Some (Obj (("node", Int node) :: fields)))
        nodes
    with
    | [] -> None
    | nodes -> Some (Obj [ ("round", Int round); ("nodes", List nodes) ])
  in
  Obj
    [ ("n", Int t.n);
      ( "totals",
        Obj
          (Array.to_list
             (Array.mapi (fun c v -> (counter_names.(c), Int v)) t.totals)) );
      ("rounds", List (List.filter_map round_json (rows t))) ]
