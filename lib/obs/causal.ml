(* Happens-before reconstruction. The synchronous engine's semantics
   pin causality exactly: a send in round r is delivered at the start
   of round r+1, and a node's round-r behaviour is a function of its
   own round-(r-1) state plus everything delivered to it at r. The DAG
   is therefore round-stratified by construction — states (node, round)
   on a grid, memory edges (i,r)->(i,r+1), delivery edges
   (src,r)->(dst,r+1) — which makes every analysis here a linear pass:
   backward cones by BFS, taint by one forward sweep, critical paths by
   DP over rounds.

   Definition-7 removals are *severed* edges: accounted for the sender,
   absent from cones (no information flowed), and a taint source for
   the would-be recipients (the adversary chose the absence). *)

open Basim

type dst = D_all | D_targets of int list

type status = S_delivered | S_severed | S_injected

type msg = {
  m_round : int;  (* send round; delivery round is m_round + 1 *)
  m_src : int;
  m_dst : dst;
  m_status : status;
  m_approx : bool;  (* recipient set over-approximated (legacy trace) *)
}

type decision = {
  d_node : int;
  d_round : int;
  d_output : bool option;
  d_cone_states : int;
  d_tainted_states : int;
  d_critical_path : int;
}

type flow = {
  f_round : int;
  f_kind : string;
  f_multicasts : int;
  f_multicast_bits : int;
  f_unicasts : int;
  f_unicast_bits : int;
  f_removals : int;
  f_injections : int;
  f_injection_bits : int;
}

type summary = {
  s_n : int;
  s_rounds : int;
  s_delivered : int;
  s_severed : int;
  s_injected : int;
  s_approx : int;
  s_states : int;
  s_edges : int;
  s_decisions : decision list;
  s_flows : flow list;
}

type t = {
  c_n : int;
  c_rounds : int;  (* state grid spans rounds 0 .. c_rounds - 1 *)
  msgs : msg list;  (* trace order *)
  edges : int;
  c_decisions : decision list;
  c_flows : flow list;
}

(* ---------- construction ------------------------------------------------ *)

(* Recipient resolution for a message-bearing event. With causal
   recording the engine wrote the explicit target list (or the event is
   a multicast); legacy traces only kept the recipient *count*, so a
   targeted send with 0 < recipients < n must be over-approximated as
   reaching everyone — cones and taint become upper bounds, flagged via
   [m_approx]. *)
let resolve_dst ~n ~multicast ~recipients ~targets =
  if multicast then (D_all, false)
  else
    match targets with
    | _ :: _ -> (D_targets targets, false)
    | [] ->
        if recipients <= 0 then (D_targets [], false)
        else if recipients >= n then (D_all, false)
        else (D_all, true)

(* The smallest node count an event's ids and recipient count fit. *)
let node_bound = function
  | Trace.Round_started _ -> 0
  | Trace.Sent { node; multicast; recipients; targets; _ } ->
      let t = List.fold_left (fun a j -> max a (j + 1)) 0 targets in
      max (node + 1) (max t (if multicast then recipients else 0))
  | Trace.Removed { victim; multicast; recipients; targets; _ } ->
      let t = List.fold_left (fun a j -> max a (j + 1)) 0 targets in
      max (victim + 1) (max t (if multicast then recipients else 0))
  | Trace.Injected { src; recipients; targets; _ } ->
      let t = List.fold_left (fun a j -> max a (j + 1)) 0 targets in
      max (src + 1) (max t recipients)
  | Trace.Corrupted { node; _ } -> node + 1
  | Trace.Halted { node; _ } -> node + 1

let infer_n events =
  List.fold_left (fun acc e -> max acc (node_bound e)) 1 events

let reject e what =
  raise
    (Baobs.Json.Parse_error
       (Printf.sprintf "Causal.of_events: %s in %s" what
          (Baobs.Json.to_string (Trace.to_json e))))

(* Every id must name a state on the grid: a message in a negative round,
   or a node, victim, src, target or halted id outside [0, n), would
   read or write another state's cell. *)
let validate ~n events =
  List.iter
    (fun e ->
      let on_grid field id =
        if id < 0 || id >= n then
          reject e (Printf.sprintf "%s %d outside [0, %d)" field id n)
      in
      let message ~round field src targets =
        if round < 0 then reject e (Printf.sprintf "round %d below 0" round);
        on_grid field src;
        List.iter (on_grid "target") targets
      in
      match e with
      | Trace.Sent { round; node; targets; _ } ->
          message ~round "node" node targets
      | Trace.Removed { round; victim; targets; _ } ->
          message ~round "victim" victim targets
      | Trace.Injected { round; src; targets; _ } ->
          message ~round "src" src targets
      | Trace.Corrupted { node; _ } | Trace.Halted { node; _ } ->
          on_grid "node" node
      | Trace.Round_started _ -> ())
    events

(* The analyses keep a few arrays of n × rounds cells, and both factors
   are read off the input, so the grid is capped rather than sized by
   whatever a trace claims. 2²⁶ states covers 10⁶ nodes over 64 rounds. *)
let max_states = 1 lsl 26

let check_grid ~n events =
  (* a grid through round [r] holds [n * (r + 1)] states; compared
     without forming the product, which could overflow *)
  let past_cap r = r >= max_states / n in
  if past_cap 0 then begin
    let what =
      Printf.sprintf "%d nodes exceed the %d-state grid cap" n max_states
    in
    match List.find_opt (fun e -> node_bound e = n) events with
    | Some e -> reject e what
    | None -> raise (Baobs.Json.Parse_error ("Causal.of_events: " ^ what))
  end;
  List.iter
    (fun e ->
      let r = Trace.round_of e in
      if past_cap r then
        reject e
          (Printf.sprintf "round %d of %d nodes exceeds the %d-state grid cap"
             r n max_states))
    events

let iter_targets ~n m f =
  match m.m_dst with
  | D_all ->
      for j = 0 to n - 1 do
        f j
      done
  | D_targets ts -> List.iter f ts

let of_events ?n events =
  let n =
    match n with
    | Some n when n < 1 ->
        invalid_arg (Printf.sprintf "Causal.of_events: n = %d is below 1" n)
    | Some n -> n
    | None -> infer_n events
  in
  validate ~n events;
  check_grid ~n events;
  let max_round =
    List.fold_left (fun acc e -> max acc (Trace.round_of e)) (-1) events
  in
  let rounds = max_round + 1 in
  let states = n * rounds in
  let state r i = (r * n) + i in
  let msgs =
    List.filter_map
      (fun e ->
        match e with
        | Trace.Sent { round; node; multicast; recipients; targets; _ } ->
            let m_dst, m_approx =
              resolve_dst ~n ~multicast ~recipients ~targets
            in
            Some
              { m_round = round; m_src = node; m_dst; m_status = S_delivered;
                m_approx }
        | Trace.Removed { round; victim; multicast; recipients; targets; _ }
          ->
            let m_dst, m_approx =
              resolve_dst ~n ~multicast ~recipients ~targets
            in
            Some
              { m_round = round; m_src = victim; m_dst; m_status = S_severed;
                m_approx }
        | Trace.Injected { round; src; recipients; targets; _ } ->
            let multicast = targets = [] && recipients >= n in
            let m_dst, m_approx =
              resolve_dst ~n ~multicast ~recipients ~targets
            in
            Some
              { m_round = round; m_src = src; m_dst; m_status = S_injected;
                m_approx }
        | Trace.Round_started _ | Trace.Corrupted _ | Trace.Halted _ -> None)
      events
  in
  (* Delivery adjacency: per state, the source nodes of the messages
     delivered there. Senders in the final round have no consumer. *)
  let in_srcs = Array.make (max states 1) [] in
  let edges = ref 0 in
  List.iter
    (fun m ->
      match m.m_status with
      | S_severed -> ()
      | S_delivered | S_injected ->
          let r = m.m_round + 1 in
          if r < rounds then
            iter_targets ~n m (fun j ->
                in_srcs.(state r j) <- m.m_src :: in_srcs.(state r j);
                incr edges))
    msgs;
  (* Taint: one forward sweep. Corruption of node i in round r taints
     i's states from r+1 on (round-r intents were computed honestly;
     setup corruption r = -1 taints from round 0); injections and
     severed sends taint their (would-be) recipients at the delivery
     round; delivered messages propagate the sender's taint. *)
  let corrupt_from = Array.make n max_int in
  List.iter
    (fun e ->
      match e with
      | Trace.Corrupted { round; node } ->
          corrupt_from.(node) <- min corrupt_from.(node) (max 0 (round + 1))
      | Trace.Removed _ | Trace.Injected _ | Trace.Round_started _
      | Trace.Sent _ | Trace.Halted _ -> ())
    events;
  let by_send_round = Array.make (max rounds 1) [] in
  List.iter
    (fun m ->
      if m.m_round >= 0 && m.m_round < rounds then
        by_send_round.(m.m_round) <- m :: by_send_round.(m.m_round))
    msgs;
  let tainted = Array.make (max states 1) false in
  for r = 0 to rounds - 1 do
    for i = 0 to n - 1 do
      if
        corrupt_from.(i) <= r || (r > 0 && tainted.(state (r - 1) i))
      then tainted.(state r i) <- true
    done;
    if r > 0 then
      List.iter
        (fun m ->
          let source_tainted =
            match m.m_status with
            | S_injected | S_severed -> true
            | S_delivered -> tainted.(state (r - 1) m.m_src)
          in
          if source_tainted then
            iter_targets ~n m (fun j -> tainted.(state r j) <- true))
        by_send_round.(r - 1)
  done;
  (* Critical path: longest delivery-edge chain into each state. *)
  let depth = Array.make (max states 1) 0 in
  for r = 1 to rounds - 1 do
    for i = 0 to n - 1 do
      let d =
        List.fold_left
          (fun acc src -> max acc (depth.(state (r - 1) src) + 1))
          depth.(state (r - 1) i)
          in_srcs.(state r i)
      in
      depth.(state r i) <- d
    done
  done;
  (* Backward cones, one BFS per decision. The [mark] stamp array makes
     re-use O(1) — no clearing between decisions. *)
  let mark = Array.make (max states 1) (-1) in
  let cone_of stamp node round =
    let cone = ref 0 and cone_tainted = ref 0 in
    let stack = ref [ state round node ] in
    mark.(state round node) <- stamp;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | s :: rest ->
          stack := rest;
          incr cone;
          if tainted.(s) then incr cone_tainted;
          let r = s / n and i = s mod n in
          if r > 0 then begin
            let visit j =
              let s' = state (r - 1) j in
              if mark.(s') <> stamp then begin
                mark.(s') <- stamp;
                stack := s' :: !stack
              end
            in
            visit i;
            List.iter visit in_srcs.(s)
          end
    done;
    (!cone, !cone_tainted)
  in
  let decisions =
    List.filter_map
      (fun e ->
        match e with
        | Trace.Halted { round; node; output } when round >= 0 && round < rounds
          ->
            Some (round, node, output)
        | Trace.Halted _ | Trace.Round_started _ | Trace.Sent _
        | Trace.Corrupted _ | Trace.Removed _ | Trace.Injected _ -> None)
      events
    |> List.sort (fun (r1, n1, _) (r2, n2, _) ->
           match Int.compare r1 r2 with 0 -> Int.compare n1 n2 | c -> c)
    |> List.mapi (fun stamp (round, node, output) ->
           let cone, cone_tainted = cone_of stamp node round in
           { d_node = node;
             d_round = round;
             d_output = output;
             d_cone_states = cone;
             d_tainted_states = cone_tainted;
             d_critical_path = depth.(state round node) })
  in
  (* Per-kind × per-round flow matrix: the per-round rows of one
     [Metrics.observe] fold per kind label, so severed sends count
     toward the sender's multicast/unicast totals and as removals,
     exactly as the engine accounts them. *)
  let folds = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e with
      | Trace.Sent { kind; _ } | Trace.Removed { kind; _ }
      | Trace.Injected { kind; _ } ->
          let fold =
            match Hashtbl.find_opt folds kind with
            | Some fold -> fold
            | None ->
                let fold = Metrics.create ~n in
                Hashtbl.add folds kind fold;
                fold
          in
          Metrics.observe fold e
      | Trace.Round_started _ | Trace.Corrupted _ | Trace.Halted _ -> ())
    events;
  let flows =
    Hashtbl.fold
      (fun kind fold acc ->
        List.map
          (fun (round, (c : Metrics.counts)) ->
            { f_round = round;
              f_kind = kind;
              f_multicasts = c.multicasts;
              f_multicast_bits = c.multicast_bits;
              f_unicasts = c.unicasts;
              f_unicast_bits = c.unicast_bits;
              f_removals = c.removals;
              f_injections = c.injections;
              f_injection_bits = c.injection_bits })
          (Metrics.by_round fold)
        @ acc)
      folds []
    |> List.sort (fun a b ->
           match Int.compare a.f_round b.f_round with
           | 0 -> String.compare a.f_kind b.f_kind
           | c -> c)
  in
  { c_n = n;
    c_rounds = rounds;
    msgs;
    edges = !edges;
    c_decisions = decisions;
    c_flows = flows }

(* ---------- accessors --------------------------------------------------- *)

let n t = t.c_n

let rounds t = t.c_rounds

let decisions t = t.c_decisions

let flows t = t.c_flows

let count_status t status =
  List.length (List.filter (fun m -> m.m_status = status) t.msgs)

let approx_messages t =
  List.length (List.filter (fun m -> m.m_approx) t.msgs)

let summary t =
  { s_n = t.c_n;
    s_rounds = t.c_rounds;
    s_delivered = count_status t S_delivered;
    s_severed = count_status t S_severed;
    s_injected = count_status t S_injected;
    s_approx = approx_messages t;
    s_states = t.c_n * t.c_rounds;
    s_edges = t.edges;
    s_decisions = t.c_decisions;
    s_flows = t.c_flows }

let taint_fraction d =
  if d.d_cone_states = 0 then 0.
  else float_of_int d.d_tainted_states /. float_of_int d.d_cone_states

(* ---------- renderings -------------------------------------------------- *)

let kind_label kind = if kind = Trace.no_kind then "?" else kind

let to_text ?(top = 10) t =
  let s = summary t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "nodes: %d  rounds: %d  states: %d  delivery edges: %d\n"
       s.s_n s.s_rounds s.s_states s.s_edges);
  Buffer.add_string buf
    (Printf.sprintf "messages: %d delivered, %d severed, %d injected\n"
       s.s_delivered s.s_severed s.s_injected);
  if s.s_approx > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "warning: %d targeted messages lack recipient lists (legacy \
          trace); cones and taint are upper bounds\n"
         s.s_approx);
  let dec_table =
    Bastats.Table.create ~title:"Decisions (highest tainted fraction first)"
      ~columns:
        [ "node"; "round"; "output"; "cone"; "tainted"; "taint"; "crit-path" ]
  in
  let by_taint a b =
    match Float.compare (taint_fraction b) (taint_fraction a) with
    | 0 -> (
        match Int.compare a.d_round b.d_round with
        | 0 -> Int.compare a.d_node b.d_node
        | c -> c)
    | c -> c
  in
  List.sort by_taint s.s_decisions
  |> List.filteri (fun i _ -> i < top)
  |> List.iter (fun d ->
         Bastats.Table.add_row dec_table
           [ string_of_int d.d_node;
             string_of_int d.d_round;
             (match d.d_output with
             | Some true -> "1"
             | Some false -> "0"
             | None -> "-");
             string_of_int d.d_cone_states;
             string_of_int d.d_tainted_states;
             Printf.sprintf "%.3f" (taint_fraction d);
             string_of_int d.d_critical_path ]);
  Buffer.add_string buf (Bastats.Table.render dec_table);
  Buffer.add_char buf '\n';
  let flow_table =
    Bastats.Table.create ~title:"Flow matrix (per round x kind)"
      ~columns:
        [ "round"; "kind"; "multicasts"; "mcast_bits"; "unicasts";
          "ucast_bits"; "removals"; "injections"; "inj_bits" ]
  in
  List.iter
    (fun f ->
      Bastats.Table.add_row flow_table
        [ string_of_int f.f_round;
          kind_label f.f_kind;
          string_of_int f.f_multicasts;
          string_of_int f.f_multicast_bits;
          string_of_int f.f_unicasts;
          string_of_int f.f_unicast_bits;
          string_of_int f.f_removals;
          string_of_int f.f_injections;
          string_of_int f.f_injection_bits ])
    s.s_flows;
  Buffer.add_string buf (Bastats.Table.render flow_table);
  Buffer.contents buf

let decision_to_json d =
  Baobs.Json.Obj
    [ ("node", Baobs.Json.Int d.d_node);
      ("round", Baobs.Json.Int d.d_round);
      ( "output",
        match d.d_output with
        | Some b -> Baobs.Json.Bool b
        | None -> Baobs.Json.Null );
      ("cone_states", Baobs.Json.Int d.d_cone_states);
      ("tainted_states", Baobs.Json.Int d.d_tainted_states);
      ("critical_path", Baobs.Json.Int d.d_critical_path) ]

let flow_to_json f =
  Baobs.Json.Obj
    [ ("round", Baobs.Json.Int f.f_round);
      ("kind", Baobs.Json.String f.f_kind);
      ("multicasts", Baobs.Json.Int f.f_multicasts);
      ("multicast_bits", Baobs.Json.Int f.f_multicast_bits);
      ("unicasts", Baobs.Json.Int f.f_unicasts);
      ("unicast_bits", Baobs.Json.Int f.f_unicast_bits);
      ("removals", Baobs.Json.Int f.f_removals);
      ("injections", Baobs.Json.Int f.f_injections);
      ("injection_bits", Baobs.Json.Int f.f_injection_bits) ]

let to_json t =
  let s = summary t in
  let tainted_decisions =
    List.length (List.filter (fun d -> d.d_tainted_states > 0) s.s_decisions)
  in
  Baobs.Json.Obj
    [ ("schema", Baobs.Json.String "ba-causal/v1");
      ("n", Baobs.Json.Int s.s_n);
      ("rounds", Baobs.Json.Int s.s_rounds);
      ("delivered", Baobs.Json.Int s.s_delivered);
      ("severed", Baobs.Json.Int s.s_severed);
      ("injected", Baobs.Json.Int s.s_injected);
      ("approx", Baobs.Json.Int s.s_approx);
      ("states", Baobs.Json.Int s.s_states);
      ("edges", Baobs.Json.Int s.s_edges);
      (* Derived, for cheap downstream gating (greppable). *)
      ("decision_count", Baobs.Json.Int (List.length s.s_decisions));
      ("tainted_decision_count", Baobs.Json.Int tainted_decisions);
      ("decisions", Baobs.Json.List (List.map decision_to_json s.s_decisions));
      ("flows", Baobs.Json.List (List.map flow_to_json s.s_flows)) ]
