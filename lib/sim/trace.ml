type event =
  | Round_started of { round : int }
  | Sent of
      { round : int;
        node : int;
        multicast : bool;
        recipients : int;
        bits : int;
        id : int;
        kind : string;
        targets : int list }
  | Corrupted of { round : int; node : int }
  | Removed of
      { round : int;
        victim : int;
        multicast : bool;
        recipients : int;
        bits : int;
        id : int;
        kind : string;
        targets : int list }
  | Injected of
      { round : int;
        src : int;
        recipients : int;
        bits : int;
        id : int;
        kind : string;
        targets : int list }
  | Halted of { round : int; node : int; output : bool option }

let no_id = -1

let no_kind = ""

let pp_kind fmt kind =
  if kind <> no_kind then Format.fprintf fmt " [%s]" kind

let pp_event fmt = function
  | Round_started { round } -> Format.fprintf fmt "-- round %d --" round
  | Sent { node; multicast; recipients; bits; kind; _ } ->
      if multicast then
        Format.fprintf fmt "node %d multicasts%a (%d bits)" node pp_kind kind
          bits
      else
        Format.fprintf fmt "node %d sends%a to %d nodes (%d bits)" node pp_kind
          kind recipients bits
  | Corrupted { round; node } ->
      if round < 0 then Format.fprintf fmt "node %d corrupted at setup" node
      else Format.fprintf fmt "node %d corrupted" node
  | Removed { victim; multicast; recipients; bits; kind; _ } ->
      Format.fprintf fmt
        "a %s%a of node %d to %d nodes (%d bits) erased after the fact"
        (if multicast then "multicast" else "message")
        pp_kind kind victim recipients bits
  | Injected { src; recipients; kind; _ } ->
      Format.fprintf fmt "adversary sends%a as node %d to %d nodes" pp_kind
        kind src recipients
  | Halted { node; output; _ } ->
      Format.fprintf fmt "node %d halts with output %s" node
        (match output with
        | Some true -> "1"
        | Some false -> "0"
        | None -> "none")

let round_of = function
  | Round_started { round }
  | Sent { round; _ }
  | Corrupted { round; _ }
  | Removed { round; _ }
  | Injected { round; _ }
  | Halted { round; _ } ->
      round

let kind_of = function
  | Round_started _ -> "round_started"
  | Sent _ -> "sent"
  | Corrupted _ -> "corrupted"
  | Removed _ -> "removed"
  | Injected _ -> "injected"
  | Halted _ -> "halted"

let message_id = function
  | Sent { id; _ } | Removed { id; _ } | Injected { id; _ } -> Some id
  | Round_started _ | Corrupted _ | Halted _ -> None

(* Causal fields are appended only when present, so a run without causal
   recording serializes byte-identically to the legacy (pre-causal)
   format — the contract test/test_obs.ml's [recording off is
   byte-identical] case pins. *)
let causal_fields ~id ~kind ~targets =
  let open Baobs.Json in
  (if id = no_id then [] else [ ("id", Int id) ])
  @ (if kind = no_kind then [] else [ ("kind", String kind) ])
  @
  match targets with
  | [] -> []
  | ts -> [ ("targets", List (List.map (fun t -> Int t) ts)) ]

let to_json event =
  let open Baobs.Json in
  let tagged fields = Obj (("event", String (kind_of event)) :: fields) in
  match event with
  | Round_started { round } -> tagged [ ("round", Int round) ]
  | Sent { round; node; multicast; recipients; bits; id; kind; targets } ->
      tagged
        ([ ("round", Int round);
           ("node", Int node);
           ("multicast", Bool multicast);
           ("recipients", Int recipients);
           ("bits", Int bits) ]
        @ causal_fields ~id ~kind ~targets)
  | Corrupted { round; node } ->
      tagged [ ("round", Int round); ("node", Int node) ]
  | Removed { round; victim; multicast; recipients; bits; id; kind; targets }
    ->
      tagged
        ([ ("round", Int round);
           ("victim", Int victim);
           ("multicast", Bool multicast);
           ("recipients", Int recipients);
           ("bits", Int bits) ]
        @ causal_fields ~id ~kind ~targets)
  | Injected { round; src; recipients; bits; id; kind; targets } ->
      tagged
        ([ ("round", Int round);
           ("src", Int src);
           ("recipients", Int recipients) ]
        @ (if bits < 0 then [] else [ ("bits", Baobs.Json.Int bits) ])
        @ causal_fields ~id ~kind ~targets)
  | Halted { round; node; output } ->
      tagged
        [ ("round", Int round);
          ("node", Int node);
          ( "output",
            match output with Some b -> Bool b | None -> Null ) ]

let of_json json =
  let open Baobs.Json in
  let fail msg = raise (Parse_error ("Trace.of_json: " ^ msg)) in
  let int k = as_int (member_exn k json) in
  let bool k = as_bool (member_exn k json) in
  (* recipient and bit counts are sizes: a negative one would subtract
     from every total an analysis folds *)
  let size k v =
    if v < 0 then fail (Printf.sprintf "%s %d below 0" k v);
    v
  in
  let count k = size k (int k) in
  (* Legacy traces predate the causal fields; default them to the
     "unlabeled" sentinels so old [--trace-jsonl] artifacts re-parse. *)
  let id = match member "id" json with Some j -> as_int j | None -> no_id in
  let kind =
    match member "kind" json with Some j -> as_string j | None -> no_kind
  in
  let targets =
    match member "targets" json with
    | Some j -> List.map as_int (as_list j)
    | None -> []
  in
  match as_string (member_exn "event" json) with
  | "round_started" -> Round_started { round = int "round" }
  | "sent" ->
      Sent
        { round = int "round";
          node = int "node";
          multicast = bool "multicast";
          recipients = count "recipients";
          bits = count "bits";
          id;
          kind;
          targets }
  | "corrupted" -> Corrupted { round = int "round"; node = int "node" }
  | "removed" ->
      Removed
        { round = int "round";
          victim = int "victim";
          multicast = bool "multicast";
          recipients = count "recipients";
          bits = count "bits";
          id;
          kind;
          targets }
  | "injected" ->
      Injected
        { round = int "round";
          src = int "src";
          recipients = count "recipients";
          bits =
            (match member "bits" json with
            | Some j -> size "bits" (as_int j)
            | None -> -1);
          id;
          kind;
          targets }
  | "halted" ->
      Halted
        { round = int "round";
          node = int "node";
          output =
            (match member_exn "output" json with
            | Null -> None
            | Bool b -> Some b
            | Int _ | Float _ | String _ | List _ | Obj _ ->
                fail "halted output must be a bool or null") }
  | kind -> fail (Printf.sprintf "unknown event kind %S" kind)

let of_jsonl_string text =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else Some (of_json (Baobs.Json.of_string line)))
    (String.split_on_char '\n' text)

(* ---------- collectors -------------------------------------------------- *)

type collector = {
  mutable rev_events : event list;
  mutable total : int;
  mutable cache : event list option;
      (* memoized [List.rev rev_events]; invalidated on observe so k
         queries over an m-event trace cost one reversal, not k *)
}

let collector () = { rev_events = []; total = 0; cache = None }

let observe c event =
  c.rev_events <- event :: c.rev_events;
  c.total <- c.total + 1;
  c.cache <- None

let events c =
  match c.cache with
  | Some evs -> evs
  | None ->
      let evs = List.rev c.rev_events in
      c.cache <- Some evs;
      evs

let length c = c.total

(* Counting is order-independent: fold the raw reversed list without
   materializing anything. *)
let count c p =
  List.fold_left (fun acc e -> if p e then acc + 1 else acc) 0 c.rev_events

(* ---------- sinks ------------------------------------------------------- *)

let jsonl_tracer sink e = Baobs.Jsonl.emit sink (to_json e)

let render ?(max_rounds = 30) c =
  let buf = Buffer.create 1024 in
  let skipped = ref 0 in
  List.iter
    (fun e ->
      if round_of e < max_rounds then
        Buffer.add_string buf (Format.asprintf "%a\n" pp_event e)
      else incr skipped)
    (events c);
  if !skipped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "... %d further events beyond round %d elided\n" !skipped
         max_rounds);
  Buffer.contents buf
