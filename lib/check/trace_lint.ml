open Basim

type kind =
  | Non_monotonic_round
  | Round_mismatch
  | Static_midround_corruption
  | Over_budget
  | Removal_without_model
  | Removal_of_uncorrupted
  | Sent_while_corrupt
  | Injection_from_honest
  | Event_after_halt
  | Accounting_mismatch

type finding = {
  kind : kind;
  round : int;
  node : int option;
  detail : string;
}

let kind_name = function
  | Non_monotonic_round -> "non-monotonic-round"
  | Round_mismatch -> "round-mismatch"
  | Static_midround_corruption -> "static-midround-corruption"
  | Over_budget -> "over-budget"
  | Removal_without_model -> "removal-without-model"
  | Removal_of_uncorrupted -> "removal-of-uncorrupted"
  | Sent_while_corrupt -> "sent-while-corrupt"
  | Injection_from_honest -> "injection-from-honest"
  | Event_after_halt -> "event-after-halt"
  | Accounting_mismatch -> "accounting-mismatch"

let pp_finding fmt f =
  Format.fprintf fmt "[%s] round %d%s: %s" (kind_name f.kind) f.round
    (match f.node with
    | Some i -> Printf.sprintf " node %d" i
    | None -> "")
    f.detail

let findings_to_json findings =
  Baobs.Json.List
    (List.map
       (fun f ->
         Baobs.Json.Obj
           [ ("kind", Baobs.Json.String (kind_name f.kind));
             ("round", Baobs.Json.Int f.round);
             ( "node",
               match f.node with
               | Some i -> Baobs.Json.Int i
               | None -> Baobs.Json.Null );
             ("detail", Baobs.Json.String f.detail) ])
       findings)

(* Verification walks the stream once, tracking who is corrupt (and
   since when), who halted (and when) and the round in progress. *)
type state = {
  mutable current : int;  (* round in progress; -1 = pre-execution *)
  mutable started : bool;  (* a Round_started has been seen *)
  corrupt : (int, int) Hashtbl.t;  (* node -> corruption round *)
  halted : (int, int) Hashtbl.t;  (* node -> halt round *)
  mutable corruptions : int;  (* distinct corrupted nodes *)
  mutable findings : finding list;  (* reversed *)
}

let report st kind ~round ~node detail =
  st.findings <- { kind; round; node; detail } :: st.findings

let check_event_round st ~round ~node detail =
  if round <> st.current then
    report st Round_mismatch ~round ~node
      (Printf.sprintf "%s carries round %d while round %d is in progress"
         detail round st.current)

let check_send st ~round ~node ~label =
  (match Hashtbl.find_opt st.corrupt node with
  | Some rc when rc < round ->
      report st Sent_while_corrupt ~round ~node:(Some node)
        (Printf.sprintf
           "%s by node %d, corrupt since round %d — corrupt traffic must be \
            Injected"
           label node rc)
  | Some _ | None -> ());
  match Hashtbl.find_opt st.halted node with
  | Some rh when rh < round ->
      report st Event_after_halt ~round ~node:(Some node)
        (Printf.sprintf "%s by node %d, halted in round %d" label node rh)
  | Some _ | None -> ()

let observe st ~model ~budget event =
  match event with
  | Trace.Round_started { round } ->
      if round <= st.current then
        report st Non_monotonic_round ~round ~node:None
          (Printf.sprintf "round %d started after round %d" round st.current);
      st.current <- round;
      st.started <- true
  | Trace.Corrupted { round; node } ->
      if round = -1 then begin
        if st.started then
          report st Round_mismatch ~round ~node:(Some node)
            "setup-time corruption after the execution started"
      end
      else begin
        check_event_round st ~round ~node:(Some node) "corruption";
        if not (Corruption.allows_dynamic_corruption model) then
          report st Static_midround_corruption ~round ~node:(Some node)
            (Printf.sprintf
               "node %d corrupted mid-execution under the %s model" node
               (Corruption.to_string model))
      end;
      if not (Hashtbl.mem st.corrupt node) then begin
        Hashtbl.replace st.corrupt node round;
        st.corruptions <- st.corruptions + 1;
        if st.corruptions > budget then
          report st Over_budget ~round ~node:(Some node)
            (Printf.sprintf "%d nodes corrupted, budget is %d" st.corruptions
               budget)
      end
  | Trace.Removed { round; victim; _ } ->
      check_event_round st ~round ~node:(Some victim) "removal";
      if not (Corruption.allows_removal model) then
        report st Removal_without_model ~round ~node:(Some victim)
          (Printf.sprintf
             "after-the-fact removal under the %s model (strongly adaptive \
              only)"
             (Corruption.to_string model));
      (match Hashtbl.find_opt st.corrupt victim with
      | Some rc when rc = round -> ()
      | Some rc ->
          report st Removal_of_uncorrupted ~round ~node:(Some victim)
            (Printf.sprintf
               "victim %d was corrupted in round %d, not in the removal round"
               victim rc)
      | None ->
          report st Removal_of_uncorrupted ~round ~node:(Some victim)
            (Printf.sprintf "victim %d is honest" victim))
  | Trace.Sent { round; node; _ } ->
      check_event_round st ~round ~node:(Some node) "send";
      check_send st ~round ~node ~label:"send"
  | Trace.Injected { round; src; _ } ->
      check_event_round st ~round ~node:(Some src) "injection";
      (match Hashtbl.find_opt st.corrupt src with
      | Some rc when rc <= round -> ()
      | Some rc ->
          report st Injection_from_honest ~round ~node:(Some src)
            (Printf.sprintf
               "injection from node %d before its corruption in round %d" src
               rc)
      | None ->
          report st Injection_from_honest ~round ~node:(Some src)
            (Printf.sprintf "injection from honest node %d" src))
  | Trace.Halted { round; node; output = _ } ->
      check_event_round st ~round ~node:(Some node) "halt";
      (match Hashtbl.find_opt st.halted node with
      | Some rh ->
          report st Event_after_halt ~round ~node:(Some node)
            (Printf.sprintf "node %d halted again (first halt in round %d)"
               node rh)
      | None -> Hashtbl.replace st.halted node round)

(* The trace's [Metrics.observe] fold against the run's metrics: every
   total, and the rounds. An unlabeled trace records no injection sizes
   (bits -1), so its fold charges 0 where the run charged the wire size;
   injection bits are compared only when every injection carries its
   size. *)
let check_metrics st events metrics =
  (* [n] scales only the classical totals, which are not compared. *)
  let folded = Metrics.of_events ~n:0 events in
  let expect label got want =
    if got <> want then
      report st Accounting_mismatch ~round:st.current ~node:None
        (Printf.sprintf "%s: trace reconstructs %d, metrics say %d" label got
           want)
  in
  let got = Metrics.totals folded and want = Metrics.totals metrics in
  expect "honest multicasts (sent + removed)" got.multicasts want.multicasts;
  expect "multicast bits (Definition 7)" got.multicast_bits want.multicast_bits;
  expect "honest unicasts" got.unicasts want.unicasts;
  expect "unicast bits" got.unicast_bits want.unicast_bits;
  expect "removals" got.removals want.removals;
  expect "injections" got.injections want.injections;
  if
    not
      (List.exists
         (function
           | Trace.Injected { bits; _ } -> bits < 0
           | Trace.Round_started _ | Sent _ | Corrupted _ | Removed _
           | Halted _ ->
               false)
         events)
  then expect "injection bits" got.injection_bits want.injection_bits;
  expect "corruptions" got.corruptions want.corruptions;
  expect "rounds" (Metrics.rounds folded) (Metrics.rounds metrics)

let verify ?metrics ~model ~budget events =
  let st =
    { current = -1;
      started = false;
      corrupt = Hashtbl.create 64;
      halted = Hashtbl.create 64;
      corruptions = 0;
      findings = [] }
  in
  List.iter (observe st ~model ~budget) events;
  (match metrics with Some m -> check_metrics st events m | None -> ());
  List.rev st.findings
