open Basim
open Bacore

let both_bits = [ false; true ]

(* Corrupt `budget` evenly spread node ids at setup, so the honest
   remainder keeps the same input mix in both network halves. *)
let top_ids ~n ~budget =
  if budget = 0 then []
  else List.sort_uniq Int.compare (List.init budget (fun k -> k * n / budget))

(* Conflicting messages go bit 0 to the lower half of the network, bit 1
   to the upper half. *)
let half_for ~n bit =
  Schedule.resolve_dst ~n
    (if bit then Schedule.Upper_half else Schedule.Lower_half)

let sub_third () =
  let corrupt_set = ref [] in
  { Engine.adv_name = "split-vote-sub3";
    model = Corruption.Adaptive;
    setup =
      (fun _ ~n ~budget ~rng:_ ->
        corrupt_set := top_ids ~n ~budget;
        !corrupt_set);
    intervene =
      (fun view ->
        let env = view.Engine.env in
        let epoch = view.Engine.round / 2 in
        let actions = ref [] in
        let inject src dst payload =
          actions := Engine.Inject { src; dst; payload } :: !actions
        in
        if view.Engine.round mod 2 = 0 then
          (* Propose round: targeted conflicting proposals. *)
          List.iter
            (fun c ->
              List.iter
                (fun bit ->
                  match
                    env.Sub_third.elig.Bafmine.Eligibility.mine ~node:c
                      ~msg:(Sub_third.propose_mining_string ~epoch ~bit)
                      ~p:(Sub_third.propose_probability env)
                  with
                  | Some cred ->
                      let dst = half_for ~n:env.Sub_third.n bit in
                      inject c dst (Sub_third.make_propose ~epoch ~bit ~cred)
                  | None -> ())
                both_bits)
            !corrupt_set
        else
          (* ACK round: double ACKs, each bit targeted at the half of the
             network already leaning that way, so each half keeps seeing
             "ample ACKs" for its own bit only and the split never heals. *)
          List.iter
            (fun c ->
              List.iter
                (fun bit ->
                  match
                    env.Sub_third.elig.Bafmine.Eligibility.mine ~node:c
                      ~msg:
                        (Sub_third.ack_mining_string env.Sub_third.mode ~epoch
                           ~bit)
                      ~p:(Sub_third.ack_probability env)
                  with
                  | Some cred ->
                      let dst = half_for ~n:env.Sub_third.n bit in
                      inject c dst (Sub_third.make_ack ~epoch ~bit ~cred)
                  | None -> ())
                both_bits)
            !corrupt_set;
        List.rev !actions) }

let sub_hm () =
  let corrupt_set = ref [] in
  (* Corrupt votes/commits assembled so far, per (iter, bit). *)
  let votes : (int * bool, (int * Bafmine.Eligibility.credential) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let committed : (int * bool, bool) Hashtbl.t = Hashtbl.create 16 in
  let record table key entry =
    let existing = Option.value (Hashtbl.find_opt table key) ~default:[] in
    if not (List.mem_assoc (fst entry) existing) then
      Hashtbl.replace table key (entry :: existing)
  in
  { Engine.adv_name = "split-vote-shm";
    model = Corruption.Adaptive;
    setup =
      (fun _ ~n ~budget ~rng:_ ->
        corrupt_set := top_ids ~n ~budget;
        !corrupt_set);
    intervene =
      (fun view ->
        let env = view.Engine.env in
        let n = env.Sub_hm.n in
        let actions = ref [] in
        let inject src dst payload =
          actions := Engine.Inject { src; dst; payload } :: !actions
        in
        let mine node msg p = env.Sub_hm.elig.Bafmine.Eligibility.mine ~node ~msg ~p in
        let committee_p = Sub_hm.committee_probability env in
        let phase = Hm.phase_of_round view.Engine.round in
        (match phase with
        | Hm.Phase_vote 1 ->
            (* Iteration 1: votes need no proposal — double-vote. *)
            List.iter
              (fun c ->
                List.iter
                  (fun bit ->
                    match
                      mine c (Sub_hm.mining_string `Vote ~iter:1 ~bit) committee_p
                    with
                    | Some cred ->
                        record votes (1, bit) (c, cred);
                        inject c Engine.All
                          (Sub_hm.make_vote ~iter:1 ~bit ~proposal:None ~cred)
                    | None -> ())
                  both_bits)
              !corrupt_set
        | Hm.Phase_propose iter ->
            (* Conflicting bare proposals to blockade honest voting. *)
            List.iter
              (fun c ->
                List.iter
                  (fun bit ->
                    match
                      mine c
                        (Sub_hm.mining_string `Propose ~iter ~bit)
                        (Sub_hm.propose_probability env)
                    with
                    | Some cred ->
                        inject c Engine.All
                          (Sub_hm.make_propose ~iter ~bit ~cert:None ~node:c ~cred)
                    | None -> ())
                  both_bits)
              !corrupt_set
        | Hm.Phase_commit iter | Hm.Phase_status iter ->
            (* Whenever the corrupt votes alone form a certificate, mine
               commits for it and storm the two halves with conflicting
               Commit messages. *)
            List.iter
              (fun bit ->
                let key = (iter, bit) in
                let vs = Option.value (Hashtbl.find_opt votes key) ~default:[] in
                if
                  List.length vs >= Sub_hm.quorum env
                  && not (Hashtbl.mem committed key)
                then begin
                  Hashtbl.replace committed key true;
                  let cert = Cert.make ~iter ~bit ~endorsements:vs in
                  let dst = half_for ~n bit in
                  List.iter
                    (fun c ->
                      match
                        mine c (Sub_hm.mining_string `Commit ~iter ~bit) committee_p
                      with
                      | Some cred ->
                          inject c dst (Hm.Commit { iter; bit; cert; cred })
                      | None -> ())
                    !corrupt_set
                end)
              both_bits
        | Hm.Phase_vote _ -> ());
        List.rev !actions) }
