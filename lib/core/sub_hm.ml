open Bafmine

type elig_cert = Eligibility.credential Cert.t

type proposal = {
  p_iter : int;
  p_bit : bool;
  p_cert : elig_cert option;
  p_node : int;
  p_cred : Eligibility.credential;
}

type msg =
  | Status of {
      iter : int;
      bit : bool;
      cert : elig_cert option;
      cred : Eligibility.credential;
    }
  | Propose of proposal
  | Vote of {
      iter : int;
      bit : bool;
      proposal : proposal option;
      cred : Eligibility.credential;
    }
  | Commit of {
      iter : int;
      bit : bool;
      cert : elig_cert;
      cred : Eligibility.credential;
    }
  | Terminate of {
      iter : int;
      bit : bool;
      commits : (int * Eligibility.credential) list;
      cred : Eligibility.credential;
    }

let msg_kind = function
  | Status _ -> "status"
  | Propose _ -> "propose"
  | Vote _ -> "vote"
  | Commit _ -> "commit"
  | Terminate _ -> "terminate"

type env = {
  n : int;
  params : Params.t;
  elig : Eligibility.t;
  fmine : Fmine.t option;
  cert_cache : (elig_cert, unit) Hashtbl.t;
      (* positive verification results, shared across receivers: sound
         because Fmine coins are memoized and VRF verification is
         deterministic, so a certificate that verified once verifies
         forever *)
  proposal_cache : (proposal, unit) Hashtbl.t;  (* same, for proposals *)
}

let phase_of_round = Quadratic_hm.phase_of_round

let bit_int b = if b then 1 else 0

let format_mining_string kind ~iter ~bit =
  let tag =
    match kind with
    | `Status -> "shm:Status"
    | `Propose -> "shm:Propose"
    | `Vote -> "shm:Vote"
    | `Commit -> "shm:Commit"
  in
  Printf.sprintf "%s:%d:%d" tag iter (bit_int bit)

(* Every receiver asks for a mining string per delivered message, so the
   strings of the first [interned_iters] iterations are formatted once per
   program into an immutable table shared by all trials and domains.
   Other iterations (past the table, or adversary-supplied) are formatted
   on demand, to the same bytes. *)
let interned_iters = 128

let kinds = [| `Status; `Propose; `Vote; `Commit |]

let kind_index = function `Status -> 0 | `Propose -> 1 | `Vote -> 2 | `Commit -> 3

let interned =
  Array.init
    (Array.length kinds * interned_iters * 2)
    (fun i ->
      format_mining_string
        kinds.(i / (interned_iters * 2))
        ~iter:(i / 2 mod interned_iters) ~bit:(i mod 2 = 1))

let mining_string kind ~iter ~bit =
  if iter >= 0 && iter < interned_iters then
    interned.((((kind_index kind * interned_iters) + iter) * 2) + bit_int bit)
  else format_mining_string kind ~iter ~bit

let terminate_mining_string ~bit =
  if bit then "shm:Terminate:1" else "shm:Terminate:0"

let committee_probability env = Params.ack_probability env.params ~n:env.n

let propose_probability env = Params.propose_probability ~n:env.n

let quorum env = Params.hm_quorum env.params

let verify_ticket env ~node ~msg ~p cred =
  env.elig.Eligibility.verify ~node ~msg ~p cred

(* Certificate validity: λ/2 distinct verifying vote credentials.  Positive
   results are cached in the env — every receiver checks the same
   certificate value, and validity is monotone. *)
let valid_cert env (cert : elig_cert) =
  Hashtbl.mem env.cert_cache cert
  ||
  let ok =
    (* all endorsements share one mining string and difficulty, so the
       whole quorum check is a single amortized sweep *)
    Cert.well_formed_batch cert ~quorum:(quorum env)
      ~check_all:
        (env.elig.Eligibility.verify_many
           ~msg:(mining_string `Vote ~iter:cert.Cert.iter ~bit:cert.Cert.bit)
           ~p:(committee_probability env))
  in
  if ok then Hashtbl.replace env.cert_cache cert ();
  ok

let valid_cert_opt env = function None -> true | Some c -> valid_cert env c

let valid_proposal env ~iter (p : proposal) =
  p.p_iter = iter
  && (Hashtbl.mem env.proposal_cache p
     ||
     let ok =
       verify_ticket env ~node:p.p_node
         ~msg:(mining_string `Propose ~iter ~bit:p.p_bit)
         ~p:(propose_probability env) p.p_cred
       && valid_cert_opt env p.p_cert
       && (match p.p_cert with
          | None -> true
          | Some c -> c.Cert.bit = p.p_bit && c.Cert.iter < iter)
     in
     if ok then Hashtbl.replace env.proposal_cache p ();
     ok)

(* Iterations start at 1; a vote naming an earlier one is refused before
   a quorum of them could reach [Cert.make]. *)
let valid_vote env ~sender ~iter ~bit ~proposal ~cred =
  iter >= 1
  && verify_ticket env ~node:sender
       ~msg:(mining_string `Vote ~iter ~bit)
       ~p:(committee_probability env) cred
  && (if iter = 1 then true
      else
        match proposal with
        | None -> false
        | Some p -> valid_proposal env ~iter p && p.p_bit = bit)

let valid_commit env ~sender ~iter ~bit ~cert ~cred =
  verify_ticket env ~node:sender
    ~msg:(mining_string `Commit ~iter ~bit)
    ~p:(committee_probability env) cred
  && valid_cert env cert
  && cert.Cert.iter = iter && cert.Cert.bit = bit

let valid_terminate env ~sender ~iter ~bit ~commits ~cred =
  verify_ticket env ~node:sender ~msg:(terminate_mining_string ~bit)
    ~p:(committee_probability env) cred
  && Cert.well_formed_batch
       { Cert.iter; bit; endorsements = commits }
       ~quorum:(quorum env)
       ~check_all:
         (env.elig.Eligibility.verify_many
            ~msg:(mining_string `Commit ~iter ~bit)
            ~p:(committee_probability env))

let make_vote ~iter ~bit ~proposal ~cred = Vote { iter; bit; proposal; cred }

let make_propose ~iter ~bit ~cert ~node ~cred =
  Propose { p_iter = iter; p_bit = bit; p_cert = cert; p_node = node; p_cred = cred }

(* The {e listener} half of a node's state: everything a node learns
   purely by verifying and absorbing received messages. Listener
   evolution is a deterministic function of (env, round, inbox) — it
   never reads [me], [input], or the node's rng — which is what lets the
   crowd hook below share ONE listener among every node that received
   exactly the multicast traffic. *)
type listener = {
  mutable best0 : elig_cert option;
  mutable best1 : elig_cert option;
  votes : (int * bool, (int * Eligibility.credential) list) Hashtbl.t;
  commits : (int * bool, (int * Eligibility.credential) list) Hashtbl.t;
  mutable proposals : proposal list;
  mutable pending : (int * bool * (int * Eligibility.credential) list) option;
}

type state = {
  me : int;
  input : bool;
  rng : Bacrypto.Rng.t;
  mutable lst : listener option;
      (* [None] before the node's first dense step, and for exactly as
         long as it rides the crowd listener of [sparse_step]; allocated
         lazily, so a crowd of 10⁴ builds no per-node tables *)
  mutable out : bool option;
  mutable stopped : bool;
}

let fresh_listener () =
  { best0 = None;
    best1 = None;
    votes = Hashtbl.create 64;
    commits = Hashtbl.create 64;
    proposals = [];
    pending = None }

let listener_of state =
  match state.lst with
  | Some l -> l
  | None ->
      let l = fresh_listener () in
      state.lst <- Some l;
      l

let copy_listener l =
  { l with votes = Hashtbl.copy l.votes; commits = Hashtbl.copy l.commits }

let best_for l bit = if bit then l.best1 else l.best0

let set_best l bit c = if bit then l.best1 <- c else l.best0 <- c

let absorb_cert l = function
  | None -> ()
  | Some c ->
      if Cert.strictly_higher (Some c) ~than:(best_for l c.Cert.bit) then
        set_best l c.Cert.bit (Some c)

let overall_best l =
  if Cert.strictly_higher l.best1 ~than:l.best0 then l.best1 else l.best0

let add_endorsement table key entry =
  let existing = Option.value (Hashtbl.find_opt table key) ~default:[] in
  if List.mem_assoc (fst entry) existing then ()
  else Hashtbl.replace table key (entry :: existing)

let absorb env l ~iter_of_round ~sender msg =
  match msg with
  | Status { cert; _ } -> if valid_cert_opt env cert then absorb_cert l cert
  | Propose p ->
      if valid_proposal env ~iter:iter_of_round p then
        l.proposals <- p :: l.proposals;
      if valid_cert_opt env p.p_cert then absorb_cert l p.p_cert
  | Vote { iter; bit; proposal; cred } ->
      if valid_vote env ~sender ~iter ~bit ~proposal ~cred then begin
        add_endorsement l.votes (iter, bit) (sender, cred);
        (* build the certificate once, when the quorum is first reached *)
        let endorsements = Hashtbl.find l.votes (iter, bit) in
        if List.length endorsements = Params.hm_quorum env.params then
          absorb_cert l (Some (Cert.make ~iter ~bit ~endorsements))
      end
  | Commit { iter; bit; cert; cred } ->
      if valid_commit env ~sender ~iter ~bit ~cert ~cred then begin
        add_endorsement l.commits (iter, bit) (sender, cred);
        absorb_cert l (Some cert);
        let endorsements = Hashtbl.find l.commits (iter, bit) in
        if List.length endorsements >= Params.hm_quorum env.params
           && l.pending = None
        then l.pending <- Some (iter, bit, endorsements)
      end
  | Terminate { iter; bit; commits; cred } ->
      if valid_terminate env ~sender ~iter ~bit ~commits ~cred
         && l.pending = None
      then l.pending <- Some (iter, bit, commits)

let iter_of_phase = function
  | Quadratic_hm.Phase_status i | Quadratic_hm.Phase_propose i
  | Quadratic_hm.Phase_vote i | Quadratic_hm.Phase_commit i ->
      i

(* One round of listening: a new iteration makes the last one's proposals
   stale, then the inbox is absorbed in delivery order. *)
let absorb_round env l ~phase ~iter inbox =
  (match phase with
  | Quadratic_hm.Phase_status _ -> l.proposals <- []
  | Quadratic_hm.Phase_propose _ | Quadratic_hm.Phase_vote _
  | Quadratic_hm.Phase_commit _ ->
      ());
  List.iter
    (fun (sender, m) -> absorb env l ~iter_of_round:iter ~sender m)
    inbox

let multicast m = [ Basim.Engine.multicast m ]

let silent _ = []

(* What a node sends this round, decided once per listener. Everything
   here depends only on what the listener absorbed; the returned [act]
   finishes one node's step with what only the node has — its input bit,
   at most one rank-tie coin from its own rng, and one [draw] of its
   eligibility ticket for the (type, iteration, bit) it wants to send: a
   conditional multicast. [act] sets [stopped] (and [out] on a decision)
   exactly when the node halts. Each [act] is a single closure that builds
   its message only on a winning draw. *)
let decide env ~draw l ~phase ~iter =
  let p = committee_probability env in
  match l.pending with
  | Some (t_iter, bit, commits) ->
      let msg = terminate_mining_string ~bit and out = Some bit in
      fun st ->
        st.out <- out;
        st.stopped <- true;
        (match draw ~node:st.me ~msg ~p with
        | Some cred ->
            multicast (Terminate { iter = t_iter; bit; commits; cred })
        | None -> [])
  | None when iter > env.params.Params.max_epochs ->
      fun st ->
        st.stopped <- true;
        []
  | None -> (
      match phase with
      | Quadratic_hm.Phase_status _ ->
          let cert = overall_best l in
          fun st ->
            let bit = match cert with Some c -> c.Cert.bit | None -> st.input in
            let msg = mining_string `Status ~iter ~bit in
            (match draw ~node:st.me ~msg ~p with
            | Some cred -> multicast (Status { iter; bit; cert; cred })
            | None -> [])
      | Quadratic_hm.Phase_propose _ ->
          (* One propose attempt per iteration, for the bit carrying the
             highest certificate (the node's own coin on a tie). *)
          let r0 = Cert.rank l.best0 and r1 = Cert.rank l.best1 in
          let p = propose_probability env in
          fun st ->
            let bit =
              if r0 > r1 then false
              else if r1 > r0 then true
              else Bacrypto.Rng.bool st.rng
            in
            let msg = mining_string `Propose ~iter ~bit in
            (match draw ~node:st.me ~msg ~p with
            | Some cred ->
                let cert = best_for l bit in
                multicast (make_propose ~iter ~bit ~cert ~node:st.me ~cred)
            | None -> [])
      | Quadratic_hm.Phase_vote _ when iter = 1 ->
          fun st ->
            let bit = st.input in
            let msg = mining_string `Vote ~iter ~bit in
            (match draw ~node:st.me ~msg ~p with
            | Some cred -> multicast (make_vote ~iter ~bit ~proposal:None ~cred)
            | None -> [])
      | Quadratic_hm.Phase_vote _ -> (
          let bits =
            List.sort_uniq Bool.compare
              (List.filter_map
                 (fun p -> if p.p_iter = iter then Some p.p_bit else None)
                 l.proposals)
          in
          match bits with
          | [ bit ] ->
              let pr =
                List.find (fun p -> p.p_iter = iter && p.p_bit = bit)
                  l.proposals
              in
              (* vote unless the other bit has a strictly higher
                 certificate than the proposal carries *)
              if Cert.rank (best_for l (not bit)) <= Cert.rank pr.p_cert
              then begin
                let msg = mining_string `Vote ~iter ~bit in
                let proposal = Some pr in
                fun st ->
                  match draw ~node:st.me ~msg ~p with
                  | Some cred -> multicast (make_vote ~iter ~bit ~proposal ~cred)
                  | None -> []
              end
              else silent
          | [] | _ :: _ :: _ -> silent)
      | Quadratic_hm.Phase_commit _ -> (
          let votes_for b =
            Option.value (Hashtbl.find_opt l.votes (iter, b)) ~default:[]
          in
          let v0 = votes_for false and v1 = votes_for true in
          let q = quorum env in
          let certified =
            if List.length v0 >= q && v1 = [] then Some (false, v0)
            else if List.length v1 >= q && v0 = [] then Some (true, v1)
            else None
          in
          match certified with
          | Some (bit, vs) ->
              (* a certificate is exactly λ/2 votes; don't ship more *)
              let vs = List.filteri (fun i _ -> i < q) vs in
              let cert = Cert.make ~iter ~bit ~endorsements:vs in
              let msg = mining_string `Commit ~iter ~bit in
              fun st ->
                (match draw ~node:st.me ~msg ~p with
                | Some cred -> multicast (Commit { iter; bit; cert; cred })
                | None -> [])
          | None -> silent))

let init _env ~rng ~n:_ ~me ~input =
  { me; input; rng; lst = None; out = None; stopped = false }

(* The dense step is a crowd of one: the node's own listener absorbs its
   inbox, and its ticket is mined (memoized in [Fmine]). *)
let step env state ~round ~inbox =
  let l = listener_of state in
  let phase = phase_of_round round in
  let iter = iter_of_phase phase in
  absorb_round env l ~phase ~iter inbox;
  (state, decide env ~draw:env.elig.Eligibility.mine l ~phase ~iter state)

let protocol ~params ~world =
  let make_env ~n rng =
    match world with
    | `Hybrid ->
        let fmine = Fmine.create rng in
        { n;
          params;
          elig = Eligibility.hybrid fmine;
          fmine = Some fmine;
          cert_cache = Hashtbl.create 256;
          proposal_cache = Hashtbl.create 64 }
    | `Real ->
        { n;
          params;
          elig = Compiler.real_world (Bacrypto.Pki.setup ~n rng);
          fmine = None;
          cert_cache = Hashtbl.create 256;
          proposal_cache = Hashtbl.create 64 }
  in
  let cred_bits env c = env.elig.Eligibility.credential_bits c in
  let cert_bits env c =
    Cert.size_bits c ~endorsement_bits:(fun cr -> cred_bits env cr)
  in
  let proposal_bits env = function
    | None -> 8
    | Some p -> 48 + 32 + cred_bits env p.p_cred + cert_bits env p.p_cert
  in
  let msg_bits env = function
    | Status { cert; cred; _ } -> 48 + cred_bits env cred + cert_bits env cert
    | Propose p -> 48 + 32 + cred_bits env p.p_cred + cert_bits env p.p_cert
    | Vote { proposal; cred; _ } ->
        48 + cred_bits env cred + proposal_bits env proposal
    | Commit { cert; cred; _ } ->
        48 + cred_bits env cred + cert_bits env (Some cert)
    | Terminate { commits; cred; _ } ->
        48 + cred_bits env cred
        + List.fold_left
            (fun acc (_, c) -> acc + 32 + cred_bits env c)
            0 commits
  in
  { Basim.Engine.proto_name =
      (match world with `Hybrid -> "sub-hm" | `Real -> "sub-hm-real");
    make_env;
    init;
    step;
    output = (fun s -> s.out);
    halted = (fun s -> s.stopped);
    msg_bits }

(* -------------------------------------------------------------------- *)
(* Sparse crowd execution.

   Every message in this protocol is a multicast, so in a round without
   targeted injections all [n] honest nodes receive the {e same} inbox —
   the engine's shared delivery tail. Since listener evolution never
   reads a node's identity, one [absorb_round] over that tail and one
   [decide] stand in for all of them, and each member's [act] is O(1)
   work that allocates a message only on a winning draw. The crowd is
   the set of nodes with [lst = None]. A node leaves it the first time
   its inbox differs from the shared tail, forking a private listener,
   and runs dense steps forever after; adversary injections are rare
   (O(corrupt) per round), so the crowd stays near-[n] and a round costs
   O(active) instead of O(n · inbox). *)

let sparse_step () : (env, state, msg) Basim.Engine.sparse_step =
  let crowd = ref None in
  fun env ~states (rv : msg Basim.Engine.round_view) ->
    let open Basim.Engine in
    let cl =
      match !crowd with
      | Some cl when rv.rv_round > 0 -> cl
      | _ ->
          (* round 0 of a (possibly repeated) run: fresh crowd *)
          let cl = fresh_listener () in
          crowd := Some cl;
          cl
    in
    (* Forks first, while [cl] still holds the round-start state that a
       leaving member must own privately. *)
    for k = 0 to rv.rv_n_active - 1 do
      let i = rv.rv_active.(k) in
      if not (rv.rv_is_shared i) then begin
        let st = states.(i) in
        match st.lst with
        | None -> st.lst <- Some (copy_listener cl)
        | Some _ -> ()
      end
    done;
    let phase = phase_of_round rv.rv_round in
    let iter = iter_of_phase phase in
    absorb_round env cl ~phase ~iter rv.rv_shared_inbox;
    (* Members sample: only winners enter [Fmine]'s table. *)
    let act = decide env ~draw:env.elig.Eligibility.sample cl ~phase ~iter in
    for k = 0 to rv.rv_n_active - 1 do
      let i = rv.rv_active.(k) in
      let st = states.(i) in
      match st.lst with
      | None ->
          let sends = act st in
          (* Winners and halters announce themselves; a losing draw is
             silent, which is what keeps the round O(emitters + halters)
             on the engine side. *)
          if st.stopped || sends <> [] then rv.rv_emit i sends
      | Some _ ->
          let _, sends =
            step env st ~round:rv.rv_round ~inbox:(rv.rv_inbox i)
          in
          rv.rv_emit i sends
    done
