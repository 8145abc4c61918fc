open Bacrypto

type vote_cert = Signature.tag Cert.t

type proposal = {
  p_iter : int;
  p_bit : bool;
  p_cert : vote_cert option;
  p_tag : Signature.tag;
}

type msg =
  | Status of {
      iter : int;
      bit : bool;
      cert : vote_cert option;
      tag : Signature.tag;
    }
  | Propose of proposal
  | Vote of {
      iter : int;
      bit : bool;
      proposal : proposal option;
      tag : Signature.tag;
    }
  | Commit of { iter : int; bit : bool; cert : vote_cert; tag : Signature.tag }
  | Terminate of {
      iter : int;
      bit : bool;
      commits : (int * Signature.tag) list;
      tag : Signature.tag;
    }

let msg_kind = function
  | Status _ -> "status"
  | Propose _ -> "propose"
  | Vote _ -> "vote"
  | Commit _ -> "commit"
  | Terminate _ -> "terminate"

type env = {
  n : int;
  f : int;
  sigs : Signature.scheme;
  leaders : int array;
  max_iters : int;
  cert_cache : (vote_cert, unit) Hashtbl.t;
      (* positive verification results, shared across receivers (sound:
         signature verification is deterministic) *)
  proposal_cache : (proposal, unit) Hashtbl.t;  (* same, for proposals *)
}

type phase =
  | Phase_status of int
  | Phase_propose of int
  | Phase_vote of int
  | Phase_commit of int

let phase_of_round round =
  if round = 0 then Phase_vote 1
  else if round = 1 then Phase_commit 1
  else begin
    let k = round - 2 in
    let iter = 2 + (k / 4) in
    match k mod 4 with
    | 0 -> Phase_status iter
    | 1 -> Phase_propose iter
    | 2 -> Phase_vote iter
    | _ -> Phase_commit iter
  end

let leader env ~iter = env.leaders.(iter mod Array.length env.leaders)

(* Signed statements. *)
let bit_int b = if b then 1 else 0

let status_stmt ~iter ~bit = Printf.sprintf "qhm:Status:%d:%d" iter (bit_int bit)

let propose_stmt ~iter ~bit = Printf.sprintf "qhm:Propose:%d:%d" iter (bit_int bit)

let vote_stmt ~iter ~bit = Printf.sprintf "qhm:Vote:%d:%d" iter (bit_int bit)

let commit_stmt ~iter ~bit = Printf.sprintf "qhm:Commit:%d:%d" iter (bit_int bit)

let terminate_stmt ~iter ~bit =
  Printf.sprintf "qhm:Terminate:%d:%d" iter (bit_int bit)

(* Certificate validity: f+1 distinct valid iteration-r vote signatures.
   Positive results are cached in the env — deterministic and monotone. *)
let valid_cert env (cert : vote_cert) =
  Hashtbl.mem env.cert_cache cert
  ||
  let stmt = vote_stmt ~iter:cert.Cert.iter ~bit:cert.Cert.bit in
  let ok =
    Cert.well_formed cert ~quorum:(env.f + 1) ~check:(fun ~node tag ->
        Signature.verify env.sigs ~signer:node stmt tag)
  in
  if ok then Hashtbl.replace env.cert_cache cert ();
  ok

let valid_cert_opt env = function None -> true | Some c -> valid_cert env c

(* A proposal is valid for iteration r iff signed by the iteration-r
   leader and its attached certificate (if any) is a valid certificate for
   the proposed bit, from an earlier iteration. *)
let valid_proposal env ~iter (p : proposal) =
  p.p_iter = iter
  && (Hashtbl.mem env.proposal_cache p
     ||
     let ok =
       Signature.verify env.sigs
         ~signer:(leader env ~iter)
         (propose_stmt ~iter ~bit:p.p_bit)
         p.p_tag
       && valid_cert_opt env p.p_cert
       && (match p.p_cert with
          | None -> true
          | Some c -> c.Cert.bit = p.p_bit && c.Cert.iter < iter)
     in
     if ok then Hashtbl.replace env.proposal_cache p ();
     ok)

(* Vote validity: for an iteration that exists (they start at 1, and the
   leader schedule has no entry before that), properly signed by its
   sender and — from iteration 2 on — accompanied by a valid matching
   leader proposal ("with the leader's proposal attached"), which is what
   stops already-corrupt nodes from voting both ways in honest-leader
   iterations. *)
let valid_vote env ~sender ~iter ~bit ~proposal ~tag =
  iter >= 1
  && Signature.verify env.sigs ~signer:sender (vote_stmt ~iter ~bit) tag
  && (if iter = 1 then true
      else
        match proposal with
        | None -> false
        | Some p -> valid_proposal env ~iter p && p.p_bit = bit)

let valid_commit env ~sender ~iter ~bit ~cert ~tag =
  Signature.verify env.sigs ~signer:sender (commit_stmt ~iter ~bit) tag
  && valid_cert env cert
  && cert.Cert.iter = iter && cert.Cert.bit = bit

let valid_terminate env ~sender ~iter ~bit ~commits ~tag =
  Signature.verify env.sigs ~signer:sender (terminate_stmt ~iter ~bit) tag
  &&
  let stmt = commit_stmt ~iter ~bit in
  Cert.well_formed_batch
    { Cert.iter; bit; endorsements = commits }
    ~quorum:(env.f + 1)
    ~check_all:
      (List.map (fun (node, ctag) ->
           Signature.verify env.sigs ~signer:node stmt ctag))

(* Message constructors (also used by adversaries for corrupt nodes). *)
let sign_status env ~signer ~iter ~bit cert =
  Status { iter; bit; cert; tag = Signature.sign env.sigs ~signer (status_stmt ~iter ~bit) }

let sign_propose env ~signer ~iter ~bit cert =
  Propose
    { p_iter = iter;
      p_bit = bit;
      p_cert = cert;
      p_tag = Signature.sign env.sigs ~signer (propose_stmt ~iter ~bit) }

let sign_vote env ~signer ~iter ~bit proposal =
  Vote { iter; bit; proposal; tag = Signature.sign env.sigs ~signer (vote_stmt ~iter ~bit) }

let sign_commit env ~signer ~iter ~bit cert =
  Commit { iter; bit; cert; tag = Signature.sign env.sigs ~signer (commit_stmt ~iter ~bit) }

let sign_terminate env ~signer ~iter ~bit commits =
  Terminate
    { iter; bit; commits;
      tag = Signature.sign env.sigs ~signer (terminate_stmt ~iter ~bit) }

type state = {
  me : int;
  input : bool;
  rng : Rng.t;
  mutable best0 : vote_cert option;  (* highest certificate for bit 0 *)
  mutable best1 : vote_cert option;  (* highest certificate for bit 1 *)
  votes : (int * bool, (int * Signature.tag) list) Hashtbl.t;
  commits : (int * bool, (int * Signature.tag) list) Hashtbl.t;
  mutable proposals : proposal list;  (* valid proposals, current iter *)
  mutable pending : (int * bool * (int * Signature.tag) list) option;
  mutable out : bool option;
  mutable stopped : bool;
}

let best_for state bit = if bit then state.best1 else state.best0

let set_best state bit c = if bit then state.best1 <- c else state.best0 <- c

let absorb_cert state = function
  | None -> ()
  | Some c ->
      if Cert.strictly_higher (Some c) ~than:(best_for state c.Cert.bit) then
        set_best state c.Cert.bit (Some c)

let overall_best state =
  if Cert.strictly_higher state.best1 ~than:state.best0 then state.best1
  else state.best0

let add_endorsement table key entry =
  let existing = Option.value (Hashtbl.find_opt table key) ~default:[] in
  if List.mem_assoc (fst entry) existing then ()
  else Hashtbl.replace table key (entry :: existing)

(* Absorb one inbox message (validation included). *)
let absorb env state ~iter_of_round ~sender msg =
  match msg with
  | Status { iter = _; bit = _; cert; tag = _ } ->
      if valid_cert_opt env cert then absorb_cert state cert
  | Propose p ->
      if valid_proposal env ~iter:iter_of_round p then
        state.proposals <- p :: state.proposals;
      if valid_cert_opt env p.p_cert then absorb_cert state p.p_cert
  | Vote { iter; bit; proposal; tag } ->
      if valid_vote env ~sender ~iter ~bit ~proposal ~tag then begin
        add_endorsement state.votes (iter, bit) (sender, tag);
        (* f+1 matching votes are themselves a certificate; build it once,
           when the quorum is first reached. *)
        let endorsements = Hashtbl.find state.votes (iter, bit) in
        if List.length endorsements = env.f + 1 then
          absorb_cert state (Some (Cert.make ~iter ~bit ~endorsements))
      end
  | Commit { iter; bit; cert; tag } ->
      if valid_commit env ~sender ~iter ~bit ~cert ~tag then begin
        add_endorsement state.commits (iter, bit) (sender, tag);
        absorb_cert state (Some cert);
        let endorsements = Hashtbl.find state.commits (iter, bit) in
        if List.length endorsements >= env.f + 1 && state.pending = None then
          state.pending <- Some (iter, bit, endorsements)
      end
  | Terminate { iter; bit; commits; tag } ->
      if valid_terminate env ~sender ~iter ~bit ~commits ~tag
         && state.pending = None
      then state.pending <- Some (iter, bit, commits)

let protocol ?(max_iters = 40) () =
  let make_env ~n rng =
    if n < 3 || n mod 2 = 0 then
      invalid_arg "Quadratic_hm: n must be odd and at least 3 (n = 2f+1)";
    let f = (n - 1) / 2 in
    (* Public random leader schedule — the leader-election oracle. *)
    let leaders = Array.init (max_iters + 2) (fun _ -> Rng.int rng n) in
    { n;
      f;
      sigs = Signature.setup ~n rng;
      leaders;
      max_iters;
      cert_cache = Hashtbl.create 256;
      proposal_cache = Hashtbl.create 64 }
  in
  let init _env ~rng ~n:_ ~me ~input =
    { me;
      input;
      rng;
      best0 = None;
      best1 = None;
      votes = Hashtbl.create 64;
      commits = Hashtbl.create 64;
      proposals = [];
      pending = None;
      out = None;
      stopped = false }
  in
  let step env state ~round ~inbox =
    let phase = phase_of_round round in
    let iter =
      match phase with
      | Phase_status i | Phase_propose i | Phase_vote i | Phase_commit i -> i
    in
    (* New iteration: proposals from earlier iterations are stale. *)
    (match phase with
    | Phase_status _ -> state.proposals <- []
    | Phase_propose _ | Phase_vote _ | Phase_commit _ -> ());
    List.iter (fun (sender, m) -> absorb env state ~iter_of_round:iter ~sender m) inbox;
    match state.pending with
    | Some (t_iter, bit, commits) ->
        (* Terminate rule (any time): relay and halt. *)
        state.out <- Some bit;
        state.stopped <- true;
        (state, [ Basim.Engine.multicast
                    (sign_terminate env ~signer:state.me ~iter:t_iter ~bit commits) ])
    | None ->
        if iter > env.max_iters then begin
          (* Cap reached without a decision: halt without output so the
             property checker records a termination failure. *)
          state.stopped <- true;
          (state, [])
        end
        else begin
          let sends =
            match phase with
            | Phase_status _ ->
                let best = overall_best state in
                let bit =
                  match best with Some c -> c.Cert.bit | None -> state.input
                in
                [ Basim.Engine.multicast
                    (sign_status env ~signer:state.me ~iter ~bit best) ]
            | Phase_propose _ ->
                if leader env ~iter = state.me then begin
                  let r0 = Cert.rank state.best0 and r1 = Cert.rank state.best1 in
                  let bit =
                    if r0 > r1 then false
                    else if r1 > r0 then true
                    else Rng.bool state.rng
                  in
                  [ Basim.Engine.multicast
                      (sign_propose env ~signer:state.me ~iter ~bit
                         (best_for state bit)) ]
                end
                else []
            | Phase_vote _ ->
                if iter = 1 then
                  [ Basim.Engine.multicast
                      (sign_vote env ~signer:state.me ~iter ~bit:state.input None) ]
                else begin
                  let bits =
                    List.sort_uniq Bool.compare
                      (List.filter_map
                         (fun p -> if p.p_iter = iter then Some p.p_bit else None)
                         state.proposals)
                  in
                  match bits with
                  | [ b ] ->
                      let p =
                        List.find (fun p -> p.p_iter = iter && p.p_bit = b)
                          state.proposals
                      in
                      (* Vote unless a strictly higher certificate exists
                         for the opposite bit (an equal-rank one does not
                         block the vote). *)
                      if Cert.rank (best_for state (not b)) <= Cert.rank p.p_cert
                      then
                        [ Basim.Engine.multicast
                            (sign_vote env ~signer:state.me ~iter ~bit:b (Some p)) ]
                      else []
                  | [] | _ :: _ :: _ ->
                      (* No proposal, or an equivocating leader: skip. *)
                      []
                end
            | Phase_commit _ ->
                let votes_for b =
                  Option.value (Hashtbl.find_opt state.votes (iter, b)) ~default:[]
                in
                let v0 = votes_for false and v1 = votes_for true in
                let try_commit b vs opposite =
                  if List.length vs >= env.f + 1 && opposite = [] then
                    (* a certificate is exactly f+1 votes; don't ship more *)
                    let vs = List.filteri (fun i _ -> i <= env.f) vs in
                    let cert = Cert.make ~iter ~bit:b ~endorsements:vs in
                    Some
                      (Basim.Engine.multicast
                         (sign_commit env ~signer:state.me ~iter ~bit:b cert))
                  else None
                in
                (match try_commit false v0 v1 with
                | Some send -> [ send ]
                | None -> (
                    match try_commit true v1 v0 with
                    | Some send -> [ send ]
                    | None -> []))
          in
          (state, sends)
        end
  in
  let tag_bits = Signature.tag_bits in
  let cert_bits c = Cert.size_bits c ~endorsement_bits:(fun _ -> tag_bits) in
  let proposal_bits = function
    | None -> 8
    | Some p -> 48 + tag_bits + cert_bits p.p_cert
  in
  let msg_bits _env = function
    | Status { cert; _ } -> 48 + tag_bits + cert_bits cert
    | Propose p -> 48 + tag_bits + cert_bits p.p_cert
    | Vote { proposal; _ } -> 48 + tag_bits + proposal_bits proposal
    | Commit { cert; _ } -> 48 + tag_bits + cert_bits (Some cert)
    | Terminate { commits; _ } ->
        48 + tag_bits + List.length commits * (32 + tag_bits)
  in
  { Basim.Engine.proto_name = "quadratic-hm";
    make_env;
    init;
    step;
    output = (fun s -> s.out);
    halted = (fun s -> s.stopped);
    msg_bits }
