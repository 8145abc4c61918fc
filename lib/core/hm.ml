open Bacrypto

type 'c proposal = {
  p_iter : int;
  p_bit : bool;
  p_cert : 'c Cert.t option;
  p_node : int;
  p_cred : 'c;
}

type 'c msg =
  | Status of { iter : int; bit : bool; cert : 'c Cert.t option; cred : 'c }
  | Propose of 'c proposal
  | Vote of { iter : int; bit : bool; proposal : 'c proposal option; cred : 'c }
  | Commit of { iter : int; bit : bool; cert : 'c Cert.t; cred : 'c }
  | Terminate of {
      iter : int;
      bit : bool;
      commits : (int * 'c) list;
      cred : 'c;
    }

let msg_kind = function
  | Status _ -> "status"
  | Propose _ -> "propose"
  | Vote _ -> "vote"
  | Commit _ -> "commit"
  | Terminate _ -> "terminate"

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

let iter_of_phase = function
  | Phase_status i | Phase_propose i | Phase_vote i | Phase_commit i -> i

type kind = [ `Status | `Propose | `Vote | `Commit | `Terminate ]

module Itbl = Hashtbl.Make (Int)

(* The distinct endorsers of one (iteration, bit), newest first, and how
   many there are. *)
type 'c tally = { mutable entries : (int * 'c) list; mutable count : int }

(* What a node learns from verified messages. It never reads the node's
   identity, input or rng, so nodes that hear the same inboxes can share
   ONE listener. A shared listener is never mutated: a node holding one
   learns into a copy. *)
type 'c listener = {
  mutable best0 : 'c Cert.t option;  (* highest certificate for 0 *)
  mutable best1 : 'c Cert.t option;  (* highest certificate for 1 *)
  votes : ('c tally * 'c tally) Itbl.t;  (* per iteration: for 0, for 1 *)
  commits : ('c tally * 'c tally) Itbl.t;
  mutable proposals : 'c proposal list;  (* valid, current iteration *)
  mutable pending : (int * bool * (int * 'c) list) option;
  mutable shared : bool;  (* held by more than one node *)
}

type 'c node = {
  me : int;
  input : bool;
  rng : Rng.t;
  mutable lst : 'c listener option;
      (* [None] while the node rides the crowd, and before its first
         dense step: a crowd of 10⁴ builds no per-node tables *)
  mutable out : bool option;
  mutable stopped : bool;
}

(* The dense step's shared transition: in round [t_round], a node
   starting from [t_start] heard [t_inbox] with [t_verdicts], learned
   [t_result] and sends [t_act]. *)
type 'c transition = {
  mutable t_round : int;  (* -1 while being rewritten *)
  mutable t_start : 'c listener option;
  mutable t_inbox : (int * 'c msg) list;
  mutable t_verdicts : Bytes.t;
  mutable t_result : 'c listener option;
  mutable t_act : 'c node -> 'c msg Basim.Engine.send list;
}

type 'c round_memo = {
  mutable memo_round : int;
  passed : 'c msg list Itbl.t;  (* by sender *)
  mutable transition : 'c transition option;  (* built by a dense step *)
}

let round_memo () =
  { memo_round = -1; passed = Itbl.create 64; transition = None }

module type SCHEME = sig
  type env
  type cred
  val quorum : env -> int
  val max_iters : env -> int
  val cert_cache : env -> (cred Cert.t, unit) Hashtbl.t
  val proposal_cache : env -> (cred proposal, unit) Hashtbl.t
  val memo : env -> cred round_memo
  val statement : kind -> iter:int -> bit:bool -> string
  val difficulty : env -> kind -> float
  val may_propose : env -> iter:int -> node:int -> bool
  val mine : env -> node:int -> msg:string -> p:float -> cred option
  val sample : env -> node:int -> msg:string -> p:float -> cred option
  val verify : env -> node:int -> msg:string -> p:float -> cred -> bool
  val verify_many :
    env -> msg:string -> p:float -> (int * cred) list -> bool list
end

module Make (S : SCHEME) = struct
  (* [node]'s ticket for sending [kind] for [bit] in [iter]. *)
  let ticket env kind ~node ~iter ~bit cred =
    S.verify env ~node ~msg:(S.statement kind ~iter ~bit)
      ~p:(S.difficulty env kind) cred

  (* A quorum of distinct verifying [kind] tickets for [c]'s iteration and
     bit: one statement and difficulty, so one sweep checks them all. *)
  let quorum_of env kind (c : S.cred Cert.t) =
    let msg = S.statement kind ~iter:c.Cert.iter ~bit:c.Cert.bit
    and p = S.difficulty env kind in
    Cert.well_formed c ~quorum:(S.quorum env)
      ~check_all:(fun entries -> S.verify_many env ~msg ~p entries)

  (* Positive results are cached in the env: every receiver checks the
     same certificate value, and validity is monotone. *)
  let valid_cert env cert =
    let cache = S.cert_cache env in
    Hashtbl.mem cache cert
    ||
    let ok = quorum_of env `Vote cert in
    if ok then Hashtbl.replace cache cert ();
    ok

  let valid_cert_opt env = function None -> true | Some c -> valid_cert env c

  (* A proposal is valid for iteration r iff its proposer may propose in r
     and holds the ticket for the proposed bit, and its certificate (if
     any) certifies that bit in an earlier iteration. *)
  let valid_proposal env ~iter (p : S.cred proposal) =
    p.p_iter = iter
    &&
    let cache = S.proposal_cache env in
    Hashtbl.mem cache p
    ||
    let ok =
      S.may_propose env ~iter ~node:p.p_node
      && ticket env `Propose ~node:p.p_node ~iter ~bit:p.p_bit p.p_cred
      && (match p.p_cert with
         | None -> true
         | Some c ->
             valid_cert env c && c.Cert.bit = p.p_bit && c.Cert.iter < iter)
    in
    if ok then Hashtbl.replace cache p ();
    ok

  let valid_terminate env ~sender ~iter ~bit ~commits ~cred =
    ticket env `Terminate ~node:sender ~iter ~bit cred
    && quorum_of env `Commit { Cert.iter; bit; endorsements = commits }

  (* The round memo. A delivered payload's check splits in two: its
     sender's ticket, which every receiver verifies, and the rest
     (certificates, proposals), which reads only the payload and the
     round. [vouched] finds [m] among [sender]'s payloads whose rest held
     this round, by physical equality: every receiver of a wire holds the
     same payload. [vouch] records [m] when [ok] and returns [ok]. A hit
     stands in for a positive-cache hit, so it saves no eligibility
     call. *)
  let vouched env ~sender m =
    match Itbl.find (S.memo env).passed sender with
    | ms -> List.memq m ms
    | exception Not_found -> false

  let vouch env ~sender m ok =
    if ok then begin
      let passed = (S.memo env).passed in
      match Itbl.find passed sender with
      | ms -> Itbl.replace passed sender (m :: ms)
      | exception Not_found -> Itbl.add passed sender [ m ]
    end;
    ok

  type state = S.cred node

  let fresh_listener () =
    { best0 = None;
      best1 = None;
      votes = Itbl.create 16;
      commits = Itbl.create 16;
      proposals = [];
      pending = None;
      shared = false }

  let copy_tallies table =
    let copy t = { entries = t.entries; count = t.count } in
    let c = Itbl.copy table in
    Itbl.filter_map_inplace (fun _ (t0, t1) -> Some (copy t0, copy t1)) c;
    c

  let copy_listener l =
    { l with
      votes = copy_tallies l.votes;
      commits = copy_tallies l.commits;
      shared = false }

  let best_for l bit = if bit then l.best1 else l.best0

  let absorb_cert l = function
    | None -> ()
    | Some c as best ->
        if Cert.strictly_higher best ~than:(best_for l c.Cert.bit) then
          if c.Cert.bit then l.best1 <- best else l.best0 <- best

  let overall_best l =
    if Cert.strictly_higher l.best1 ~than:l.best0 then l.best1 else l.best0

  (* [(iter, bit)]'s tally once [node]'s endorsement is in it. *)
  let endorse table ~iter ~bit ~node cred =
    let t0, t1 =
      match Itbl.find table iter with
      | pair -> pair
      | exception Not_found ->
          let pair = ({ entries = []; count = 0 }, { entries = []; count = 0 }) in
          Itbl.add table iter pair;
          pair
    in
    let t = if bit then t1 else t0 in
    if not (Cert.mem_endorser node t.entries) then begin
      t.entries <- (node, cred) :: t.entries;
      t.count <- t.count + 1
    end;
    t

  (* A delivery's verdict, all that [learn] needs of its checks.
     [cert_only]: a Propose whose proposal is refused but whose
     certificate holds. *)
  let refused = 0

  let accepted = 1

  let cert_only = 2

  (* One delivered message's checks. The round memo covers exactly the
     parts a positive cache covers: a Status's certificate, a proposal
     (with its certificate), a Vote's proposal from iteration 2 on, and a
     Commit's certificate. Tickets are checked first, by every receiver.
     Iterations start at 1, so a vote naming an earlier one is refused
     before a quorum of them could reach [Cert.make]; from iteration 2 on
     a vote carries the proposal that justified it, which is what stops
     corrupt nodes from voting without a proposer. [check] makes every
     eligibility call of the delivery and reads no listener. *)
  let check env ~iter_of_round ~sender msg =
    match msg with
    | Status { cert = None; _ } -> accepted
    | Status { cert = Some c; _ } ->
        if vouched env ~sender msg || vouch env ~sender msg (valid_cert env c)
        then accepted
        else refused
    | Propose p ->
        (* a valid proposal's certificate is valid, and cached *)
        if vouched env ~sender msg
           || vouch env ~sender msg (valid_proposal env ~iter:iter_of_round p)
        then accepted
        else if valid_cert_opt env p.p_cert then cert_only
        else refused
    | Vote { iter; bit; proposal; cred } ->
        if iter >= 1
           && ticket env `Vote ~node:sender ~iter ~bit cred
           && (iter = 1
              ||
              match proposal with
              | None -> false
              | Some p ->
                  vouched env ~sender msg
                  || vouch env ~sender msg
                       (valid_proposal env ~iter p && p.p_bit = bit))
        then accepted
        else refused
    | Commit { iter; bit; cert; cred } ->
        if ticket env `Commit ~node:sender ~iter ~bit cred
           && (vouched env ~sender msg
              || vouch env ~sender msg
                   (valid_cert env cert
                   && cert.Cert.iter = iter && cert.Cert.bit = bit))
        then accepted
        else refused
    | Terminate { iter; bit; commits; cred } ->
        if valid_terminate env ~sender ~iter ~bit ~commits ~cred then accepted
        else refused

  (* What [l] learns from a delivered message with [check]'s verdict. It
     makes no eligibility call. *)
  let learn env l ~sender msg verdict =
    if verdict <> refused then
      match msg with
      | Status { cert; _ } -> absorb_cert l cert
      | Propose p ->
          if verdict = accepted then l.proposals <- p :: l.proposals;
          absorb_cert l p.p_cert
      | Vote { iter; bit; cred; _ } ->
          let t = endorse l.votes ~iter ~bit ~node:sender cred in
          (* a quorum of matching votes is itself a certificate; build it
             once, when the quorum is first reached *)
          if t.count = S.quorum env then
            absorb_cert l (Some (Cert.make ~iter ~bit ~endorsements:t.entries))
      | Commit { iter; bit; cert; cred } ->
          let t = endorse l.commits ~iter ~bit ~node:sender cred in
          absorb_cert l (Some cert);
          if t.count >= S.quorum env && l.pending = None then
            l.pending <- Some (iter, bit, t.entries)
      | Terminate { iter; bit; commits; _ } ->
          if l.pending = None then l.pending <- Some (iter, bit, commits)

  (* The inbox in delivery order, each message checked, then learned. *)
  let rec absorb env l ~iter = function
    | [] -> ()
    | (sender, m) :: rest ->
        learn env l ~sender m (check env ~iter_of_round:iter ~sender m);
        absorb env l ~iter rest

  (* A new round empties the round memo, and a new iteration makes the
     last one's proposals stale. *)
  let enter_round env ~round =
    let memo = S.memo env in
    if memo.memo_round <> round then begin
      Itbl.clear memo.passed;
      memo.memo_round <- round
    end

  let start_round l = function
    | Phase_status _ -> l.proposals <- []
    | Phase_propose _ | Phase_vote _ | Phase_commit _ -> ()

  (* One round of listening, into a listener of the caller's own. *)
  let absorb_round env l ~round ~phase ~iter inbox =
    enter_round env ~round;
    start_round l phase;
    absorb env l ~iter inbox

  let multicast m = [ Basim.Engine.multicast m ]

  let silent _ = []

  (* What a node sends this round, decided once per listener, with the
     round's difficulty and its statement for each bit. The returned [act]
     finishes one node's step with what only the node has: its input bit,
     whether it may propose, at most one tie coin from its rng, and one
     [draw] of its ticket. [act] sets [stopped] (and [out] on a decision)
     exactly when the node halts, and builds a message only on a win. *)
  let decide env ~draw l ~phase ~iter =
    match l.pending with
    | Some (t_iter, bit, commits) ->
        let msg = S.statement `Terminate ~iter:t_iter ~bit
        and p = S.difficulty env `Terminate
        and out = Some bit in
        fun st ->
          st.out <- out;
          st.stopped <- true;
          (match draw env ~node:st.me ~msg ~p with
          | Some cred ->
              multicast (Terminate { iter = t_iter; bit; commits; cred })
          | None -> [])
    | None when iter > S.max_iters env ->
        fun st ->
          st.stopped <- true;
          []
    | None -> (
        match phase with
        | Phase_status _ ->
            let cert = overall_best l and p = S.difficulty env `Status in
            let m0 = S.statement `Status ~iter ~bit:false
            and m1 = S.statement `Status ~iter ~bit:true in
            fun st ->
              let bit =
                match cert with Some c -> c.Cert.bit | None -> st.input
              in
              (match draw env ~node:st.me ~msg:(if bit then m1 else m0) ~p with
              | Some cred -> multicast (Status { iter; bit; cert; cred })
              | None -> [])
        | Phase_propose _ ->
            (* One attempt, for the bit with the highest certificate; only
               a node that may propose flips the coin on a tie. *)
            let r0 = Cert.rank l.best0 and r1 = Cert.rank l.best1 in
            let p = S.difficulty env `Propose in
            let m0 = S.statement `Propose ~iter ~bit:false
            and m1 = S.statement `Propose ~iter ~bit:true in
            fun st ->
              if not (S.may_propose env ~iter ~node:st.me) then []
              else begin
                let bit =
                  if r0 > r1 then false
                  else if r1 > r0 then true
                  else Rng.bool st.rng
                in
                match draw env ~node:st.me ~msg:(if bit then m1 else m0) ~p with
                | Some cred ->
                    multicast
                      (Propose
                         { p_iter = iter;
                           p_bit = bit;
                           p_cert = best_for l bit;
                           p_node = st.me;
                           p_cred = cred })
                | None -> []
              end
        | Phase_vote _ when iter = 1 ->
            let p = S.difficulty env `Vote in
            let m0 = S.statement `Vote ~iter ~bit:false
            and m1 = S.statement `Vote ~iter ~bit:true in
            fun st ->
              let bit = st.input in
              (match draw env ~node:st.me ~msg:(if bit then m1 else m0) ~p with
              | Some cred -> multicast (Vote { iter; bit; proposal = None; cred })
              | None -> [])
        | Phase_vote _ -> (
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
                  let msg = S.statement `Vote ~iter ~bit
                  and p = S.difficulty env `Vote
                  and proposal = Some pr in
                  fun st ->
                    match draw env ~node:st.me ~msg ~p with
                    | Some cred -> multicast (Vote { iter; bit; proposal; cred })
                    | None -> []
                end
                else silent
            | [] | _ :: _ :: _ ->
                (* no proposal, or several: skip *)
                silent)
        | Phase_commit _ -> (
            let q = S.quorum env in
            let certified =
              match Itbl.find_opt l.votes iter with
              | None -> None
              | Some (v0, v1) ->
                  if v0.count >= q && v1.count = 0 then Some (false, v0.entries)
                  else if v1.count >= q && v0.count = 0 then
                    Some (true, v1.entries)
                  else None
            in
            match certified with
            | Some (bit, vs) ->
                (* a certificate is exactly a quorum; don't ship more *)
                let vs = List.filteri (fun i _ -> i < q) vs in
                let cert = Cert.make ~iter ~bit ~endorsements:vs in
                let msg = S.statement `Commit ~iter ~bit
                and p = S.difficulty env `Commit in
                fun st ->
                  (match draw env ~node:st.me ~msg ~p with
                  | Some cred -> multicast (Commit { iter; bit; cert; cred })
                  | None -> [])
            | None -> silent))

  let init _env ~rng ~n:_ ~me ~input =
    { me; input; rng; lst = None; out = None; stopped = false }

  (* The round's shared transition, built by the first dense step that
     records one. *)
  let transition env =
    let memo = S.memo env in
    match memo.transition with
    | Some tr -> tr
    | None ->
        let tr =
          { t_round = -1;
            t_start = None;
            t_inbox = [];
            t_verdicts = Bytes.create 64;
            t_result = None;
            t_act = silent }
        in
        memo.transition <- Some tr;
        tr

  let same_listener a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> a == b
    | None, Some _ | Some _, None -> false

  let verdict_at tr i = Char.code (Bytes.get tr.t_verdicts i)

  let record_verdict tr i v =
    let buf = tr.t_verdicts in
    if i >= Bytes.length buf then begin
      let grown = Bytes.create (2 * Bytes.length buf) in
      Bytes.blit buf 0 grown 0 i;
      tr.t_verdicts <- grown
    end;
    Bytes.set tr.t_verdicts i (Char.chr v)

  (* Checks [inbox], from its [i]th delivery on, against the recorded
     verdicts. All equal: [-1]. Otherwise the first differing verdict is
     recorded in its place, and the result is how many recorded verdicts
     are now this node's. *)
  let rec matching env tr ~iter i = function
    | [] -> -1
    | (sender, m) :: rest ->
        let v = check env ~iter_of_round:iter ~sender m in
        if v = verdict_at tr i then matching env tr ~iter (i + 1) rest
        else begin
          record_verdict tr i v;
          i + 1
        end

  (* [absorb] from the [i]th delivery on, recording each verdict; the
     first [known] are this node's already. *)
  let rec absorb_recording env l tr ~iter ~known i = function
    | [] -> ()
    | (sender, m) :: rest ->
        let v =
          if i < known then verdict_at tr i
          else begin
            let v = check env ~iter_of_round:iter ~sender m in
            record_verdict tr i v;
            v
          end
        in
        learn env l ~sender m v;
        absorb_recording env l tr ~iter ~known (i + 1) rest

  (* The dense step. Every receiver checks its whole inbox, so every node
     makes its own eligibility calls; only what the checks lead to is
     shared. All messages are multicasts, so in a round without targeted
     injections every node holds the same inbox and, inductively, the same
     listener. A node whose listener is its own learns into it. Any other
     node takes the round's recorded transition when it starts from the
     recorded listener (or both are unbuilt), its inbox is physically the
     recorded one and its verdicts equal the recorded ones: a ticket can
     start to verify mid-round, once its node mines. Otherwise it learns
     into a copy, or a fresh listener, and records the transition. *)
  let step env st ~round ~inbox =
    let phase = phase_of_round round in
    let iter = iter_of_phase phase in
    match st.lst with
    | Some l when not l.shared ->
        absorb_round env l ~round ~phase ~iter inbox;
        (st, decide env ~draw:S.mine l ~phase ~iter st)
    | start ->
        enter_round env ~round;
        let tr = transition env in
        let known =
          if tr.t_round = round && tr.t_inbox == inbox
             && same_listener start tr.t_start
          then matching env tr ~iter 0 inbox
          else 0
        in
        if known < 0 then begin
          (match tr.t_result with Some r -> r.shared <- true | None -> ());
          st.lst <- tr.t_result;
          (st, tr.t_act st)
        end
        else begin
          tr.t_round <- -1;
          let l =
            match start with
            | None -> fresh_listener ()
            | Some s -> copy_listener s
          in
          start_round l phase;
          absorb_recording env l tr ~iter ~known 0 inbox;
          let act = decide env ~draw:S.mine l ~phase ~iter in
          tr.t_start <- start;
          tr.t_inbox <- inbox;
          tr.t_result <- Some l;
          tr.t_act <- act;
          tr.t_round <- round;
          st.lst <- tr.t_result;
          (st, act st)
        end

  let protocol ~name ~make_env ~msg_bits =
    { Basim.Engine.proto_name = name;
      make_env;
      init;
      step;
      output = (fun s -> s.out);
      halted = (fun s -> s.stopped);
      msg_bits }

  (* The crowd is the set of nodes with [lst = None]: one [absorb_round]
     over the shared delivery tail and one [decide] stand in for all of
     them. A node leaves it the first time its inbox differs from the
     tail, forking a private listener, and runs dense steps after that. *)
  let sparse_step () : (S.env, state, S.cred msg) Basim.Engine.sparse_step =
    let crowd = ref (fresh_listener ()) in
    fun env ~states (rv : S.cred msg Basim.Engine.round_view) ->
      let open Basim.Engine in
      (* round 0 of a (possibly repeated) run: fresh crowd *)
      if rv.rv_round = 0 then crowd := fresh_listener ();
      let cl = !crowd in
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
      absorb_round env cl ~round:rv.rv_round ~phase ~iter rv.rv_shared_inbox;
      (* Members draw with [S.sample]: in sub-HM only winners leave a
         record behind, which keeps the crowd heap-flat. *)
      let act = decide env ~draw:S.sample cl ~phase ~iter in
      for k = 0 to rv.rv_n_active - 1 do
        let i = rv.rv_active.(k) in
        let st = states.(i) in
        match st.lst with
        | None ->
            let sends = act st in
            (* a losing draw is silent: the engine's side of the round is
               O(emitters + halters) *)
            if st.stopped || sends <> [] then rv.rv_emit i sends
        | Some _ ->
            let _, sends =
              step env st ~round:rv.rv_round ~inbox:(rv.rv_inbox i)
            in
            rv.rv_emit i sends
      done
end
