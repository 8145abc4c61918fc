open Bacrypto

type 'c msg =
  | Propose of { epoch : int; bit : bool; cred : 'c }
  | Ack of { epoch : int; bit : bool; cred : 'c }

let msg_kind = function Propose _ -> "propose" | Ack _ -> "ack"

type kind = [ `Propose | `Ack ]

module type SCHEME = sig
  type env
  type cred
  val max_epochs : env -> int
  val quorum : env -> int
  val may_propose : env -> epoch:int -> node:int -> bool
  val statement : env -> kind -> epoch:int -> bit:bool -> string
  val difficulty : env -> kind -> float
  val mine :
    env -> kind -> node:int -> epoch:int -> bit:bool -> msg:string ->
    p:float -> cred option
  val sample :
    env -> kind -> node:int -> epoch:int -> bit:bool -> msg:string ->
    p:float -> cred option
  val verify :
    env -> kind -> node:int -> epoch:int -> bit:bool -> msg:string ->
    p:float -> cred -> bool
  val on_conflict : env -> unit
  val output : belief:bool -> last_ack:bool option -> bool
end

module Iset = Set.Make (Int)

module Make (S : SCHEME) = struct
  type state = {
    me : int;
    rng : Rng.t;
    mutable belief : bool;  (* b_i *)
    mutable sticky : bool;  (* F: initially 1 (footnote 4) *)
    mutable last_ack : bool option;
    mutable out : bool option;
    mutable stopped : bool;
  }

  let ticket env kind ~node ~epoch ~bit cred =
    S.verify env kind ~node ~epoch ~bit
      ~msg:(S.statement env kind ~epoch ~bit)
      ~p:(S.difficulty env kind) cred

  let verify_msg env ~sender = function
    | Propose { epoch; bit; cred } ->
        ticket env `Propose ~node:sender ~epoch ~bit cred
    | Ack { epoch; bit; cred } -> ticket env `Ack ~node:sender ~epoch ~bit cred

  (* "Ample ACKs" for each bit: valid [epoch] ACKs for it from a quorum of
     distinct nodes. *)
  let ample env ~epoch inbox =
    let ackers = [| Iset.empty; Iset.empty |] in
    List.iter
      (fun (sender, m) ->
        match m with
        | Ack { epoch = e; bit; cred } when e = epoch ->
            let i = Bool.to_int bit in
            if (not (Iset.mem sender ackers.(i)))
               && ticket env `Ack ~node:sender ~epoch ~bit cred
            then ackers.(i) <- Iset.add sender ackers.(i)
        | Ack _ | Propose _ -> ())
      inbox;
    let q = S.quorum env in
    (Iset.cardinal ackers.(0) >= q, Iset.cardinal ackers.(1) >= q)

  (* Whether a valid [epoch] proposal named each bit. *)
  let proposed env ~epoch inbox =
    List.fold_left
      (fun ((p0, p1) as heard) (sender, m) ->
        match m with
        | Propose { epoch = e; bit; cred }
          when e = epoch
               && S.may_propose env ~epoch ~node:sender
               && (not (if bit then p1 else p0))
               && ticket env `Propose ~node:sender ~epoch ~bit cred ->
            if bit then (p0, true) else (true, p1)
        | Propose _ | Ack _ -> heard)
      (false, false) inbox

  (* What a round's inbox says about each bit: in a propose round, whether
     the last epoch's ACKs for it were ample; in an ACK round, whether a
     valid proposal named it. A listen reads nothing of the node's and
     keeps nothing, so one serves every node that received the inbox. *)
  let listen env ~round inbox =
    let epoch = round / 2 in
    if epoch >= S.max_epochs env then (false, false)
    else if round mod 2 = 0 then ample env ~epoch:(epoch - 1) inbox
    else proposed env ~epoch inbox

  (* A node's step once its inbox is heard, decided once per listen with
     the round's difficulty and its statement for each bit. The returned
     [act] finishes one node in O(1): its belief and sticky flag, at most
     one coin from its rng, and one [draw] of its ticket. *)
  let decide env ~draw ~round (h0, h1) =
    let epoch = round / 2 in
    if epoch >= S.max_epochs env then fun st ->
      st.out <- Some (S.output ~belief:st.belief ~last_ack:st.last_ack);
      st.stopped <- true;
      []
    else begin
      let propose = round mod 2 = 0 in
      let kind = if propose then `Propose else `Ack in
      let p = S.difficulty env kind
      and m0 = S.statement env kind ~epoch ~bit:false
      and m1 = S.statement env kind ~epoch ~bit:true in
      let send st bit =
        let msg = if bit then m1 else m0 in
        match draw env kind ~node:st.me ~epoch ~bit ~msg ~p with
        | None -> []
        | Some cred ->
            [ Basim.Engine.multicast
                (if propose then Propose { epoch; bit; cred }
                 else Ack { epoch; bit; cred }) ]
      in
      if propose then fun st ->
        (* Tally the last epoch's ACKs; then a proposer flips its coin. *)
        if epoch > 0 then begin
          if h0 && h1 then S.on_conflict env;
          if h0 <> h1 then st.belief <- h1;
          st.sticky <- h0 || h1
        end;
        if S.may_propose env ~epoch ~node:st.me then send st (Rng.bool st.rng)
        else []
      else fun st ->
        (* A sticky or unproposed node ACKs its belief; two proposals make
           it ACK an arbitrary bit, 0. *)
        let bit =
          if st.sticky then st.belief else (not h0) && (h1 || st.belief)
        in
        (* constant blocks: recording the ACK allocates nothing *)
        st.last_ack <- (if bit then Some true else Some false);
        send st bit
    end

  let init _env ~rng ~n:_ ~me ~input =
    { me; rng; belief = input; sticky = true; last_ack = None; out = None;
      stopped = false }

  let step env st ~round ~inbox =
    (st, decide env ~draw:S.mine ~round (listen env ~round inbox) st)

  let protocol ~name ~make_env ~msg_bits =
    { Basim.Engine.proto_name = name;
      make_env;
      init;
      step;
      output = (fun s -> s.out);
      halted = (fun s -> s.stopped);
      msg_bits }

  (* The crowd: one listen over the shared delivery tail and one [decide]
     serve every node whose inbox is that tail; a node with a private inbox
     is heard on its own. Nothing outlives the round, so nodes move in and
     out of the crowd freely and one hook serves any number of runs. *)
  let sparse_step () : (S.env, state, S.cred msg) Basim.Engine.sparse_step =
   fun env ~states rv ->
    let open Basim.Engine in
    let round = rv.rv_round in
    let heard = listen env ~round rv.rv_shared_inbox in
    let act = decide env ~draw:S.sample ~round heard in
    for k = 0 to rv.rv_n_active - 1 do
      let i = rv.rv_active.(k) in
      let st = states.(i) in
      if rv.rv_is_shared i then begin
        let sends = act st in
        (* a losing draw is silent: the engine's side of the round is
           O(emitters + halters) *)
        if st.stopped || sends <> [] then rv.rv_emit i sends
      end
      else begin
        let heard = listen env ~round (rv.rv_inbox i) in
        rv.rv_emit i (decide env ~draw:S.sample ~round heard st)
      end
    done

  let belief s = s.belief

  let sticky s = s.sticky
end
