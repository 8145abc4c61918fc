open Bafmine

type mode = Bit_specific | Bit_agnostic

type world = [ `Hybrid | `Real ]

type env = {
  n : int;
  params : Params.t;
  elig : Eligibility.t;
  mode : mode;
  mutable conflicts : int;
}

type msg = Eligibility.credential Third.msg

let msg_kind = Third.msg_kind

let ack_mining_string mode ~epoch ~bit =
  Eligibility.mining_msg ~tag:"sub3:ACK" ~iter:epoch
    ~bit:(match mode with Bit_specific -> Some bit | Bit_agnostic -> None)

let propose_mining_string ~epoch ~bit =
  Eligibility.mining_msg ~tag:"sub3:Propose" ~iter:epoch ~bit:(Some bit)

let ack_probability env = Params.ack_probability env.params ~n:env.n

let propose_probability env = Params.propose_probability ~n:env.n

let make_ack ~epoch ~bit ~cred = Third.Ack { epoch; bit; cred }

let make_propose ~epoch ~bit ~cred = Third.Propose { epoch; bit; cred }

(* The §3.2 scheme: an eligibility ticket per message, a 2λ/3 quorum, and
   a Propose lottery in place of the leader. Every function reads
   [env.elig] when called. *)
module P = Third.Make (struct
  type nonrec env = env

  type cred = Eligibility.credential

  let max_epochs env = env.params.Params.max_epochs

  let quorum env = Params.third_quorum env.params

  (* whoever wins a Propose ticket proposes *)
  let may_propose _env ~epoch:_ ~node:_ = true

  let statement env kind ~epoch ~bit =
    match kind with
    | `Propose -> propose_mining_string ~epoch ~bit
    | `Ack -> ack_mining_string env.mode ~epoch ~bit

  let difficulty env = function
    | `Propose -> propose_probability env
    | `Ack -> ack_probability env

  let mine env _kind ~node ~epoch:_ ~bit:_ ~msg ~p =
    env.elig.Eligibility.mine ~node ~msg ~p

  let sample env _kind ~node ~epoch:_ ~bit:_ ~msg ~p =
    env.elig.Eligibility.sample ~node ~msg ~p

  let verify env _kind ~node ~epoch:_ ~bit:_ ~msg ~p cred =
    env.elig.Eligibility.verify ~node ~msg ~p cred

  (* Within-epoch consistency broken: possible only past the resilience
     bound, or with bit-agnostic tickets under attack — the event the
     §3.3 Remark describes. *)
  let on_conflict env = env.conflicts <- env.conflicts + 1

  (* The §3.1 text outputs "the bit last ACKed"; here most nodes never
     win an ACK ticket, so the belief — which every node updates on ample
     ACKs — is the meaningful generalization. After a good epoch the two
     coincide for committee members. *)
  let output ~belief ~last_ack:_ = belief
end)

type state = P.state

let protocol ~params ~world ~mode =
  let make_env ~n rng =
    let elig =
      match world with
      | `Hybrid -> Eligibility.hybrid (Fmine.create rng)
      | `Real -> Compiler.real_world (Bacrypto.Pki.setup ~n rng)
    in
    { n; params; elig; mode; conflicts = 0 }
  in
  let msg_bits env (Third.Propose { cred; _ } | Third.Ack { cred; _ }) =
    48 + env.elig.Eligibility.credential_bits cred
  in
  P.protocol ~make_env ~msg_bits
    ~name:
      (match mode with
      | Bit_specific -> "sub-third"
      | Bit_agnostic -> "sub-third-bit-agnostic")

let sparse_step = P.sparse_step

let verify_msg = P.verify_msg

let belief = P.belief
