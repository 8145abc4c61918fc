open Bafmine

type elig_cert = Eligibility.credential Cert.t

type proposal = Eligibility.credential Hm.proposal

type msg = Eligibility.credential Hm.msg

let msg_kind = Hm.msg_kind

type env = {
  n : int;
  params : Params.t;
  committee_p : float;
      (* [Params.ack_probability params ~n], computed once: every
         receiver asks for it per delivered ticket, and a fresh float
         would be boxed on each call *)
  elig : Eligibility.t;
  fmine : Fmine.t option;
  cert_cache : (elig_cert, unit) Hashtbl.t;
      (* positive verification results, shared across receivers: sound
         because Fmine coins are memoized and VRF verification is
         deterministic, so a certificate that verified once verifies
         forever *)
  proposal_cache : (proposal, unit) Hashtbl.t;  (* same, for proposals *)
  memo : Eligibility.credential Hm.round_memo;
      (* this round's passed certificate and proposal checks *)
}

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

let committee_probability env = env.committee_p

let propose_probability env = Params.propose_probability ~n:env.n

let quorum env = Params.hm_quorum env.params

let make_vote ~iter ~bit ~proposal ~cred = Hm.Vote { iter; bit; proposal; cred }

let make_propose ~iter ~bit ~cert ~node ~cred =
  Hm.Propose
    { p_iter = iter; p_bit = bit; p_cert = cert; p_node = node; p_cred = cred }

(* The C.2 ticket scheme. Every function reads [env.elig] when called, so a
   caller that swaps in wrapped eligibility functions is obeyed. *)
module P = Hm.Make (struct
  type nonrec env = env

  type cred = Eligibility.credential

  let quorum = quorum

  let max_iters env = env.params.Params.max_epochs

  let cert_cache env = env.cert_cache

  let proposal_cache env = env.proposal_cache

  let memo env = env.memo

  let statement kind ~iter ~bit =
    match kind with
    | `Terminate -> terminate_mining_string ~bit
    | (`Status | `Propose | `Vote | `Commit) as kind ->
        mining_string kind ~iter ~bit

  let difficulty env = function
    | `Propose -> propose_probability env
    | `Status | `Vote | `Commit | `Terminate -> committee_probability env

  (* whoever wins a Propose ticket proposes *)
  let may_propose _env ~iter:_ ~node:_ = true

  let mine env ~node ~msg ~p = env.elig.Eligibility.mine ~node ~msg ~p

  let sample env ~node ~msg ~p = env.elig.Eligibility.sample ~node ~msg ~p

  let verify env ~node ~msg ~p cred =
    env.elig.Eligibility.verify ~node ~msg ~p cred

  let verify_many env ~msg ~p entries =
    env.elig.Eligibility.verify_many ~msg ~p entries
end)

type state = P.state

let protocol ~params ~world =
  let make_env ~n rng =
    let elig, fmine =
      match world with
      | `Hybrid ->
          let fmine = Fmine.create rng in
          (Eligibility.hybrid fmine, Some fmine)
      | `Real -> (Compiler.real_world (Bacrypto.Pki.setup ~n rng), None)
    in
    { n;
      params;
      committee_p = Params.ack_probability params ~n;
      elig;
      fmine;
      cert_cache = Hashtbl.create 256;
      proposal_cache = Hashtbl.create 64;
      memo = Hm.round_memo () }
  in
  let cred_bits env c = env.elig.Eligibility.credential_bits c in
  let cert_bits env c =
    Cert.size_bits c ~endorsement_bits:(fun cr -> cred_bits env cr)
  in
  (* a proposal names its proposer: 32 bits *)
  let propose_bits env (p : proposal) =
    48 + 32 + cred_bits env p.p_cred + cert_bits env p.p_cert
  in
  let msg_bits env : msg -> int = function
    | Status { cert; cred; _ } -> 48 + cred_bits env cred + cert_bits env cert
    | Propose p -> propose_bits env p
    | Vote { proposal = None; cred; _ } -> 48 + cred_bits env cred + 8
    | Vote { proposal = Some p; cred; _ } ->
        48 + cred_bits env cred + propose_bits env p
    | Commit { cert; cred; _ } ->
        48 + cred_bits env cred + cert_bits env (Some cert)
    | Terminate { commits; cred; _ } ->
        48 + cred_bits env cred
        + List.fold_left
            (fun acc (_, c) -> acc + 32 + cred_bits env c)
            0 commits
  in
  P.protocol
    ~name:(match world with `Hybrid -> "sub-hm" | `Real -> "sub-hm-real")
    ~make_env ~msg_bits

let sparse_step = P.sparse_step
