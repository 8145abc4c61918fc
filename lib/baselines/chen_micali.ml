open Bacore
open Bafmine
module Fs = Bacrypto.Forward_secure

type ticket = Eligibility.credential * Fs.tag option

type env = {
  n : int;
  params : Params.t;
  elig : Eligibility.t;
  fs : Fs.scheme;
  erasure : bool;
  mutable conflicts : int;
}

type msg = ticket Third.msg

let msg_kind = Third.msg_kind

let ack_bit_stmt ~epoch ~bit =
  Printf.sprintf "cm:ackbit:%d:%d" epoch (if bit then 1 else 0)

let make_ack ~epoch ~bit ~cred ~fs_sig =
  Third.Ack { epoch; bit; cred = (cred, Some fs_sig) }

(* A drawn credential becomes a ticket: on an ACK, with the slot-[epoch]
   signature on the bit. Under the erasure model the node then erases the
   slot key, won or lost — the ephemeral-key discipline, atomic with the
   send and before the adversary can corrupt the node this round. *)
let with_slot env kind ~node ~epoch ~bit won =
  let ticket =
    match (won, kind) with
    | None, _ -> None
    | Some cred, `Propose -> Some (cred, None)
    | Some cred, `Ack ->
        let stmt = ack_bit_stmt ~epoch ~bit in
        Some (cred, Some (Fs.sign env.fs ~signer:node ~slot:epoch stmt))
  in
  (match kind with
  | `Ack when env.erasure -> Fs.update env.fs ~signer:node ~slot:(epoch + 1)
  | `Ack | `Propose -> ());
  ticket

(* The §3.2 scheme but for the ACK ticket, which names only the round
   ("cm:ACK:<epoch>") and is bound to its bit by the slot signature. *)
module P = Third.Make (struct
  type nonrec env = env

  type cred = ticket

  let max_epochs env = env.params.Params.max_epochs

  let quorum env = Params.third_quorum env.params

  let may_propose _env ~epoch:_ ~node:_ = true

  let statement _env kind ~epoch ~bit =
    match kind with
    | `Propose -> Printf.sprintf "cm:Propose:%d:%d" epoch (if bit then 1 else 0)
    | `Ack -> Printf.sprintf "cm:ACK:%d" epoch

  let difficulty env = function
    | `Propose -> Params.propose_probability ~n:env.n
    | `Ack -> Params.ack_probability env.params ~n:env.n

  let mine env kind ~node ~epoch ~bit ~msg ~p =
    with_slot env kind ~node ~epoch ~bit
      (env.elig.Eligibility.mine ~node ~msg ~p)

  let sample env kind ~node ~epoch ~bit ~msg ~p =
    with_slot env kind ~node ~epoch ~bit
      (env.elig.Eligibility.sample ~node ~msg ~p)

  let verify env kind ~node ~epoch ~bit ~msg ~p (cred, fs_sig) =
    env.elig.Eligibility.verify ~node ~msg ~p cred
    &&
    match (kind, fs_sig) with
    | `Propose, _ -> true
    | `Ack, Some s ->
        Fs.verify env.fs ~signer:node ~slot:epoch (ack_bit_stmt ~epoch ~bit) s
    | `Ack, None -> false

  let on_conflict env = env.conflicts <- env.conflicts + 1

  let output ~belief ~last_ack:_ = belief
end)

type state = P.state

let protocol ~params ~erasure =
  let make_env ~n rng =
    let elig = Eligibility.hybrid (Fmine.create rng) in
    { n; params; elig; fs = Fs.setup ~n rng; erasure; conflicts = 0 }
  in
  let msg_bits env m =
    match m with
    | Third.Propose { cred = c, _; _ } ->
        48 + env.elig.Eligibility.credential_bits c
    | Third.Ack { cred = c, _; _ } ->
        48 + env.elig.Eligibility.credential_bits c + 256
  in
  P.protocol ~make_env ~msg_bits
    ~name:(if erasure then "chen-micali" else "chen-micali-no-erasure")

let sparse_step = P.sparse_step
