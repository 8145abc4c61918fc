open Bacrypto

type msg = Signature.tag Hm.msg

let msg_kind = Hm.msg_kind

type env = {
  n : int;
  f : int;
  sigs : Signature.scheme;
  leaders : int array;
  max_iters : int;
  cert_cache : (Signature.tag Cert.t, unit) Hashtbl.t;
  proposal_cache : (Signature.tag Hm.proposal, unit) Hashtbl.t;
  memo : Signature.tag Hm.round_memo;
}

(* Signed statements, e.g. "qhm:Vote:3:1". *)
let statement kind ~iter ~bit =
  let name =
    match kind with
    | `Status -> "Status"
    | `Propose -> "Propose"
    | `Vote -> "Vote"
    | `Commit -> "Commit"
    | `Terminate -> "Terminate"
  in
  Printf.sprintf "qhm:%s:%d:%d" name iter (if bit then 1 else 0)

(* The C.1 ticket scheme: a ticket is a signature, which every node can
   always produce, and the iteration's public leader alone proposes. *)
module P = Hm.Make (struct
  type nonrec env = env

  type cred = Signature.tag

  let quorum env = env.f + 1

  let max_iters env = env.max_iters

  let cert_cache env = env.cert_cache

  let proposal_cache env = env.proposal_cache

  let memo env = env.memo

  let statement = statement

  let difficulty _env _kind = 1.0

  let may_propose env ~iter ~node =
    env.leaders.(iter mod Array.length env.leaders) = node

  let mine env ~node ~msg ~p:_ = Some (Signature.sign env.sigs ~signer:node msg)

  let sample = mine

  let verify env ~node ~msg ~p:_ tag =
    Signature.verify env.sigs ~signer:node msg tag

  let verify_many env ~msg ~p:_ entries =
    List.map
      (fun (node, tag) -> Signature.verify env.sigs ~signer:node msg tag)
      entries
end)

type state = P.state

let sign_vote env ~signer ~iter ~bit proposal =
  let cred = Signature.sign env.sigs ~signer (statement `Vote ~iter ~bit) in
  Hm.Vote { iter; bit; proposal; cred }

let sign_propose env ~signer ~iter ~bit cert =
  let cred = Signature.sign env.sigs ~signer (statement `Propose ~iter ~bit) in
  Hm.Propose
    { p_iter = iter; p_bit = bit; p_cert = cert; p_node = signer; p_cred = cred }

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
      proposal_cache = Hashtbl.create 64;
      memo = Hm.round_memo () }
  in
  (* A proposal's signer is the iteration's leader, so [p_node] is not
     sent. *)
  let tag_bits = Signature.tag_bits in
  let cert_bits c = Cert.size_bits c ~endorsement_bits:(fun _ -> tag_bits) in
  let propose_bits (p : Signature.tag Hm.proposal) =
    48 + tag_bits + cert_bits p.p_cert
  in
  let msg_bits _env : msg -> int = function
    | Status { cert; _ } -> 48 + tag_bits + cert_bits cert
    | Propose p -> propose_bits p
    | Vote { proposal = None; _ } -> 48 + tag_bits + 8
    | Vote { proposal = Some p; _ } -> 48 + tag_bits + propose_bits p
    | Commit { cert; _ } -> 48 + tag_bits + cert_bits (Some cert)
    | Terminate { commits; _ } ->
        48 + tag_bits + List.length commits * (32 + tag_bits)
  in
  P.protocol ~name:"quadratic-hm" ~make_env ~msg_bits

let sparse_step = P.sparse_step
