open Bacrypto

type env = { n : int; params : Params.t; sigs : Signature.scheme }

type msg = Signature.tag Third.msg

let msg_kind = Third.msg_kind

let leader ~n ~epoch = epoch mod n

(* The §3.1 scheme: a ticket is a signature on the statement, e.g.
   "warmup:Ack:3:1", which every node can always produce; the epoch's
   round-robin leader alone proposes; ample ACKs are 2n/3 of them. *)
module P = Third.Make (struct
  type nonrec env = env

  type cred = Signature.tag

  let max_epochs env = env.params.Params.max_epochs

  let quorum env = ((2 * env.n) + 2) / 3

  let may_propose env ~epoch ~node = leader ~n:env.n ~epoch = node

  let statement _env kind ~epoch ~bit =
    Printf.sprintf "warmup:%s:%d:%d"
      (match kind with `Propose -> "Propose" | `Ack -> "Ack")
      epoch
      (if bit then 1 else 0)

  let difficulty _env _kind = 1.0

  let mine env _kind ~node ~epoch:_ ~bit:_ ~msg ~p:_ =
    Some (Signature.sign env.sigs ~signer:node msg)

  let sample = mine

  let verify env _kind ~node ~epoch:_ ~bit:_ ~msg ~p:_ tag =
    Signature.verify env.sigs ~signer:node msg tag

  let on_conflict _env = ()

  (* the bit last ACKed, 0 if the node never ACKed *)
  let output ~belief:_ ~last_ack = Option.value last_ack ~default:false
end)

type state = P.state

let protocol ~params =
  P.protocol ~name:"warmup-third"
    ~make_env:(fun ~n rng -> { n; params; sigs = Signature.setup ~n rng })
    ~msg_bits:(fun _ _ -> 48 + Signature.tag_bits)

let sparse_step = P.sparse_step

let belief = P.belief

let sticky = P.sticky
