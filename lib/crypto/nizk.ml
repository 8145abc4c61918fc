type crs = { trapdoor : Hmac.key_ctx }

type statement = {
  rho : string;
  com : Commitment.t;
  crs_comm : string;
  msg : string;
}

type witness = { sk : Prf.key; pads : Prf.cached; salt : string }

let witness ~sk ~salt = { sk; pads = Prf.cache sk; salt }

type proof = { tag : string }

(* Charged wire size of a real GOS proof for this relation. *)
let simulated_proof_bytes = 384

let gen rng =
  let key =
    String.init 32 (fun _ ->
        Char.chr (Int64.to_int (Int64.logand (Rng.next_int64 rng) 0xffL)))
  in
  { trapdoor = Hmac.precompute ~key }

let encode_statement stmt =
  Sha256.digest_concat [ "nizk-stmt"; stmt.rho; stmt.com; stmt.crs_comm; stmt.msg ]

let in_language crs_comm stmt w =
  String.equal stmt.crs_comm (Commitment.crs_to_string crs_comm)
  && Commitment.verify crs_comm stmt.com ~value:w.sk ~salt:w.salt
  && String.equal stmt.rho (Prf.eval_cached w.pads stmt.msg)

let prove crs crs_comm stmt w =
  if not (in_language crs_comm stmt w) then
    invalid_arg "Nizk.prove: statement not in the language";
  { tag = Hmac.mac_with crs.trapdoor (encode_statement stmt) }

let verify crs stmt proof =
  Hmac.equal proof.tag (Hmac.mac_with crs.trapdoor (encode_statement stmt))

let proof_bits _ = simulated_proof_bytes * 8

let proof_to_string proof = proof.tag
