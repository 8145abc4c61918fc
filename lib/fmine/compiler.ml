open Bacrypto

(* The lottery both worlds of [paired] draw: node [node] wins [msg] at
   difficulty [p] iff its PRF output clears the difficulty. Only the
   output's top 53 bits are read, so no output string is built. *)
let lottery pki ~node ~msg ~p =
  let sk = Pki.secret_key pki node in
  Prf.eval_below sk.Vrf.witness.Nizk.pads msg ~p

let real_world pki =
  let params = Pki.params pki in
  let n = Pki.n pki in
  (* Every receiver checks every multicast credential, and a proof check
     is a pure function of (node, msg, rho, proof), so each distinct
     credential is verified once per run. The key holds every input that
     varies: an injected message may pair a genuine [rho] with another
     credential's proof, and both verdicts are kept, so a forgery seen
     first cannot change the answer for the genuine credential. *)
  let verified : (int * string * string * string, bool) Hashtbl.t =
    Hashtbl.create 256
  in
  let proof_ok ~node ~msg ev =
    let key = (node, msg, ev.Vrf.rho, Nizk.proof_to_string ev.Vrf.proof) in
    match Hashtbl.find_opt verified key with
    | Some ok -> ok
    | None ->
        let ok = Vrf.verify params (Pki.public_key pki node) msg ev in
        Hashtbl.replace verified key ok;
        ok
  in
  (* A credential may arrive from the adversary, so [node] is any int and
     [rho] arbitrary bytes: an id off the PKI, or a [rho] of the wrong
     length, is rejected before the difficulty check reads its leading
     bytes. The difficulty is checked on every call, so it stays out of
     the key. *)
  let check ~node ~msg ~p = function
    | Eligibility.Ideal_ticket -> false
    | Eligibility.Vrf_credential ev ->
        node >= 0 && node < n
        && String.length ev.Vrf.rho = Sha256.digest_size
        && Prf.below_difficulty ev.Vrf.rho ~p
        && proof_ok ~node ~msg ev
  in
  (* The proof is built only for a winning draw; [Vrf.eval] recomputes
     the same [rho] alongside it. *)
  let mine ~node ~msg ~p =
    if lottery pki ~node ~msg ~p then
      Some
        (Eligibility.Vrf_credential
           (Vrf.eval params (Pki.secret_key pki node) msg))
    else None
  in
  { Eligibility.mine;
    (* VRF mining keeps no per-attempt state, so sampling is mining. *)
    sample = mine;
    verify = check;
    verify_many = Eligibility.map_verify check;
    credential_bits =
      (function
        | Eligibility.Ideal_ticket -> 0
        | Eligibility.Vrf_credential ev -> Vrf.evaluation_bits ev) }

let hybrid_from_pki pki =
  Eligibility.hybrid (Fmine.of_coin (lottery pki))

let paired pki = (hybrid_from_pki pki, real_world pki)
