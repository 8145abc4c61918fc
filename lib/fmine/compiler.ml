open Bacrypto

let real_world pki =
  let params = Pki.params pki in
  (* A credential may arrive from the adversary, so [rho] is arbitrary
     bytes: one of the wrong length is rejected before the difficulty
     check reads its leading bytes. *)
  let check ~node ~msg ~p = function
    | Eligibility.Ideal_ticket -> false
    | Eligibility.Vrf_credential ev ->
        String.length ev.Vrf.rho = Sha256.digest_size
        && Prf.below_difficulty ev.Vrf.rho ~p
        && Vrf.verify params (Pki.public_key pki node) msg ev
  in
  let mine ~node ~msg ~p =
    let ev = Vrf.eval params (Pki.secret_key pki node) msg in
    if Prf.below_difficulty ev.Vrf.rho ~p then
      Some (Eligibility.Vrf_credential ev)
    else None
  in
  { Eligibility.world = `Real;
    mine;
    (* VRF mining keeps no per-attempt state, so sampling is mining. *)
    sample = mine;
    verify = check;
    verify_many =
      (fun ~msg ~p entries ->
        List.map (fun (node, cred) -> check ~node ~msg ~p cred) entries);
    credential_bits =
      (function
        | Eligibility.Ideal_ticket -> 0
        | Eligibility.Vrf_credential ev -> Vrf.evaluation_bits ev) }

let hybrid_from_pki pki =
  (* Same Bernoulli lottery as the real world (PRF of the node's actual
     key), but credentials are ideal tickets and verification consults the
     functionality's own mined-set table, as in Figure 1. *)
  let mined : (int * string, bool) Hashtbl.t = Hashtbl.create 1024 in
  let lookup node msg =
    match Hashtbl.find_opt mined (node, msg) with Some o -> o | None -> false
  in
  let coin node msg p =
    let sk = Pki.secret_key pki node in
    let rho = Prf.eval_cached sk.Vrf.prf_cached msg in
    Prf.below_difficulty rho ~p
  in
  let verify ~node ~msg ~p:_ = function
    | Eligibility.Ideal_ticket -> lookup node msg
    | Eligibility.Vrf_credential _ -> false
  in
  { Eligibility.world = `Hybrid;
    mine =
      (fun ~node ~msg ~p ->
        let outcome =
          match Hashtbl.find_opt mined (node, msg) with
          | Some o -> o
          | None ->
              let o = coin node msg p in
              Hashtbl.replace mined (node, msg) o;
              o
        in
        if outcome then Some Eligibility.Ideal_ticket else None);
    sample =
      (fun ~node ~msg ~p ->
        (* winner-only memoization, as in [Fmine.sample] *)
        let outcome =
          match Hashtbl.find_opt mined (node, msg) with
          | Some o -> o
          | None ->
              let o = coin node msg p in
              if o then Hashtbl.replace mined (node, msg) o;
              o
        in
        if outcome then Some Eligibility.Ideal_ticket else None);
    verify;
    verify_many =
      (fun ~msg ~p entries ->
        List.map (fun (node, cred) -> verify ~node ~msg ~p cred) entries);
    credential_bits = (fun _ -> 0) }

let paired pki = (hybrid_from_pki pki, real_world pki)
