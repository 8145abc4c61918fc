(* Tests for the Fmine ideal functionality, the eligibility interface, and
   the Appendix-D compiler. *)

open Bafmine

let fresh_fmine seed = Fmine.create (Bacrypto.Rng.create seed)

(* --- Fmine (Figure 1) -------------------------------------------------- *)

let test_mine_memoized () =
  let f = fresh_fmine 1L in
  let first = Fmine.mine f ~node:3 ~msg:"Vote:1:0" ~p:0.5 in
  for _ = 1 to 10 do
    Alcotest.(check bool) "same answer" first (Fmine.mine f ~node:3 ~msg:"Vote:1:0" ~p:0.5)
  done;
  Alcotest.(check int) "one attempt recorded" 1 (Fmine.attempts f)

let test_mine_probability_consistency () =
  let f = fresh_fmine 2L in
  ignore (Fmine.mine f ~node:0 ~msg:"m" ~p:0.5);
  Alcotest.check_raises "changing p rejected"
    (Invalid_argument "Fmine.mine: same (node, msg) mined with a different p")
    (fun () -> ignore (Fmine.mine f ~node:0 ~msg:"m" ~p:0.25))

let test_verify_unmined_is_false () =
  let f = fresh_fmine 3L in
  Alcotest.(check bool) "unattempted mine verifies false" false
    (Fmine.verify f ~node:7 ~msg:"never-mined")

let test_verify_matches_mine () =
  let f = fresh_fmine 4L in
  for node = 0 to 20 do
    let outcome = Fmine.mine f ~node ~msg:"Commit:2:1" ~p:0.4 in
    Alcotest.(check bool) "verify = mine" outcome
      (Fmine.verify f ~node ~msg:"Commit:2:1")
  done

let test_mine_rate () =
  let f = fresh_fmine 5L in
  let n = 20_000 in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    if Fmine.mine f ~node:i ~msg:"rate-test" ~p:0.1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.4f near 0.1" rate)
    true
    (abs_float (rate -. 0.1) < 0.01);
  Alcotest.(check int) "successes tracked" !hits (Fmine.successes f)

let test_mine_independent_across_messages () =
  (* The coins for (node, m) and (node, m') are independent — this is the
     bit-specific-eligibility property at the Fmine level: node 3's coin
     for ACK of bit 0 says nothing about its coin for bit 1. *)
  let f = fresh_fmine 6L in
  let agree = ref 0 and n = 2000 in
  for node = 0 to n - 1 do
    let a = Fmine.mine f ~node ~msg:"ACK:1:0" ~p:0.5 in
    let b = Fmine.mine f ~node ~msg:"ACK:1:1" ~p:0.5 in
    if a = b then incr agree
  done;
  let rate = float_of_int !agree /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "agreement rate %.3f near 0.5" rate)
    true
    (abs_float (rate -. 0.5) < 0.05)

(* A message is its contents: a string built at run time equals the
   literal a node mined under but is another object, and must reach the
   same memoized draw. *)
let test_equal_copy_of_message () =
  let f = fresh_fmine 8L in
  let literal = "Vote:1:0" in
  let built = String.concat ":" [ "Vote"; "1"; "0" ] in
  Alcotest.(check bool) "equal contents, another object" true
    (String.equal literal built && literal != built);
  let outcomes =
    List.init 40 (fun node -> Fmine.mine f ~node ~msg:literal ~p:0.5)
  in
  let attempts = Fmine.attempts f in
  List.iteri
    (fun node outcome ->
      Alcotest.(check bool) "sample of the copy is memoized" outcome
        (Fmine.sample f ~node ~msg:built ~p:0.5);
      Alcotest.(check bool) "mine of the copy is memoized" outcome
        (Fmine.mine f ~node ~msg:built ~p:0.5);
      Alcotest.(check bool) "verify of the copy agrees" outcome
        (Fmine.verify f ~node ~msg:built))
    outcomes;
  Alcotest.(check int) "no coin flipped again" attempts (Fmine.attempts f);
  Alcotest.check_raises "changing p through the copy rejected"
    (Invalid_argument "Fmine.mine: same (node, msg) mined with a different p")
    (fun () -> ignore (Fmine.sample f ~node:0 ~msg:built ~p:0.25))

(* Alternating between two messages, node by node, is the same as
   drawing all of one and then all of the other. *)
let test_interleaved_messages () =
  let a = "Commit:4:1" and b = "Status:4:0" in
  let draw f ~node msg =
    if msg == a then Fmine.sample f ~node ~msg ~p:0.3
    else Fmine.mine f ~node ~msg ~p:0.6
  in
  let n = 200 in
  let seq = fresh_fmine 9L and mixed = fresh_fmine 9L in
  let seq_a = List.init n (fun node -> draw seq ~node a) in
  let seq_b = List.init n (fun node -> draw seq ~node b) in
  let mixed_ab =
    List.init n (fun node ->
        let x = draw mixed ~node a in
        let y = draw mixed ~node b in
        (x, y))
  in
  Alcotest.(check (list bool)) "outcomes for a" seq_a (List.map fst mixed_ab);
  Alcotest.(check (list bool)) "outcomes for b" seq_b (List.map snd mixed_ab);
  List.iter
    (fun msg ->
      for node = 0 to n - 1 do
        Alcotest.(check bool) "verify agrees"
          (Fmine.verify seq ~node ~msg) (Fmine.verify mixed ~node ~msg)
      done)
    [ a; b ];
  Alcotest.(check int) "attempts" (Fmine.attempts seq) (Fmine.attempts mixed);
  Alcotest.(check int) "attempts = every coin" (2 * n) (Fmine.attempts mixed);
  Alcotest.(check int) "successes" (Fmine.successes seq)
    (Fmine.successes mixed);
  List.iter
    (fun prefix ->
      Alcotest.(check int) ("successes_for " ^ prefix)
        (Fmine.successes_for seq ~prefix)
        (Fmine.successes_for mixed ~prefix))
    [ "Commit"; "Status"; "" ]

(* --- Eligibility (hybrid world) ---------------------------------------- *)

let test_hybrid_mine_verify_roundtrip () =
  let elig = Eligibility.hybrid (fresh_fmine 7L) in
  let found = ref false in
  for node = 0 to 50 do
    match elig.Eligibility.mine ~node ~msg:"Vote:1:1" ~p:0.3 with
    | Some cred ->
        found := true;
        Alcotest.(check bool) "credential verifies" true
          (elig.Eligibility.verify ~node ~msg:"Vote:1:1" ~p:0.3 cred);
        Alcotest.(check int) "zero wire bits" 0
          (elig.Eligibility.credential_bits cred)
    | None ->
        Alcotest.(check bool) "ineligible node cannot claim" false
          (elig.Eligibility.verify ~node ~msg:"Vote:1:1" ~p:0.3
             Eligibility.Ideal_ticket)
  done;
  Alcotest.(check bool) "some node won with p=0.3 over 51 nodes" true !found

let test_hybrid_rejects_unmined_claim () =
  let elig = Eligibility.hybrid (fresh_fmine 8L) in
  Alcotest.(check bool) "claim without mine rejected" false
    (elig.Eligibility.verify ~node:5 ~msg:"Vote:9:0" ~p:0.9
       Eligibility.Ideal_ticket)

let test_mining_msg_encoding () =
  Alcotest.(check string) "bit-specific" "ACK:3:1"
    (Eligibility.mining_msg ~tag:"ACK" ~iter:3 ~bit:(Some true));
  Alcotest.(check string) "bit 0" "ACK:3:0"
    (Eligibility.mining_msg ~tag:"ACK" ~iter:3 ~bit:(Some false));
  Alcotest.(check string) "bit-agnostic" "ACK:3"
    (Eligibility.mining_msg ~tag:"ACK" ~iter:3 ~bit:None)

(* --- Compiler (Appendix D) --------------------------------------------- *)

let fresh_pki ~n seed = Bacrypto.Pki.setup ~n (Bacrypto.Rng.create seed)

let test_real_world_roundtrip () =
  let pki = fresh_pki ~n:30 9L in
  let elig = Compiler.real_world pki in
  let wins = ref 0 in
  for node = 0 to 29 do
    match elig.Eligibility.mine ~node ~msg:"Vote:2:0" ~p:0.5 with
    | Some cred ->
        incr wins;
        Alcotest.(check bool) "vrf credential verifies" true
          (elig.Eligibility.verify ~node ~msg:"Vote:2:0" ~p:0.5 cred);
        Alcotest.(check bool) "credential has wire cost" true
          (elig.Eligibility.credential_bits cred > 0)
    | None -> ()
  done;
  Alcotest.(check bool) "roughly half win at p=0.5" true (!wins > 5 && !wins < 25)

let test_real_world_rejects_stolen_credential () =
  let pki = fresh_pki ~n:4 10L in
  let elig = Compiler.real_world pki in
  (* Find a winning node and try to replay its credential as another node. *)
  let rec find node =
    if node >= 4 then None
    else
      match elig.Eligibility.mine ~node ~msg:"Vote:1:1" ~p:0.99 with
      | Some cred -> Some (node, cred)
      | None -> find (node + 1)
  in
  match find 0 with
  | None -> Alcotest.fail "no winner at p=0.99"
  | Some (node, cred) ->
      let thief = (node + 1) mod 4 in
      (* the owner's check comes first, so a verdict remembered for the
         credential alone would wrongly admit the thief *)
      Alcotest.(check bool) "owner's credential verifies" true
        (elig.Eligibility.verify ~node ~msg:"Vote:1:1" ~p:0.99 cred);
      Alcotest.(check bool) "replay under other identity rejected" false
        (elig.Eligibility.verify ~node:thief ~msg:"Vote:1:1" ~p:0.99 cred)

let test_real_world_rejects_wrong_message () =
  let pki = fresh_pki ~n:4 11L in
  let elig = Compiler.real_world pki in
  match elig.Eligibility.mine ~node:0 ~msg:"Vote:1:1" ~p:0.99 with
  | None -> Alcotest.fail "should win at p=0.99"
  | Some cred ->
      Alcotest.(check bool) "credential bound to message" false
        (elig.Eligibility.verify ~node:0 ~msg:"Vote:2:1" ~p:0.99 cred)

let test_real_world_rejects_above_difficulty () =
  let pki = fresh_pki ~n:4 12L in
  let elig = Compiler.real_world pki in
  match elig.Eligibility.mine ~node:0 ~msg:"m" ~p:1.0 with
  | None -> Alcotest.fail "p=1 always wins"
  | Some cred ->
      (* The same credential claimed at a (much) harder difficulty fails
         unless the output also clears that difficulty — also after it
         verified at the easy one, since p is no part of what the real
         world remembers. *)
      Alcotest.(check bool) "easy difficulty accepts" true
        (elig.Eligibility.verify ~node:0 ~msg:"m" ~p:1.0 cred);
      let accepted = elig.Eligibility.verify ~node:0 ~msg:"m" ~p:1e-12 cred in
      Alcotest.(check bool) "tiny difficulty rejects" false accepted

let test_paired_worlds_agree () =
  (* The E9 coupling: same lottery in both worlds. *)
  let pki = fresh_pki ~n:50 13L in
  let hybrid, real = Compiler.paired pki in
  for node = 0 to 49 do
    let msgs = [ "Vote:1:0"; "Vote:1:1"; "Status:2:0"; "Terminate:1" ] in
    List.iter
      (fun msg ->
        let h = hybrid.Eligibility.mine ~node ~msg ~p:0.3 <> None in
        let r = real.Eligibility.mine ~node ~msg ~p:0.3 <> None in
        Alcotest.(check bool) (Printf.sprintf "node %d %s" node msg) h r)
      msgs
  done

let test_cross_world_credentials_rejected () =
  let pki = fresh_pki ~n:4 14L in
  let hybrid, real = Compiler.paired pki in
  (* An ideal ticket means nothing in the real world and vice versa. *)
  (match hybrid.Eligibility.mine ~node:0 ~msg:"m" ~p:1.0 with
  | Some cred ->
      Alcotest.(check bool) "ideal ticket rejected by real verifier" false
        (real.Eligibility.verify ~node:0 ~msg:"m" ~p:1.0 cred)
  | None -> Alcotest.fail "p=1 wins");
  match real.Eligibility.mine ~node:0 ~msg:"m" ~p:1.0 with
  | Some cred ->
      Alcotest.(check bool) "vrf credential rejected by hybrid verifier" false
        (hybrid.Eligibility.verify ~node:0 ~msg:"m" ~p:1.0 cred)
  | None -> Alcotest.fail "p=1 wins"

(* The paired hybrid world is Figure 1's functionality over the PKI's
   lottery: a re-mine at another difficulty is a protocol bug there too. *)
let test_paired_hybrid_refuses_new_p () =
  let hybrid, _ = Compiler.paired (fresh_pki ~n:4 16L) in
  ignore (hybrid.Eligibility.mine ~node:1 ~msg:"Vote:1:0" ~p:0.5);
  Alcotest.check_raises "changing p rejected"
    (Invalid_argument "Fmine.mine: same (node, msg) mined with a different p")
    (fun () -> ignore (hybrid.Eligibility.mine ~node:1 ~msg:"Vote:1:0" ~p:0.25))

(* An injected VRF credential costs its wire size in either world. *)
let test_paired_hybrid_charges_vrf () =
  let hybrid, real = Compiler.paired (fresh_pki ~n:4 17L) in
  match real.Eligibility.mine ~node:0 ~msg:"m" ~p:1.0 with
  | Some (Eligibility.Vrf_credential ev as cred) ->
      Alcotest.(check int) "charged the evaluation's bits"
        (Bacrypto.Vrf.evaluation_bits ev)
        (hybrid.Eligibility.credential_bits cred)
  | Some Eligibility.Ideal_ticket | None ->
      Alcotest.fail "p=1 wins a VRF credential"

(* [Vrf.evaluation] is a public record, so an injected message can pair a
   genuine proof with an [rho] of any length. *)
let truncate = function
  | Eligibility.Vrf_credential ev ->
      Eligibility.Vrf_credential { ev with Bacrypto.Vrf.rho = "ab" }
  | Eligibility.Ideal_ticket -> Alcotest.fail "expected a VRF credential"

let test_real_world_rejects_truncated_rho () =
  let pki = fresh_pki ~n:4 15L in
  let elig = Compiler.real_world pki in
  match elig.Eligibility.mine ~node:2 ~msg:"Vote:1:0" ~p:1.0 with
  | None -> Alcotest.fail "p=1 always wins"
  | Some cred ->
      let short = truncate cred in
      Alcotest.(check bool) "verify rejects a 2-byte rho" false
        (elig.Eligibility.verify ~node:2 ~msg:"Vote:1:0" ~p:1.0 short);
      Alcotest.(check bool) "verify accepts the genuine credential" true
        (elig.Eligibility.verify ~node:2 ~msg:"Vote:1:0" ~p:1.0 cred);
      Alcotest.(check (list bool)) "verify_many rejects only the truncated"
        [ false; true; false ]
        (elig.Eligibility.verify_many ~msg:"Vote:1:0" ~p:1.0
           [ (2, short); (2, cred); (1, short) ])

let vrf_ev = function
  | Eligibility.Vrf_credential ev -> ev
  | Eligibility.Ideal_ticket -> Alcotest.fail "expected a VRF credential"

let flip_last_byte s =
  String.mapi
    (fun i c ->
      if i = String.length s - 1 then Char.chr (Char.code c lxor 1) else c)
    s

(* Genuine credentials of nodes 0 and 1 on one message, at p = 1 so that
   only the proof check can reject a mix of their parts. *)
let two_credentials seed =
  let pki = fresh_pki ~n:4 seed in
  let elig = Compiler.real_world pki in
  let mine node =
    match elig.Eligibility.mine ~node ~msg:"Vote:1:0" ~p:1.0 with
    | Some cred -> vrf_ev cred
    | None -> Alcotest.fail "p=1 always wins"
  in
  (elig, mine 0, mine 1)

let verify0 elig ev =
  elig.Eligibility.verify ~node:0 ~msg:"Vote:1:0" ~p:1.0
    (Eligibility.Vrf_credential ev)

(* The real world remembers each verdict under every input that varies,
   so a genuine credential verified first lends nothing to a mix of its
   parts with another credential's. *)
let test_real_world_memo_rejects_mixed_parts () =
  let elig, ev0, ev1 = two_credentials 17L in
  Alcotest.(check bool) "genuine credential verifies" true (verify0 elig ev0);
  Alcotest.(check bool) "its rho with another credential's proof" false
    (verify0 elig { ev0 with Bacrypto.Vrf.proof = ev1.Bacrypto.Vrf.proof });
  let flipped = flip_last_byte ev0.Bacrypto.Vrf.rho in
  Alcotest.(check bool) "its proof with one rho byte flipped" false
    (verify0 elig { ev0 with Bacrypto.Vrf.rho = flipped });
  Alcotest.(check bool) "genuine credential still verifies" true
    (verify0 elig ev0)

let test_real_world_memo_forgery_first () =
  let elig, ev0, ev1 = two_credentials 18L in
  let forged = { ev0 with Bacrypto.Vrf.proof = ev1.Bacrypto.Vrf.proof } in
  Alcotest.(check bool) "forgery seen first is rejected" false
    (verify0 elig forged);
  Alcotest.(check bool) "genuine credential then verifies" true
    (verify0 elig ev0);
  Alcotest.(check bool) "forgery still rejected" false (verify0 elig forged)

(* Endorser ids come off the wire: one outside the PKI is rejected, and
   neither verifier raises. *)
let test_real_world_rejects_off_pki_node () =
  let pki = fresh_pki ~n:4 19L in
  let elig = Compiler.real_world pki in
  match elig.Eligibility.mine ~node:3 ~msg:"Vote:1:0" ~p:1.0 with
  | None -> Alcotest.fail "p=1 always wins"
  | Some cred ->
      List.iter
        (fun node ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d rejected" node)
            false
            (elig.Eligibility.verify ~node ~msg:"Vote:1:0" ~p:1.0 cred))
        [ -1; 4; 5000; min_int; max_int ];
      Alcotest.(check (list bool)) "verify_many rejects only the off-PKI ids"
        [ false; true; false ]
        (elig.Eligibility.verify_many ~msg:"Vote:1:0" ~p:1.0
           [ (-1, cred); (3, cred); (5000, cred) ])

(* Corrupt node 0 multicasts [forge env] every round of a sub-HM run in
   the real world. Receivers must reject the forgeries, and the run must
   end in agreement. *)
let check_injections_ignored ~name forge =
  let open Bacore in
  let adversary : (Sub_hm.env, Sub_hm.msg) Basim.Engine.adversary =
    { Basim.Engine.adv_name = name;
      model = Basim.Corruption.Adaptive;
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 0 ]);
      intervene =
        (fun view ->
          List.map
            (fun payload ->
              Basim.Engine.Inject { src = 0; dst = Basim.Engine.All; payload })
            (forge view.Basim.Engine.env)) }
  in
  let n = 21 in
  (* λ = n: every honest node is on every committee, so the run decides
     within a few rounds, and every credential clears the difficulty *)
  let proto =
    Sub_hm.protocol ~params:(Params.make ~lambda:n ~max_epochs:4 ()) ~world:`Real
  in
  let inputs = Basim.Scenario.unanimous_inputs ~n true in
  let result =
    Basim.Engine.run proto ~adversary ~n ~budget:1 ~inputs ~max_rounds:20
      ~seed:16L
  in
  Alcotest.(check bool) "agreement, validity and termination" true
    (Basim.Properties.ok (Basim.Properties.agreement ~inputs result))

(* Node 0's genuine credential on a message no honest node mines. *)
let corrupt_credential env =
  env.Bacore.Sub_hm.elig.Eligibility.mine ~node:0 ~msg:"any" ~p:1.0

(* A Vote and a Status whose certificate carry a genuine proof with a
   truncated [rho]. *)
let test_truncated_vote_injection () =
  let open Bacore in
  check_injections_ignored ~name:"truncated-rho" (fun env ->
      match corrupt_credential env with
      | None -> []
      | Some cred ->
          let cred = truncate cred in
          let cert = Cert.make ~iter:1 ~bit:false ~endorsements:[ (0, cred) ] in
          [ Sub_hm.make_vote ~iter:1 ~bit:false ~proposal:None ~cred;
            Hm.Status { iter = 1; bit = false; cert = Some cert; cred } ])

(* A Status whose certificate names endorsers outside the PKI. *)
let test_off_pki_endorser_injection () =
  let open Bacore in
  check_injections_ignored ~name:"off-pki-endorsers" (fun env ->
      match corrupt_credential env with
      | None -> []
      | Some cred ->
          let cert =
            Cert.make ~iter:1 ~bit:false
              ~endorsements:[ (-1, cred); (5000, cred) ]
          in
          [ Hm.Status { iter = 1; bit = false; cert = Some cert; cred } ])

(* --- QCheck properties --------------------------------------------------- *)

(* One real-world check: who claims, on which of two messages, with
   whose [rho] (as is, one byte flipped, or truncated), whose proof, and
   at what difficulty. The pool holds the genuine credential of each
   (node, message) pair. A quarter of the checks present one unchanged,
   half change one of its inputs, and the rest mix inputs at random. *)
type claim = {
  claimant : int;
  msg_i : int;
  rho_c : int;
  rho_mut : int;
  proof_c : int;
  p : float;
}

let claim_msgs = [| "Vote:1:0"; "Vote:1:1" |]

let pool_owner c = c mod 4

let pool_msg c = c / 4

let claim_gen =
  let open QCheck.Gen in
  let p = oneofl [ 1.0; 0.5; 1e-3 ] in
  let genuine c p =
    { claimant = pool_owner c; msg_i = pool_msg c; rho_c = c; rho_mut = 0;
      proof_c = c; p }
  in
  let near_miss st =
    let g = genuine (int_bound 7 st) (p st) in
    match int_bound 4 st with
    | 0 -> { g with claimant = int_range (-1) 4 st }
    | 1 -> { g with msg_i = 1 - g.msg_i }
    | 2 -> { g with rho_c = int_bound 7 st }
    | 3 -> { g with rho_mut = int_range 1 2 st }
    | _ -> { g with proof_c = int_bound 7 st }
  in
  let random st =
    { claimant = int_range (-1) 4 st;
      msg_i = int_bound 1 st;
      rho_c = int_bound 7 st;
      rho_mut = int_bound 2 st;
      proof_c = int_bound 7 st;
      p = p st }
  in
  frequency [ (1, map2 genuine (int_bound 7) p); (2, near_miss); (1, random) ]

let print_claim c =
  Printf.sprintf "{claimant=%d; msg=%d; rho=%d/%d; proof=%d; p=%g}" c.claimant
    c.msg_i c.rho_c c.rho_mut c.proof_c c.p

let claims_arb =
  QCheck.(
    pair int64
      (make ~print:Print.(list print_claim)
         Gen.(list_size (1 -- 30) claim_gen)))

(* The verdict a fresh, unremembered check gives. *)
let reference_verify pki ~node ~msg ~p ev =
  node >= 0
  && node < Bacrypto.Pki.n pki
  && String.length ev.Bacrypto.Vrf.rho = Bacrypto.Sha256.digest_size
  && Bacrypto.Prf.below_difficulty ev.Bacrypto.Vrf.rho ~p
  && Bacrypto.Vrf.verify (Bacrypto.Pki.params pki)
       (Bacrypto.Pki.public_key pki node) msg ev

let real_world_matches_reference (seed, claims) =
  let open Bacrypto in
  let pki = fresh_pki ~n:4 seed in
  let pool =
    Array.init 8 (fun c ->
        Vrf.eval (Pki.params pki)
          (Pki.secret_key pki (pool_owner c))
          claim_msgs.(pool_msg c))
  in
  let elig = Compiler.real_world pki in
  let agrees c =
    let rho = pool.(c.rho_c).Vrf.rho in
    let rho =
      match c.rho_mut with 0 -> rho | 1 -> flip_last_byte rho | _ -> "ab"
    in
    let ev = { Vrf.rho; proof = pool.(c.proof_c).Vrf.proof } in
    let msg = claim_msgs.(c.msg_i) in
    Bool.equal
      (elig.Eligibility.verify ~node:c.claimant ~msg ~p:c.p
         (Eligibility.Vrf_credential ev))
      (reference_verify pki ~node:c.claimant ~msg ~p:c.p ev)
  in
  (* every claim twice, so each remembered verdict is read back *)
  List.for_all agrees (claims @ claims)

(* [mine] builds a proof only for a winning draw, and that credential is
   the one [Vrf.eval] gives. *)
let mine_proves_only_wins (seed, node, msg, p) =
  let open Bacrypto in
  let pki = fresh_pki ~n:4 seed in
  let ev = Vrf.eval (Pki.params pki) (Pki.secret_key pki node) msg in
  let wins = Prf.below_difficulty ev.Vrf.rho ~p in
  match (Compiler.real_world pki).Eligibility.mine ~node ~msg ~p with
  | Some (Eligibility.Vrf_credential got) ->
      wins
      && String.equal got.Vrf.rho ev.Vrf.rho
      && String.equal
           (Nizk.proof_to_string got.Vrf.proof)
           (Nizk.proof_to_string ev.Vrf.proof)
  | Some Eligibility.Ideal_ticket -> false
  | None -> not wins

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"fmine deterministic per (node,msg)" ~count:200
      (triple int64 (int_range 0 100) (string_of_size Gen.(1 -- 30)))
      (fun (seed, node, msg) ->
        let f = fresh_fmine seed in
        let a = Fmine.mine f ~node ~msg ~p:0.5 in
        let b = Fmine.mine f ~node ~msg ~p:0.5 in
        a = b);
    Test.make ~name:"hybrid verify iff mined successfully" ~count:100
      (pair int64 (int_range 0 50))
      (fun (seed, node) ->
        let elig = Eligibility.hybrid (fresh_fmine seed) in
        let won = elig.Eligibility.mine ~node ~msg:"m" ~p:0.5 <> None in
        let verified =
          elig.Eligibility.verify ~node ~msg:"m" ~p:0.5 Eligibility.Ideal_ticket
        in
        won = verified);
    Test.make ~name:"real-world completeness" ~count:40
      (pair int64 (string_of_size Gen.(1 -- 30)))
      (fun (seed, msg) ->
        let pki = fresh_pki ~n:3 seed in
        let elig = Compiler.real_world pki in
        match elig.Eligibility.mine ~node:1 ~msg ~p:1.0 with
        | Some cred -> elig.Eligibility.verify ~node:1 ~msg ~p:1.0 cred
        | None -> false);
    Test.make ~name:"real-world verify = per-call check" ~count:100 claims_arb
      real_world_matches_reference;
    Test.make ~name:"real-world mine proves only wins" ~count:100
      (quad int64 (int_range 0 3) (string_of_size Gen.(0 -- 20))
         (float_range 0.0 1.0))
      mine_proves_only_wins;
  ]

let () =
  let qcheck =
    List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xba005 |]))
      qcheck_tests
  in
  Alcotest.run "fmine"
    [ ( "fmine",
        [ Alcotest.test_case "memoized" `Quick test_mine_memoized;
          Alcotest.test_case "p consistency" `Quick test_mine_probability_consistency;
          Alcotest.test_case "verify unmined false" `Quick test_verify_unmined_is_false;
          Alcotest.test_case "verify matches mine" `Quick test_verify_matches_mine;
          Alcotest.test_case "success rate" `Quick test_mine_rate;
          Alcotest.test_case "independent across messages" `Quick
            test_mine_independent_across_messages;
          Alcotest.test_case "equal copy of a message" `Quick
            test_equal_copy_of_message;
          Alcotest.test_case "interleaved messages" `Quick
            test_interleaved_messages ] );
      ( "eligibility",
        [ Alcotest.test_case "hybrid roundtrip" `Quick test_hybrid_mine_verify_roundtrip;
          Alcotest.test_case "unmined claim rejected" `Quick test_hybrid_rejects_unmined_claim;
          Alcotest.test_case "mining msg encoding" `Quick test_mining_msg_encoding ] );
      ( "compiler",
        [ Alcotest.test_case "real-world roundtrip" `Quick test_real_world_roundtrip;
          Alcotest.test_case "stolen credential" `Quick test_real_world_rejects_stolen_credential;
          Alcotest.test_case "wrong message" `Quick test_real_world_rejects_wrong_message;
          Alcotest.test_case "difficulty enforced" `Quick test_real_world_rejects_above_difficulty;
          Alcotest.test_case "paired worlds agree" `Quick test_paired_worlds_agree;
          Alcotest.test_case "cross-world rejected" `Quick test_cross_world_credentials_rejected;
          Alcotest.test_case "paired p consistency" `Quick
            test_paired_hybrid_refuses_new_p;
          Alcotest.test_case "paired VRF bits charged" `Quick
            test_paired_hybrid_charges_vrf;
          Alcotest.test_case "truncated rho rejected" `Quick
            test_real_world_rejects_truncated_rho;
          Alcotest.test_case "truncated vote injection" `Quick
            test_truncated_vote_injection;
          Alcotest.test_case "mixed parts rejected" `Quick
            test_real_world_memo_rejects_mixed_parts;
          Alcotest.test_case "forgery seen first" `Quick
            test_real_world_memo_forgery_first;
          Alcotest.test_case "off-PKI node rejected" `Quick
            test_real_world_rejects_off_pki_node;
          Alcotest.test_case "off-PKI endorsers injected" `Quick
            test_off_pki_endorser_injection ] );
      ("properties", qcheck) ]
