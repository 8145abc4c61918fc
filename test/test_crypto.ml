(* Unit and property tests for the cryptographic substrate. *)

open Bacrypto

let hex = Sha256.to_hex

(* --- SHA-256: NIST / well-known vectors ----------------------------- *)

let test_sha256_empty () =
  Alcotest.(check string) "sha256(\"\")"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Sha256.digest_string ""))

let test_sha256_abc () =
  Alcotest.(check string) "sha256(\"abc\")"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Sha256.digest_string "abc"))

let test_sha256_two_blocks () =
  Alcotest.(check string) "sha256 of 448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex (Sha256.digest_string
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_sha256_million_a () =
  Alcotest.(check string) "sha256 of one million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.digest_string (String.make 1_000_000 'a')))

let test_sha256_exact_block_boundaries () =
  (* Lengths chosen to straddle the 55/56/63/64-byte padding boundaries. *)
  let reference = [
    (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
    (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
    (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
    (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
    (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0");
  ] in
  List.iter
    (fun (len, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "sha256 of %d 'a's" len)
        expect
        (hex (Sha256.digest_string (String.make len 'a'))))
    reference

let test_sha256_incremental_matches_oneshot () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let oneshot = Sha256.digest_string msg in
  (* Feed in irregular chunks. *)
  let ctx = Sha256.init () in
  let chunks = [ 0; 1; 3; 7; 64; 65; 128; 200; 531; 1 ] in
  let pos = ref 0 in
  List.iter
    (fun len ->
      let len = min len (String.length msg - !pos) in
      Sha256.feed_bytes ctx (Bytes.of_string msg) ~pos:!pos ~len;
      pos := !pos + len)
    chunks;
  Sha256.feed_bytes ctx (Bytes.of_string msg) ~pos:!pos
    ~len:(String.length msg - !pos);
  Alcotest.(check string) "incremental = one-shot" (hex oneshot)
    (hex (Sha256.finalize ctx))

let test_sha256_concat_injective () =
  let d1 = Sha256.digest_concat [ "ab"; "c" ] in
  let d2 = Sha256.digest_concat [ "a"; "bc" ] in
  let d3 = Sha256.digest_concat [ "abc" ] in
  Alcotest.(check bool) "boundary shift changes digest" false
    (String.equal d1 d2);
  Alcotest.(check bool) "arity change changes digest" false
    (String.equal d1 d3)

let test_sha256_feed_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "negative pos"
    (Invalid_argument "Sha256.feed_bytes: range out of bounds") (fun () ->
      Sha256.feed_bytes ctx (Bytes.create 4) ~pos:(-1) ~len:2);
  Alcotest.check_raises "overlong len"
    (Invalid_argument "Sha256.feed_bytes: range out of bounds") (fun () ->
      Sha256.feed_bytes ctx (Bytes.create 4) ~pos:2 ~len:3)

(* --- HMAC: RFC 4231 vectors ------------------------------------------ *)

let test_hmac_rfc4231_case1 () =
  Alcotest.(check string) "rfc4231 #1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"))

let test_hmac_rfc4231_case2 () =
  Alcotest.(check string) "rfc4231 #2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_rfc4231_case3 () =
  Alcotest.(check string) "rfc4231 #3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')))

let test_hmac_long_key () =
  (* RFC 4231 #6: 131-byte key (longer than the block size). *)
  Alcotest.(check string) "rfc4231 #6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Hmac.mac
          ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_equal () =
  Alcotest.(check bool) "equal tags" true (Hmac.equal "abcd" "abcd");
  Alcotest.(check bool) "different tags" false (Hmac.equal "abcd" "abce");
  Alcotest.(check bool) "length mismatch" false (Hmac.equal "abc" "abcd")

(* --- RNG -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7L in
  let child = Rng.split parent in
  let xs = List.init 50 (fun _ -> Rng.next_int64 parent) in
  let ys = List.init 50 (fun _ -> Rng.next_int64 child) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

let test_rng_split_named_stable () =
  let mk () = Rng.create 9L in
  let a = Rng.split_named (mk ()) "alpha" in
  let a' = Rng.split_named (mk ()) "alpha" in
  let b = Rng.split_named (mk ()) "beta" in
  Alcotest.(check int64) "same label, same stream" (Rng.next_int64 a)
    (Rng.next_int64 a');
  Alcotest.(check bool) "different label, different stream" false
    (Rng.next_int64 (Rng.split_named (mk ()) "alpha") = Rng.next_int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 4L in
  for _ = 1 to 1000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 5L in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)

let test_rng_bernoulli_mean () =
  let rng = Rng.create 6L in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let mean = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f within 0.03 of 0.3" mean)
    true
    (abs_float (mean -. 0.3) < 0.03)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 8L in
  for _ = 1 to 100 do
    let k = Rng.int rng 10 and n = 10 + Rng.int rng 20 in
    let s = Rng.sample_without_replacement rng k n in
    Alcotest.(check int) "size k" k (List.length s);
    Alcotest.(check bool) "sorted distinct in range" true
      (List.for_all (fun x -> x >= 0 && x < n) s
      && List.sort_uniq compare s = s)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* Known answers, recorded before the state moved from a boxed [int64]
   field to an 8-byte buffer: a change of representation that alters
   any stream fails here, not only in the golden run digests. *)
let test_rng_known_answers () =
  let a = Rng.create 42L in
  Alcotest.(check (list int64)) "create 42: three draws"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]
    (List.init 3 (fun _ -> Rng.next_int64 a));
  let parent = Rng.create 7L in
  let child = Rng.split parent in
  Alcotest.(check int64) "split child" (-5137267319001854395L)
    (Rng.next_int64 child);
  Alcotest.(check int64) "parent after split" 309689372594955804L
    (Rng.next_int64 parent);
  let named = Rng.split_named (Rng.create 9L) "node-7" in
  Alcotest.(check (list int64)) "split_named (create 9) node-7"
    [ -9301023155060896L; 745843913939666573L ]
    (List.init 2 (fun _ -> Rng.next_int64 named));
  Alcotest.(check int64) "of_string ba" (-441307320009122016L)
    (Rng.next_int64 (Rng.of_string "ba"));
  let r = Rng.create 3L in
  Alcotest.(check (list int)) "int draws" [ 53; 2; 2084015055746161921 ]
    (List.map (Rng.int r) [ 1000; 7; max_int ]);
  let r = Rng.create 4L in
  Alcotest.(check (list (float 0.0))) "float draws"
    [ 0x1.b9cf8dcb88ce2p-2; 0x1.c8e98cd497316p-1 ]
    (List.init 2 (fun _ -> Rng.float r));
  let r = Rng.create 5L in
  Alcotest.(check (list bool)) "bool draws"
    [ false; false; true; true; true; false; true; true ]
    (List.init 8 (fun _ -> Rng.bool r))

(* --- PRF -------------------------------------------------------------- *)

let test_prf_deterministic () =
  let rng = Rng.create 21L in
  let key = Prf.gen rng in
  Alcotest.(check string) "same (k,m) same output"
    (hex (Prf.eval key "mine:ACK:3:1"))
    (hex (Prf.eval key "mine:ACK:3:1"))

let test_prf_distinct_messages () =
  let rng = Rng.create 22L in
  let key = Prf.gen rng in
  Alcotest.(check bool) "distinct messages differ" false
    (String.equal (Prf.eval key "a") (Prf.eval key "b"))

let test_prf_output_fraction_range () =
  let rng = Rng.create 23L in
  let key = Prf.gen rng in
  for i = 0 to 999 do
    let f = Prf.output_fraction (Prf.eval key (string_of_int i)) in
    Alcotest.(check bool) "fraction in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prf_below_difficulty_rate () =
  (* Empirical success rate of the eligibility lottery should match the
     difficulty parameter — this is the statistical heart of Fmine. *)
  let rng = Rng.create 24L in
  let key = Prf.gen rng in
  let p = 0.05 and n = 20_000 in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    if Prf.below_difficulty (Prf.eval key (string_of_int i)) ~p then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.4f close to %.2f" rate p)
    true
    (abs_float (rate -. p) < 0.01)

(* --- Commitments ------------------------------------------------------ *)

let test_commitment_roundtrip () =
  let rng = Rng.create 31L in
  let crs = Commitment.gen rng in
  let salt = Commitment.fresh_salt rng in
  let c = Commitment.commit crs ~value:"secret" ~salt in
  Alcotest.(check bool) "opens correctly" true
    (Commitment.verify crs c ~value:"secret" ~salt)

let test_commitment_binding () =
  let rng = Rng.create 32L in
  let crs = Commitment.gen rng in
  let salt = Commitment.fresh_salt rng in
  let c = Commitment.commit crs ~value:"secret" ~salt in
  Alcotest.(check bool) "wrong value rejected" false
    (Commitment.verify crs c ~value:"other" ~salt);
  Alcotest.(check bool) "wrong salt rejected" false
    (Commitment.verify crs c ~value:"secret" ~salt:(Commitment.fresh_salt rng))

let test_commitment_crs_separation () =
  let rng = Rng.create 33L in
  let crs1 = Commitment.gen rng and crs2 = Commitment.gen rng in
  let salt = Commitment.fresh_salt rng in
  let c = Commitment.commit crs1 ~value:"v" ~salt in
  Alcotest.(check bool) "commitment bound to its CRS" false
    (Commitment.verify crs2 c ~value:"v" ~salt)

(* --- NIZK ------------------------------------------------------------- *)

let nizk_setting () =
  let rng = Rng.create 41L in
  let crs_comm = Commitment.gen rng in
  let crs_nizk = Nizk.gen rng in
  let sk = Prf.gen rng in
  let salt = Commitment.fresh_salt rng in
  let com = Commitment.commit crs_comm ~value:sk ~salt in
  (rng, crs_comm, crs_nizk, sk, salt, com)

let statement crs_comm com sk msg =
  { Nizk.rho = Prf.eval sk msg;
    com;
    crs_comm = Commitment.crs_to_string crs_comm;
    msg }

let test_nizk_completeness () =
  let _, crs_comm, crs_nizk, sk, salt, com = nizk_setting () in
  let stmt = statement crs_comm com sk "propose:7:0" in
  let proof = Nizk.prove crs_nizk crs_comm stmt (Nizk.witness ~sk ~salt) in
  Alcotest.(check bool) "honest proof verifies" true
    (Nizk.verify crs_nizk stmt proof)

let test_nizk_rejects_false_statement () =
  let _, crs_comm, crs_nizk, sk, salt, com = nizk_setting () in
  let bad = { (statement crs_comm com sk "m") with Nizk.rho = String.make 32 'x' } in
  Alcotest.check_raises "prove refuses false statement"
    (Invalid_argument "Nizk.prove: statement not in the language") (fun () ->
      ignore (Nizk.prove crs_nizk crs_comm bad (Nizk.witness ~sk ~salt)))

let test_nizk_soundness_message_binding () =
  let _, crs_comm, crs_nizk, sk, salt, com = nizk_setting () in
  let stmt = statement crs_comm com sk "m1" in
  let proof = Nizk.prove crs_nizk crs_comm stmt (Nizk.witness ~sk ~salt) in
  (* Replaying the proof on a different statement must fail. *)
  let stmt2 = statement crs_comm com sk "m2" in
  Alcotest.(check bool) "proof bound to statement" false
    (Nizk.verify crs_nizk stmt2 proof)

let test_nizk_wrong_key_witness () =
  let rng, crs_comm, crs_nizk, sk, _salt, _com = nizk_setting () in
  (* A witness whose key does not match the commitment is rejected. *)
  let other_sk = Prf.gen rng in
  let other_salt = Commitment.fresh_salt rng in
  let com2 = Commitment.commit crs_comm ~value:other_sk ~salt:other_salt in
  let stmt = statement crs_comm com2 sk "m" in
  Alcotest.check_raises "mismatched witness"
    (Invalid_argument "Nizk.prove: statement not in the language") (fun () ->
      ignore
        (Nizk.prove crs_nizk crs_comm stmt (Nizk.witness ~sk ~salt:other_salt)))

(* --- Signatures -------------------------------------------------------- *)

let test_signature_roundtrip () =
  let rng = Rng.create 51L in
  let scheme = Signature.setup ~n:5 rng in
  let tag = Signature.sign scheme ~signer:3 "vote:1:0" in
  Alcotest.(check bool) "verifies" true
    (Signature.verify scheme ~signer:3 "vote:1:0" tag)

let test_signature_wrong_signer () =
  let rng = Rng.create 52L in
  let scheme = Signature.setup ~n:5 rng in
  let tag = Signature.sign scheme ~signer:3 "vote:1:0" in
  Alcotest.(check bool) "other signer rejected" false
    (Signature.verify scheme ~signer:2 "vote:1:0" tag)

let test_signature_wrong_message () =
  let rng = Rng.create 53L in
  let scheme = Signature.setup ~n:5 rng in
  let tag = Signature.sign scheme ~signer:1 "vote:1:0" in
  Alcotest.(check bool) "other message rejected" false
    (Signature.verify scheme ~signer:1 "vote:1:1" tag)

let test_signature_corrupt_key_signs () =
  let rng = Rng.create 54L in
  let scheme = Signature.setup ~n:4 rng in
  let key = Signature.corrupt_key scheme 2 in
  (* An adversary holding the key can produce valid tags for that node —
     and only that node. *)
  let forged = Hmac.mac_concat ~key [ "sig"; "equivocate" ] in
  Alcotest.(check bool) "corrupt key signs for its node" true
    (Signature.verify scheme ~signer:2 "equivocate" forged);
  Alcotest.(check bool) "corrupt key cannot sign for others" false
    (Signature.verify scheme ~signer:1 "equivocate" forged)

let test_signature_out_of_range () =
  let rng = Rng.create 55L in
  let scheme = Signature.setup ~n:3 rng in
  Alcotest.check_raises "signer out of range"
    (Invalid_argument "Signature: signer out of range") (fun () ->
      ignore (Signature.sign scheme ~signer:3 "m"))

(* A verifier reads the signer id off a received message: an id outside
   the scheme is a failed check, not an exception. *)
let test_signature_verify_out_of_range () =
  let rng = Rng.create 56L in
  let scheme = Signature.setup ~n:3 rng in
  let tag = Signature.sign scheme ~signer:2 "m" in
  List.iter
    (fun signer ->
      Alcotest.(check bool)
        (Printf.sprintf "signer %d rejected" signer)
        false
        (Signature.verify scheme ~signer "m" tag))
    [ -1; 3; 5000; min_int; max_int ];
  Alcotest.(check bool) "in-range signer still verifies" true
    (Signature.verify scheme ~signer:2 "m" tag)

(* --- VRF ---------------------------------------------------------------- *)

let vrf_setting () =
  let rng = Rng.create 61L in
  let params = { Vrf.crs_comm = Commitment.gen rng; crs_nizk = Nizk.gen rng } in
  (rng, params)

let test_vrf_completeness () =
  let rng, params = vrf_setting () in
  let sk, pk = Vrf.keygen params rng ~index:0 in
  let ev = Vrf.eval params sk "ACK:3:1" in
  Alcotest.(check bool) "eval verifies under own pk" true
    (Vrf.verify params pk "ACK:3:1" ev)

let test_vrf_uniqueness () =
  let rng, params = vrf_setting () in
  let sk, _pk = Vrf.keygen params rng ~index:0 in
  let ev1 = Vrf.eval params sk "m" and ev2 = Vrf.eval params sk "m" in
  Alcotest.(check string) "output deterministic" (hex ev1.Vrf.rho) (hex ev2.Vrf.rho)

let test_vrf_wrong_pk () =
  let rng, params = vrf_setting () in
  let sk0, _ = Vrf.keygen params rng ~index:0 in
  let _, pk1 = Vrf.keygen params rng ~index:1 in
  let ev = Vrf.eval params sk0 "m" in
  Alcotest.(check bool) "rejected under another pk" false
    (Vrf.verify params pk1 "m" ev)

let test_vrf_wrong_message () =
  let rng, params = vrf_setting () in
  let sk, pk = Vrf.keygen params rng ~index:0 in
  let ev = Vrf.eval params sk "m1" in
  Alcotest.(check bool) "rejected for another message" false
    (Vrf.verify params pk "m2" ev)

let test_vrf_bit_specific_independence () =
  (* The paper's key insight: eligibility for (ACK, r, 0) says nothing
     about eligibility for (ACK, r, 1): they are independent PRF points. *)
  let rng, params = vrf_setting () in
  let sk, _ = Vrf.keygen params rng ~index:0 in
  let e0 = Vrf.eval params sk "ACK:5:0" and e1 = Vrf.eval params sk "ACK:5:1" in
  Alcotest.(check bool) "outputs differ across bits" false
    (String.equal e0.Vrf.rho e1.Vrf.rho)

let test_vrf_output_uniformity () =
  let rng, params = vrf_setting () in
  let sk, _ = Vrf.keygen params rng ~index:0 in
  let n = 5000 in
  let below = ref 0 in
  for i = 0 to n - 1 do
    let ev = Vrf.eval params sk (Printf.sprintf "ACK:%d:0" i) in
    if Vrf.output_fraction ev < 0.25 then incr below
  done;
  let rate = float_of_int !below /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "P[f < .25] = %.3f within .03" rate)
    true
    (abs_float (rate -. 0.25) < 0.03)

(* --- PKI ---------------------------------------------------------------- *)

let test_pki_setup_consistency () =
  let rng = Rng.create 71L in
  let pki = Pki.setup ~n:10 rng in
  Alcotest.(check int) "n" 10 (Pki.n pki);
  (* Every secret key matches its published public key. *)
  for i = 0 to 9 do
    let sk = Pki.secret_key pki i and pk = Pki.public_key pki i in
    let ev = Vrf.eval (Pki.params pki) sk "check" in
    Alcotest.(check bool)
      (Printf.sprintf "node %d key pair coherent" i)
      true
      (Vrf.verify (Pki.params pki) pk "check" ev)
  done

let test_pki_corrupt_reveals_matching_state () =
  let rng = Rng.create 72L in
  let pki = Pki.setup ~n:4 rng in
  let state = Pki.corrupt pki 2 in
  let ev = Vrf.eval (Pki.params pki) state.Pki.vrf_sk "after-corruption" in
  Alcotest.(check bool) "revealed sk works under public pk" true
    (Vrf.verify (Pki.params pki) (Pki.public_key pki 2) "after-corruption" ev);
  let tag = Hmac.mac_concat ~key:state.Pki.sig_key [ "sig"; "m" ] in
  Alcotest.(check bool) "revealed sig key works" true
    (Signature.verify (Pki.signatures pki) ~signer:2 "m" tag)

let test_pki_out_of_range () =
  let rng = Rng.create 73L in
  let pki = Pki.setup ~n:3 rng in
  Alcotest.check_raises "bad index"
    (Invalid_argument "Pki: node index out of range") (fun () ->
      ignore (Pki.public_key pki 5))

(* --- Forward-secure signatures -------------------------------------------- *)

let fs_setup () = Forward_secure.setup ~n:4 (Rng.create 81L)

let test_fs_sign_verify () =
  let fs = fs_setup () in
  let tag = Forward_secure.sign fs ~signer:1 ~slot:3 "ack:3:1" in
  Alcotest.(check bool) "verifies" true
    (Forward_secure.verify fs ~signer:1 ~slot:3 "ack:3:1" tag);
  Alcotest.(check bool) "wrong slot rejected" false
    (Forward_secure.verify fs ~signer:1 ~slot:4 "ack:3:1" tag);
  Alcotest.(check bool) "wrong signer rejected" false
    (Forward_secure.verify fs ~signer:2 ~slot:3 "ack:3:1" tag)

let test_fs_erasure_blocks_old_slots () =
  let fs = fs_setup () in
  ignore (Forward_secure.sign fs ~signer:0 ~slot:2 "m");
  Forward_secure.update fs ~signer:0 ~slot:3;
  Alcotest.(check int) "current slot" 3 (Forward_secure.current_slot fs 0);
  Alcotest.check_raises "erased slot unusable"
    (Invalid_argument "Forward_secure.sign: slot key erased") (fun () ->
      ignore (Forward_secure.sign fs ~signer:0 ~slot:2 "m2"));
  (* Future slots remain signable, and updates never go backwards. *)
  ignore (Forward_secure.sign fs ~signer:0 ~slot:5 "m3");
  Forward_secure.update fs ~signer:0 ~slot:1;
  Alcotest.(check int) "monotone" 3 (Forward_secure.current_slot fs 0)

let test_fs_corrupt_erasure_model () =
  let fs = fs_setup () in
  Forward_secure.update fs ~signer:2 ~slot:4;
  (match Forward_secure.corrupt fs ~erasure:true 2 with
  | Forward_secure.From_slot s -> Alcotest.(check int) "from current" 4 s
  | Forward_secure.Master -> Alcotest.fail "erasure model must not leak master");
  let capability = Forward_secure.corrupt fs ~erasure:true 2 in
  Alcotest.(check bool) "past slot forgery impossible" true
    (Forward_secure.adversary_sign fs ~capability ~signer:2 ~slot:3 "m" = None);
  (match Forward_secure.adversary_sign fs ~capability ~signer:2 ~slot:4 "m" with
  | Some tag ->
      Alcotest.(check bool) "current slot signable" true
        (Forward_secure.verify fs ~signer:2 ~slot:4 "m" tag)
  | None -> Alcotest.fail "current slot should be signable")

let test_fs_corrupt_no_erasure_model () =
  let fs = fs_setup () in
  Forward_secure.update fs ~signer:1 ~slot:7;
  let capability = Forward_secure.corrupt fs ~erasure:false 1 in
  Alcotest.(check bool) "master leaked" true (capability = Forward_secure.Master);
  (match Forward_secure.adversary_sign fs ~capability ~signer:1 ~slot:2 "m" with
  | Some tag ->
      Alcotest.(check bool) "past slot forgeable without erasure" true
        (Forward_secure.verify fs ~signer:1 ~slot:2 "m" tag)
  | None -> Alcotest.fail "master must sign any slot")

(* --- Selective-opening PRF game (Appendix E.1) ---------------------------- *)

let test_so_compliance_enforced () =
  let game = Selective_opening.start ~b:true (Rng.create 91L) in
  let i = Selective_opening.create_instance game in
  ignore (Selective_opening.challenge game ~instance:i "point");
  Alcotest.check_raises "corrupt after challenge"
    (Selective_opening.Non_compliant "corrupting a challenged instance")
    (fun () -> ignore (Selective_opening.corrupt game ~instance:i));
  Alcotest.check_raises "evaluate a challenged point"
    (Selective_opening.Non_compliant "evaluate on a challenged point")
    (fun () -> ignore (Selective_opening.evaluate game ~instance:i "point"));
  let j = Selective_opening.create_instance game in
  ignore (Selective_opening.evaluate game ~instance:j "m");
  Alcotest.check_raises "challenge an evaluated point"
    (Selective_opening.Non_compliant "challenging an evaluated point")
    (fun () -> ignore (Selective_opening.challenge game ~instance:j "m"));
  ignore (Selective_opening.corrupt game ~instance:j);
  Alcotest.check_raises "challenge a corrupted instance"
    (Selective_opening.Non_compliant "challenging a corrupted instance")
    (fun () -> ignore (Selective_opening.challenge game ~instance:j "m2"))

let test_so_real_world_consistent () =
  (* In Expt_1 the challenge answers must be genuine PRF evaluations:
     corrupt a *different* instance, recompute with its key. *)
  let game = Selective_opening.start ~b:true (Rng.create 92L) in
  let i = Selective_opening.create_instance game in
  let key = Selective_opening.corrupt game ~instance:i in
  let direct = Prf.eval key "msg" in
  let j = Selective_opening.create_instance game in
  let answer = Selective_opening.challenge game ~instance:j "msg" in
  Alcotest.(check bool) "distinct instances have distinct keys" false
    (String.equal direct answer);
  (* Challenges are memoized. *)
  Alcotest.(check string) "challenge memoized" (hex answer)
    (hex (Selective_opening.challenge game ~instance:j "msg"))

let test_so_natural_distinguisher_fails () =
  (* A compliant adversary that looks for structure in challenge answers
     (parity bias, repeated prefixes across messages) has ~0 advantage
     against HMAC-SHA256 — this is the statistical face of Theorem 21. *)
  let play game =
    let i = Selective_opening.create_instance game in
    let ones = ref 0 and total = 64 in
    for k = 0 to total - 1 do
      let answer =
        Selective_opening.challenge game ~instance:i (string_of_int k)
      in
      if Char.code answer.[0] land 1 = 1 then incr ones
    done;
    (* Guess "real" iff the low bits look biased — they never do. *)
    abs (2 * !ones - total) > total / 4
  in
  let adv = Selective_opening.advantage ~trials:300 ~seed:93L ~play in
  Alcotest.(check bool)
    (Printf.sprintf "advantage %.3f below 0.08" adv)
    true (adv < 0.08)

let test_so_corrupt_keys_win_noncompliantly () =
  (* Sanity: the game is non-trivial — an adversary allowed to corrupt
     the challenged instance (i.e., non-compliant) would win every time.
     We simulate it by corrupting FIRST, then challenging a different
     instance whose key we predict cannot match; instead, verify that with
     the key in hand the real world is identifiable on a fresh instance
     we never challenge. *)
  let play game =
    let i = Selective_opening.create_instance game in
    (* Evaluate on m1 via the oracle, corrupt, recompute locally: always
       consistent — in both worlds evaluations are real. Then challenge a
       *fresh* instance on m2 and compare nothing: the only legal signal
       is the challenge itself, so flip a fair coin based on it being
       equal to a locally computed PRF under the corrupted key (never
       equal). This adversary is compliant and has no advantage. *)
    let e = Selective_opening.evaluate game ~instance:i "m1" in
    let key = Selective_opening.corrupt game ~instance:i in
    let local = Prf.eval key "m1" in
    Alcotest.(check string) "oracle evaluation is genuine" (hex local) (hex e);
    let j = Selective_opening.create_instance game in
    let c = Selective_opening.challenge game ~instance:j "m2" in
    String.equal c (Prf.eval key "m2")
  in
  let adv = Selective_opening.advantage ~trials:100 ~seed:94L ~play in
  Alcotest.(check bool) "compliant corruption gives no advantage" true
    (adv < 0.1)

(* --- Property-based tests (QCheck) -------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"sha256 determinism" ~count:200 (string_of_size Gen.(0 -- 300))
      (fun s -> String.equal (Sha256.digest_string s) (Sha256.digest_string s));
    Test.make ~name:"sha256 no collisions observed" ~count:200
      (pair (string_of_size Gen.(0 -- 100)) (string_of_size Gen.(0 -- 100)))
      (fun (a, b) ->
        String.equal a b
        || not (String.equal (Sha256.digest_string a) (Sha256.digest_string b)));
    Test.make ~name:"incremental sha256 = one-shot on random splits" ~count:100
      (pair (string_of_size Gen.(0 -- 500)) small_nat)
      (fun (s, cut) ->
        let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
        let ctx = Sha256.init () in
        Sha256.feed_string ctx (String.sub s 0 cut);
        Sha256.feed_string ctx (String.sub s cut (String.length s - cut));
        String.equal (Sha256.finalize ctx) (Sha256.digest_string s));
    Test.make ~name:"multi-chunk feed_bytes = one-shot on random splits" ~count:100
      (pair (string_of_size Gen.(0 -- 600)) (list_of_size Gen.(0 -- 8) small_nat))
      (fun (s, cuts) ->
        (* Interpret [cuts] as successive chunk lengths; whatever remains
           after the last cut is fed in one final call. Exercises every
           path through the buffered/direct block dispatch in feed_bytes. *)
        let b = Bytes.of_string s in
        let ctx = Sha256.init () in
        let pos = ref 0 in
        List.iter
          (fun c ->
            let len = min c (String.length s - !pos) in
            Sha256.feed_bytes ctx b ~pos:!pos ~len;
            pos := !pos + len)
          cuts;
        Sha256.feed_bytes ctx b ~pos:!pos ~len:(String.length s - !pos);
        String.equal (Sha256.finalize ctx) (Sha256.digest_string s));
    Test.make ~name:"hmac precomputed key = one-shot" ~count:150
      (pair (string_of_size Gen.(0 -- 100)) (string_of_size Gen.(0 -- 300)))
      (fun (key, m) ->
        String.equal (Hmac.mac ~key m) (Hmac.mac_with (Hmac.precompute ~key) m));
    Test.make ~name:"hmac_concat precomputed key = one-shot" ~count:100
      (pair (string_of_size Gen.(0 -- 100))
         (list_of_size Gen.(0 -- 5) (string_of_size Gen.(0 -- 60))))
      (fun (key, parts) ->
        String.equal (Hmac.mac_concat ~key parts)
          (Hmac.mac_concat_with (Hmac.precompute ~key) parts));
    Test.make ~name:"prf cached key = direct eval" ~count:150
      (pair (string_of_size Gen.(1 -- 64)) (string_of_size Gen.(0 -- 200)))
      (fun (key, m) ->
        String.equal (Prf.eval key m) (Prf.eval_cached (Prf.cache key) m));
    Test.make ~name:"hmac key separation" ~count:100
      (triple (string_of_size Gen.(1 -- 64)) (string_of_size Gen.(1 -- 64)) (string_of_size Gen.(0 -- 100)))
      (fun (k1, k2, m) ->
        String.equal k1 k2 || not (String.equal (Hmac.mac ~key:k1 m) (Hmac.mac ~key:k2 m)));
    Test.make ~name:"rng int bounded" ~count:200 (pair int64 (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Test.make ~name:"commitment roundtrip" ~count:100
      (pair (string_of_size Gen.(0 -- 64)) int64)
      (fun (v, seed) ->
        let rng = Rng.create seed in
        let crs = Commitment.gen rng in
        let salt = Commitment.fresh_salt rng in
        Commitment.verify crs (Commitment.commit crs ~value:v ~salt) ~value:v ~salt);
    Test.make ~name:"vrf completeness on random messages" ~count:60
      (pair (string_of_size Gen.(0 -- 80)) int64)
      (fun (m, seed) ->
        let rng = Rng.create seed in
        let params = { Vrf.crs_comm = Commitment.gen rng; crs_nizk = Nizk.gen rng } in
        let sk, pk = Vrf.keygen params rng ~index:0 in
        Vrf.verify params pk m (Vrf.eval params sk m));
  ]

(* --- Scratch-context primitives ≡ their plain definitions ------------ *)

(* HMAC, SHA-256 one-shots and the Fmine coin run on per-domain scratch
   contexts. Each is checked against a reference written here from the
   definitions alone: fresh contexts, explicit string building. Two keys
   are interleaved so that state left in the scratch by one tag would
   show up in the next. *)

let fresh_digest s =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx s;
  Sha256.finalize ctx

(* RFC 2104 from the padded key, over fresh-context digests. *)
let reference_hmac key msg =
  let key = if String.length key > 64 then fresh_digest key else key in
  let padded = key ^ String.make (64 - String.length key) '\x00' in
  let pad byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) padded in
  fresh_digest (pad 0x5c ^ fresh_digest (pad 0x36 ^ msg))

(* The length-prefixed encoding of [digest_concat] and [mac_concat]. *)
let reference_encoding parts =
  String.concat ""
    (List.map
       (fun part ->
         let n = String.length part in
         String.init 8 (fun i -> Char.chr ((n lsr (8 * (7 - i))) land 0xff))
         ^ part)
       parts)

let top53 rho =
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code rho.[i]
  done;
  !v lsr 3

let scratch_qcheck_tests =
  let open QCheck in
  let node =
    oneof
      [ oneofl [ 0; 9; 10; 99; 100; 12345; max_int; min_int; -1 ];
        int_range 0 (1 lsl 40);
        int ]
  in
  let key = string_of_size Gen.(0 -- 100) in
  let msgs = list_of_size Gen.(1 -- 6) (string_of_size Gen.(0 -- 140)) in
  [ Test.make ~name:"coin = string-path coin" ~count:400
      (quad (string_of_size Gen.(1 -- 64)) node (string_of_size Gen.(0 -- 140))
         (float_bound_inclusive 1.0))
      (fun (key, node, msg, p) ->
        let c = Prf.cache key in
        let rho = Prf.eval_cached c (string_of_int node ^ "|" ^ msg) in
        let f = Prf.output_fraction rho in
        Hmac.mac_node_top53 (Hmac.precompute ~key) ~node msg = top53 rho
        && Prf.coin c ~node ~msg ~p = Prf.below_difficulty rho ~p
        (* at the boundary the draw itself loses and the next float wins *)
        && (not (Prf.coin c ~node ~msg ~p:f))
        && Prf.coin c ~node ~msg ~p:(Float.succ f));
    Test.make ~name:"mac_with = reference hmac" ~count:150
      (triple key key msgs)
      (fun (k1, k2, msgs) ->
        let c1 = Hmac.precompute ~key:k1 and c2 = Hmac.precompute ~key:k2 in
        List.for_all
          (fun m ->
            String.equal (Hmac.mac_with c1 m) (reference_hmac k1 m)
            && String.equal (Hmac.mac_with c2 m) (reference_hmac k2 m)
            && String.equal (Hmac.mac_with c1 m) (Hmac.mac ~key:k1 m))
          msgs);
    Test.make ~name:"mac_concat_with = reference" ~count:150
      (triple key key msgs)
      (fun (k1, k2, parts) ->
        let c1 = Hmac.precompute ~key:k1 and c2 = Hmac.precompute ~key:k2 in
        let rev = List.rev parts in
        String.equal (Hmac.mac_concat_with c1 parts)
          (reference_hmac k1 (reference_encoding parts))
        && String.equal (Hmac.mac_concat_with c2 rev)
             (reference_hmac k2 (reference_encoding rev))
        && String.equal (Hmac.mac_concat_with c1 rev)
             (reference_hmac k1 (reference_encoding rev)));
    Test.make ~name:"digests = fresh-context ref" ~count:150 msgs
      (fun parts ->
        List.for_all
          (fun m -> String.equal (Sha256.digest_string m) (fresh_digest m))
          parts
        && String.equal (Sha256.digest_concat parts)
             (fresh_digest (reference_encoding parts))) ]

(* --- An independent SHA-256 oracle -------------------------------------- *)

(* FIPS 180-4 from the standard's own text: boxed [Int32] words, the
   textbook Ch and Maj, a 64-word schedule and one loop per step. It
   shares no code with [Sha256], so unlike [fresh_digest] it can catch a
   fault in the compression or the padding that every hash here would
   otherwise share. Slow, which is fine for a test. *)
module Fips = struct
  let k =
    [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
       0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
       0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
       0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
       0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
       0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
       0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
       0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
       0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
       0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
       0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
       0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
       0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

  let ( +: ) = Int32.add
  let ( ^: ) = Int32.logxor
  let ( &: ) = Int32.logand
  let rotr x n =
    Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
  let shr = Int32.shift_right_logical

  (* §5.1.1: the message, a 1 bit, zeros, and the 64-bit bit length, to a
     multiple of 512 bits. *)
  let pad msg =
    let len = String.length msg in
    let padded = ((len + 8) / 64 + 1) * 64 in
    let b = Bytes.make padded '\x00' in
    Bytes.blit_string msg 0 b 0 len;
    Bytes.set b len '\x80';
    for i = 0 to 7 do
      Bytes.set b (padded - 1 - i)
        (Char.chr (((len * 8) lsr (8 * i)) land 0xff))
    done;
    b

  let digest msg =
    let b = pad msg in
    let h =
      [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
         0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |]
    in
    let w = Array.make 64 0l in
    for block = 0 to (Bytes.length b / 64) - 1 do
      for t = 0 to 15 do
        w.(t) <- 0l;
        for j = 0 to 3 do
          let byte = Char.code (Bytes.get b ((64 * block) + (4 * t) + j)) in
          w.(t) <- Int32.logor (Int32.shift_left w.(t) 8) (Int32.of_int byte)
        done
      done;
      for t = 16 to 63 do
        let x = w.(t - 15) and y = w.(t - 2) in
        let s0 = rotr x 7 ^: rotr x 18 ^: shr x 3
        and s1 = rotr y 17 ^: rotr y 19 ^: shr y 10 in
        w.(t) <- s1 +: w.(t - 7) +: s0 +: w.(t - 16)
      done;
      let v = Array.copy h in
      for t = 0 to 63 do
        let a = v.(0) and b = v.(1) and c = v.(2) and e = v.(4) in
        let f = v.(5) and g = v.(6) in
        let ch = (e &: f) ^: (Int32.lognot e &: g) in
        let maj = (a &: b) ^: (a &: c) ^: (b &: c) in
        let s1 = rotr e 6 ^: rotr e 11 ^: rotr e 25 in
        let t1 = v.(7) +: s1 +: ch +: k.(t) +: w.(t) in
        let t2 = (rotr a 2 ^: rotr a 13 ^: rotr a 22) +: maj in
        for i = 7 downto 1 do
          v.(i) <- v.(i - 1)
        done;
        v.(4) <- v.(4) +: t1;
        v.(0) <- t1 +: t2
      done;
      for i = 0 to 7 do
        h.(i) <- h.(i) +: v.(i)
      done
    done;
    String.init 32 (fun i ->
        Char.chr
          (Int32.to_int (shr h.(i / 4) (8 * (3 - (i mod 4)))) land 0xff))

  (* RFC 2104 over [digest]. *)
  let hmac key msg =
    let key = if String.length key > 64 then digest key else key in
    let padded = key ^ String.make (64 - String.length key) '\x00' in
    let pad byte =
      String.map (fun c -> Char.chr (Char.code c lxor byte)) padded
    in
    digest (pad 0x5c ^ digest (pad 0x36 ^ msg))
end

(* A message of [len] bytes that differs with every length. *)
let oracle_msg len =
  String.init len (fun i -> Char.chr (((i * 37) + len) land 0xff))

(* Short and long keys: a key past 64 bytes is hashed first. *)
let oracle_keys = [ "k"; String.make 32 '\x5a'; String.init 100 Char.chr ]

let oracle_nodes = [ min_int; -1; 0; 9; 10; 12345; max_int ]

let check_digests msg =
  let expect = hex (Fips.digest msg) in
  let len = String.length msg in
  Alcotest.(check string) (Printf.sprintf "digest_string, %d bytes" len) expect
    (hex (Sha256.digest_string msg));
  (* chunks of 1, 7, 64 and 13 bytes in turn, so that feeds straddle
     the buffer and skip it *)
  let ctx = Sha256.init () in
  let b = Bytes.of_string msg in
  let rec feed pos i =
    if pos < len then begin
      let take = min (List.nth [ 1; 7; 64; 13 ] (i mod 4)) (len - pos) in
      Sha256.feed_bytes ctx b ~pos ~len:take;
      feed (pos + take) (i + 1)
    end
  in
  feed 0 0;
  Alcotest.(check string) (Printf.sprintf "chunked feed, %d bytes" len) expect
    (hex (Sha256.finalize ctx))

let check_tags key msg =
  let kctx = Hmac.precompute ~key in
  let len = String.length msg in
  let expect = Fips.hmac key msg in
  Alcotest.(check string) (Printf.sprintf "mac_with, %d bytes" len) (hex expect)
    (hex (Hmac.mac_with kctx msg));
  Alcotest.(check int) (Printf.sprintf "mac_top53, %d bytes" len) (top53 expect)
    (Hmac.mac_top53 kctx msg);
  List.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "mac_node_top53, node %d, %d bytes" node len)
        (top53 (Fips.hmac key (string_of_int node ^ "|" ^ msg)))
        (Hmac.mac_node_top53 kctx ~node msg))
    oracle_nodes

let nist_vectors =
  [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" ) ]

let test_oracle_vectors () =
  List.iter
    (fun (msg, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "oracle, %d bytes" (String.length msg))
        expect (hex (Fips.digest msg)))
    nist_vectors

let test_oracle_digest_lengths () =
  for len = 0 to 130 do
    check_digests (oracle_msg len)
  done

let test_oracle_tag_lengths () =
  List.iter
    (fun key ->
      for len = 0 to 130 do
        check_tags key (oracle_msg len)
      done)
    oracle_keys

(* Inner inputs of 54 to 57 bytes, digits and '|' included: 54 and 55
   fit one padded block, 56 and 57 stream. At each, the coin loses at its
   own fraction and wins at the next float up. *)
let test_coin_block_boundary () =
  let key = "boundary" in
  let kctx = Hmac.precompute ~key and c = Prf.cache key in
  List.iter
    (fun node ->
      let prefix = string_of_int node ^ "|" in
      List.iter
        (fun inner ->
          let msg = String.make (inner - String.length prefix) 'm' in
          let rho = Fips.hmac key (prefix ^ msg) in
          let f = Float.of_int (top53 rho) *. 0x1p-53 in
          let label = Printf.sprintf "node %d, %d-byte input" node inner in
          Alcotest.(check int) label (top53 rho)
            (Hmac.mac_node_top53 kctx ~node msg);
          Alcotest.(check (pair bool bool)) (label ^ ": coin at f, succ f")
            (false, true)
            (Prf.coin c ~node ~msg ~p:f, Prf.coin c ~node ~msg ~p:(Float.succ f)))
        [ 54; 55; 56; 57 ])
    [ min_int; -1; 0; 9; 10; max_int ]

let oracle_qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"random inputs = oracle" ~count:200
      (triple (string_of_size Gen.(0 -- 100)) (string_of_size Gen.(0 -- 300)) int)
      (fun (key, msg, node) ->
        let kctx = Hmac.precompute ~key in
        let tag = Fips.hmac key msg in
        String.equal (Sha256.digest_string msg) (Fips.digest msg)
        && String.equal (Hmac.mac_with kctx msg) tag
        && Hmac.mac_top53 kctx msg = top53 tag
        && Hmac.mac_node_top53 kctx ~node msg
           = top53 (Fips.hmac key (string_of_int node ^ "|" ^ msg))) ]

(* --- Both compression kernels, by name ---------------------------------- *)

(* Every hash above runs on the kernel [Sha256] chose for this CPU, so on
   a CPU with the SHA extensions nothing else here runs the OCaml one.
   These cases run each kernel this CPU has by name: the OCaml one
   always, the SHA extensions when CPUID reported them. *)
let kernels =
  match Sha256.kernel with
  | Sha256.Portable -> [ Sha256.Portable ]
  | Sha256.Sha_ni -> [ Sha256.Portable; Sha256.Sha_ni ]

(* The kernel [/proc/cpuinfo]'s flags call for, if the file is there. *)
let cpuinfo_kernel () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> None
  | info ->
      let flags =
        List.find_map
          (fun line ->
            match String.index_opt line ':' with
            | Some i when String.starts_with ~prefix:"flags" line ->
                Some
                  (String.split_on_char ' '
                     (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> None)
          (String.split_on_char '\n' info)
      in
      let has flag = List.mem flag (Option.value flags ~default:[]) in
      Some
        (if has "sha_ni" && has "ssse3" && has "sse4_1" then Sha256.Sha_ni
         else Sha256.Portable)

let test_kernel_pin () =
  match cpuinfo_kernel () with
  | None ->
      print_endline "no /proc/cpuinfo here: the kernel choice is not pinned";
      Alcotest.skip ()
  | Some expect ->
      Alcotest.(check string) "kernel" (Sha256.kernel_name expect)
        (Sha256.kernel_name Sha256.kernel)

(* SHA-256 of [msg] with every block compressed by kernel [k]: the
   oracle's padding, then [compress_with] block by block from the IV. *)
let kernel_digest k msg =
  let b = Fips.pad msg in
  let st = Sha256.midstate "" in
  for i = 0 to (Bytes.length b / 64) - 1 do
    Sha256.compress_with k st ~from:st b ~pos:(64 * i)
  done;
  let out = Bytes.create Sha256.digest_size in
  Sha256.write_digest st out;
  Bytes.to_string out

let test_kernel_vectors () =
  List.iter
    (fun k ->
      List.iter
        (fun (msg, expect) ->
          Alcotest.(check string)
            (Printf.sprintf "%s, %d bytes" (Sha256.kernel_name k)
               (String.length msg))
            expect
            (hex (kernel_digest k msg)))
        (( String.make 1_000_000 'a',
           "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" )
        :: nist_vectors))
    kernels

let test_kernel_lengths () =
  List.iter
    (fun k ->
      for len = 0 to 130 do
        let msg = oracle_msg len in
        Alcotest.(check string)
          (Printf.sprintf "%s, %d bytes" (Sha256.kernel_name k) len)
          (hex (Fips.digest msg))
          (hex (kernel_digest k msg))
      done)
    kernels

(* A range without 64 bytes is refused, on either kernel, before a
   byte is read or a word written; so is the SHA-extensions kernel on a
   CPU that lacks it. *)
let test_kernel_bounds () =
  let refused = Invalid_argument "Sha256.compress_with: no 64-byte block at pos" in
  let st = Sha256.midstate "" in
  let before = Bytes.create Sha256.digest_size in
  Sha256.write_digest st before;
  List.iter
    (fun k ->
      List.iter
        (fun (len, pos) ->
          Alcotest.check_raises
            (Printf.sprintf "%s, pos %d of %d bytes" (Sha256.kernel_name k)
               pos len)
            refused (fun () ->
              Sha256.compress_with k st ~from:st (Bytes.make len 'b') ~pos))
        [ (64, -1); (64, 1); (127, 64); (63, 0); (0, 0); (128, max_int) ])
    [ Sha256.Portable; Sha256.Sha_ni ];
  let after = Bytes.create Sha256.digest_size in
  Sha256.write_digest st after;
  Alcotest.(check string) "state untouched" (Bytes.to_string before)
    (Bytes.to_string after);
  match Sha256.kernel with
  | Sha256.Sha_ni -> ()
  | Sha256.Portable ->
      Alcotest.check_raises "sha-ni on this CPU"
        (Invalid_argument
           "Sha256.compress_with: this CPU lacks the SHA extensions")
        (fun () ->
          Sha256.compress_with Sha256.Sha_ni st ~from:st (Bytes.create 64)
            ~pos:0)

(* The two kernels agree on random chaining values (each the midstate of
   a random block) and random blocks at random offsets, into a fresh
   state and in place. *)
let kernel_differential =
  let open QCheck in
  Test.make ~name:"portable = sha-ni" ~count:500
    (triple (string_of_size (Gen.return 64)) (string_of_size (Gen.return 64))
       (int_bound 64))
    (fun (prefix, block, pos) ->
      let b = Bytes.make (pos + 64 + (pos mod 3)) '\xa5' in
      Bytes.blit_string block 0 b pos 64;
      let from = Sha256.midstate prefix in
      let words st = List.init 8 (Sha256.word st) in
      let run k ~in_place =
        let st = Sha256.midstate (if in_place then prefix else "") in
        Sha256.compress_with k st ~from:(if in_place then st else from) b ~pos;
        words st
      in
      let expect = run Sha256.Portable ~in_place:false in
      let chaining = words from in
      expect = run Sha256.Sha_ni ~in_place:false
      && expect = run Sha256.Sha_ni ~in_place:true
      && expect = run Sha256.Portable ~in_place:true
      && chaining = words from)

(* Both domains tag, flip coins and hash under the same shared keys at
   once; every result must equal the one computed sequentially first. *)
let test_two_domains_match_sequential () =
  let raw = Array.init 4 (fun i -> String.make (i + 1) 'k') in
  let keys = Array.map (fun key -> Hmac.precompute ~key) raw in
  let coins = Array.map Prf.cache raw in
  let work d =
    List.init 3000 (fun i ->
        let kc = keys.((i + d) mod 4) in
        let msg = String.make ((i * 7) mod 141) (Char.chr (97 + (i mod 26))) in
        ( Hmac.mac_with kc msg,
          Hmac.mac_concat_with kc [ msg; string_of_int d ],
          Prf.coin coins.((i + d) mod 4) ~node:(i * 37) ~msg ~p:0.5,
          Sha256.digest_concat [ msg; string_of_int i ],
          Rng.next_int64 (Rng.split_named (Rng.create (Int64.of_int i)) msg) ))
  in
  let expected = [ work 0; work 1 ] in
  let spawned = List.map (fun d -> Domain.spawn (fun () -> work d)) [ 0; 1 ] in
  let got = List.map Domain.join spawned in
  Alcotest.(check bool) "concurrent results = sequential results" true
    (List.for_all2 ( = ) expected got)

let () =
  let rand = Random.State.make [| 0xba001 |] in
  let qcheck = List.map (QCheck_alcotest.to_alcotest ~rand) qcheck_tests in
  let scratch =
    List.map (QCheck_alcotest.to_alcotest ~rand) scratch_qcheck_tests
  in
  let oracle =
    List.map (QCheck_alcotest.to_alcotest ~rand) oracle_qcheck_tests
  in
  let differential =
    match Sha256.kernel with
    | Sha256.Sha_ni -> QCheck_alcotest.to_alcotest ~rand kernel_differential
    | Sha256.Portable ->
        Alcotest.test_case "portable = sha-ni" `Quick (fun () ->
            print_endline "this CPU has no SHA extensions: nothing to compare";
            Alcotest.skip ())
  in
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "empty" `Quick test_sha256_empty;
          Alcotest.test_case "abc" `Quick test_sha256_abc;
          Alcotest.test_case "two blocks" `Quick test_sha256_two_blocks;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_exact_block_boundaries;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental_matches_oneshot;
          Alcotest.test_case "concat injective" `Quick test_sha256_concat_injective;
          Alcotest.test_case "feed bounds" `Quick test_sha256_feed_bounds ] );
      ( "hmac",
        [ Alcotest.test_case "rfc4231 #1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 #2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 #3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
          Alcotest.test_case "constant-time equal" `Quick test_hmac_equal ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "split_named stable" `Quick test_rng_split_named_stable;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli mean" `Quick test_rng_bernoulli_mean;
          Alcotest.test_case "sample w/o replacement" `Quick test_rng_sample_without_replacement;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers ] );
      ( "prf",
        [ Alcotest.test_case "deterministic" `Quick test_prf_deterministic;
          Alcotest.test_case "message separation" `Quick test_prf_distinct_messages;
          Alcotest.test_case "fraction range" `Quick test_prf_output_fraction_range;
          Alcotest.test_case "difficulty rate" `Quick test_prf_below_difficulty_rate ] );
      ( "commitment",
        [ Alcotest.test_case "roundtrip" `Quick test_commitment_roundtrip;
          Alcotest.test_case "binding" `Quick test_commitment_binding;
          Alcotest.test_case "crs separation" `Quick test_commitment_crs_separation ] );
      ( "nizk",
        [ Alcotest.test_case "completeness" `Quick test_nizk_completeness;
          Alcotest.test_case "rejects false statement" `Quick test_nizk_rejects_false_statement;
          Alcotest.test_case "proof bound to statement" `Quick test_nizk_soundness_message_binding;
          Alcotest.test_case "mismatched witness" `Quick test_nizk_wrong_key_witness ] );
      ( "signature",
        [ Alcotest.test_case "roundtrip" `Quick test_signature_roundtrip;
          Alcotest.test_case "wrong signer" `Quick test_signature_wrong_signer;
          Alcotest.test_case "wrong message" `Quick test_signature_wrong_message;
          Alcotest.test_case "corrupt key" `Quick test_signature_corrupt_key_signs;
          Alcotest.test_case "out of range" `Quick test_signature_out_of_range;
          Alcotest.test_case "verify out of range" `Quick
            test_signature_verify_out_of_range ] );
      ( "vrf",
        [ Alcotest.test_case "completeness" `Quick test_vrf_completeness;
          Alcotest.test_case "uniqueness" `Quick test_vrf_uniqueness;
          Alcotest.test_case "wrong pk" `Quick test_vrf_wrong_pk;
          Alcotest.test_case "wrong message" `Quick test_vrf_wrong_message;
          Alcotest.test_case "bit-specific independence" `Quick test_vrf_bit_specific_independence;
          Alcotest.test_case "output uniformity" `Quick test_vrf_output_uniformity ] );
      ( "selective-opening",
        [ Alcotest.test_case "compliance enforced" `Quick test_so_compliance_enforced;
          Alcotest.test_case "real world consistent" `Quick test_so_real_world_consistent;
          Alcotest.test_case "natural distinguisher fails" `Quick
            test_so_natural_distinguisher_fails;
          Alcotest.test_case "compliant corruption useless" `Quick
            test_so_corrupt_keys_win_noncompliantly ] );
      ( "forward-secure",
        [ Alcotest.test_case "sign/verify" `Quick test_fs_sign_verify;
          Alcotest.test_case "erasure blocks old slots" `Quick
            test_fs_erasure_blocks_old_slots;
          Alcotest.test_case "corrupt under erasure" `Quick
            test_fs_corrupt_erasure_model;
          Alcotest.test_case "corrupt without erasure" `Quick
            test_fs_corrupt_no_erasure_model ] );
      ( "pki",
        [ Alcotest.test_case "setup consistency" `Quick test_pki_setup_consistency;
          Alcotest.test_case "corrupt reveals state" `Quick test_pki_corrupt_reveals_matching_state;
          Alcotest.test_case "out of range" `Quick test_pki_out_of_range ] );
      ("properties", qcheck);
      ("scratch-equiv", scratch);
      ( "scratch-domains",
        [ Alcotest.test_case "two domains = sequential" `Quick
            test_two_domains_match_sequential ] );
      ( "fips-oracle",
        [ Alcotest.test_case "oracle on NIST vectors" `Quick test_oracle_vectors;
          Alcotest.test_case "digests, lengths 0-130" `Quick
            test_oracle_digest_lengths;
          Alcotest.test_case "tags, lengths 0-130" `Quick test_oracle_tag_lengths;
          Alcotest.test_case "coin at the block boundary" `Quick
            test_coin_block_boundary ]
        @ oracle );
      ( "sha256-kernels",
        [ Alcotest.test_case "pinned to cpuinfo flags" `Quick test_kernel_pin;
          Alcotest.test_case "NIST vectors by name" `Quick test_kernel_vectors;
          Alcotest.test_case "oracle, lengths 0-130" `Quick test_kernel_lengths;
          Alcotest.test_case "block out of range" `Quick test_kernel_bounds;
          differential ] ) ]
