(* [kctxs.(i)] is [keys.(i)] with the HMAC pad midstates precomputed;
   [keys] is kept as raw bytes for {!corrupt_key}. *)
type scheme = { keys : string array; kctxs : Hmac.key_ctx array }

type tag = string

let setup ~n rng =
  let keys = Array.init n (fun _ -> Prf.gen rng) in
  { keys; kctxs = Array.map (fun key -> Hmac.precompute ~key) keys }

let check_range scheme i =
  if i < 0 || i >= Array.length scheme.keys then
    invalid_arg "Signature: signer out of range"

let p_sign = Baobs.Probe.register "signature.sign"

let p_verify = Baobs.Probe.register "signature.verify"

let mac scheme ~signer msg =
  Hmac.mac_concat_with scheme.kctxs.(signer) [ "sig"; msg ]

let sign scheme ~signer msg =
  check_range scheme signer;
  let t0 = Baobs.Probe.start () in
  let tag = mac scheme ~signer msg in
  Baobs.Probe.stop p_sign t0;
  tag

(* A verifier reads [signer] off a received message, so any int may
   arrive: one outside the scheme names no key and signs nothing. *)
let verify scheme ~signer msg tag =
  signer >= 0
  && signer < Array.length scheme.keys
  &&
  let t0 = Baobs.Probe.start () in
  let ok = Hmac.equal tag (mac scheme ~signer msg) in
  Baobs.Probe.stop p_verify t0;
  ok

let corrupt_key scheme i =
  check_range scheme i;
  scheme.keys.(i)

let tag_bits = 32 * 8
