type scheme = {
  masters : string array;
  master_kctxs : Hmac.key_ctx array;
  current : int array;  (* lowest signable slot per node *)
  (* Memoized slot-key midstates, keyed by (signer, slot). Purely a
     performance cache inside the idealized functionality: erasure is
     enforced by [current], not by forgetting derived keys, so keeping
     them cached changes no observable behavior. *)
  slot_kctxs : (int * int, Hmac.key_ctx) Hashtbl.t;
}

type tag = string

type capability = Master | From_slot of int

let setup ~n rng =
  let masters = Array.init n (fun _ -> Prf.gen rng) in
  { masters;
    master_kctxs = Array.map (fun key -> Hmac.precompute ~key) masters;
    current = Array.make n 0;
    slot_kctxs = Hashtbl.create 256 }

let check_range scheme i =
  if i < 0 || i >= Array.length scheme.masters then
    invalid_arg "Forward_secure: signer out of range"

let current_slot scheme i =
  check_range scheme i;
  scheme.current.(i)

let slot_kctx scheme ~signer ~slot =
  match Hashtbl.find_opt scheme.slot_kctxs (signer, slot) with
  | Some kctx -> kctx
  | None ->
      let key =
        Hmac.mac_concat_with scheme.master_kctxs.(signer)
          [ "fs-slot"; string_of_int slot ]
      in
      let kctx = Hmac.precompute ~key in
      Hashtbl.replace scheme.slot_kctxs (signer, slot) kctx;
      kctx

let raw_sign scheme ~signer ~slot msg =
  Hmac.mac_concat_with (slot_kctx scheme ~signer ~slot) [ "fs-sig"; msg ]

let sign scheme ~signer ~slot msg =
  check_range scheme signer;
  if slot < 0 then invalid_arg "Forward_secure.sign: negative slot";
  if slot < scheme.current.(signer) then
    invalid_arg "Forward_secure.sign: slot key erased";
  raw_sign scheme ~signer ~slot msg

let update scheme ~signer ~slot =
  check_range scheme signer;
  if slot > scheme.current.(signer) then scheme.current.(signer) <- slot

let verify scheme ~signer ~slot msg tag =
  check_range scheme signer;
  Hmac.equal tag (raw_sign scheme ~signer ~slot msg)

let corrupt scheme ~erasure i =
  check_range scheme i;
  if erasure then From_slot scheme.current.(i) else Master

let adversary_sign scheme ~capability ~signer ~slot msg =
  check_range scheme signer;
  if slot < 0 then None
  else
    match capability with
    | Master -> Some (raw_sign scheme ~signer ~slot msg)
    | From_slot from -> if slot >= from then Some (raw_sign scheme ~signer ~slot msg) else None
