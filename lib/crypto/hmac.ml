let block_size = 64

let pad_key key =
  let key =
    if String.length key > block_size then Sha256.digest_string key else key
  in
  let padded = Bytes.make block_size '\x00' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  padded

let xor_pad padded byte =
  String.init block_size (fun i ->
      Char.chr (Char.code (Bytes.get padded i) lxor byte))

(* Midstates with the ipad/opad block already absorbed. Every tag under
   the same key starts from these, so a precomputed key pays one
   compression for the message and one for the outer digest instead of
   additionally re-absorbing both 64-byte pads. Never mutated after
   [precompute], so a key is safely shared across domains. *)
type key_ctx = { inner0 : Sha256.ctx; outer0 : Sha256.ctx }

let precompute ~key =
  let padded = pad_key key in
  let ipad = xor_pad padded 0x36 and opad = xor_pad padded 0x5c in
  let inner0 = Sha256.init () in
  Sha256.feed_string inner0 ipad;
  let outer0 = Sha256.init () in
  Sha256.feed_string outer0 opad;
  { inner0; outer0 }

(* Per-domain scratch: the two contexts every tag restores from its key's
   midstates, and a buffer for the inner digest. All mutation happens
   here, never in a [key_ctx]. Each tag function below holds the scratch
   from [start] to its return and calls nothing in between that could tag
   again, so the scratch is never re-entered; a domain of its own per
   parallel trial keeps trials from sharing it. Systhreads of one domain
   would share it, which is safe only because nothing here starts any. *)
type scratch = { inner : Sha256.ctx; outer : Sha256.ctx; digest : Bytes.t }

let scratch =
  Domain.DLS.new_key (fun () ->
      { inner = Sha256.init ();
        outer = Sha256.init ();
        digest = Bytes.create Sha256.digest_size })

let start kctx =
  let s = Domain.DLS.get scratch in
  Sha256.restore s.inner ~from:kctx.inner0;
  s

(* Finish the inner hash and absorb it into the outer one. *)
let inner_to_outer kctx s =
  Sha256.finalize_into s.inner s.digest;
  Sha256.restore s.outer ~from:kctx.outer0;
  Sha256.feed_bytes s.outer s.digest ~pos:0 ~len:Sha256.digest_size

let mac_with kctx msg =
  let s = start kctx in
  Sha256.feed_string s.inner msg;
  inner_to_outer kctx s;
  Sha256.finalize s.outer

let mac_concat_with kctx parts =
  let s = start kctx in
  Sha256.feed_concat s.inner parts;
  inner_to_outer kctx s;
  Sha256.finalize s.outer

(* Decimal digits of [m <= 0], most significant first. Working on the
   non-positive side covers [min_int] without overflow. *)
let rec feed_digits ctx m =
  if m <= -10 then feed_digits ctx (m / 10);
  Sha256.feed_char ctx (Char.unsafe_chr (48 - (m mod 10)))

let mac_node_top53 kctx ~node msg =
  let s = start kctx in
  (* [string_of_int node ^ "|" ^ msg], absorbed without building it *)
  if node < 0 then Sha256.feed_char s.inner '-';
  feed_digits s.inner (if node < 0 then node else -node);
  Sha256.feed_char s.inner '|';
  Sha256.feed_string s.inner msg;
  inner_to_outer kctx s;
  Sha256.finalize_into s.outer s.digest;
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get s.digest i)
  done;
  !v lsr 3

let equal a b =
  if String.length a <> String.length b then false
  else begin
    let diff = ref 0 in
    String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code b.[i])) a;
    !diff = 0
  end

let mac ~key msg = mac_with (precompute ~key) msg

let mac_concat ~key parts = mac_concat_with (precompute ~key) parts
