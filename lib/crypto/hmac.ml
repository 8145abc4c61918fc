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

(* The chaining values after the ipad and the opad block. Every tag
   under the same key starts from these, so a precomputed key pays one
   compression for a short message and one for the outer digest instead
   of additionally re-absorbing both 64-byte pads. Never mutated after
   [precompute], so a key is safely shared across domains. *)
type key_ctx = { inner : Sha256.state; outer : Sha256.state }

let precompute ~key =
  let padded = pad_key key in
  { inner = Sha256.midstate (xor_pad padded 0x36);
    outer = Sha256.midstate (xor_pad padded 0x5c) }

(* Per-domain scratch: a context for inputs that stream, the state every
   tag ends in, and the block that holds a one-block inner message and
   then the outer message. All mutation happens here, never in a
   [key_ctx]. Each tag function below holds the scratch from [get] to its
   return and calls nothing in between that could tag again, so the
   scratch is never re-entered; a domain of its own per parallel trial
   keeps trials from sharing it. Systhreads of one domain would share
   it, which is safe only because nothing here starts any. *)
type scratch = { ctx : Sha256.ctx; st : Sha256.state; block : Bytes.t }

let scratch =
  Domain.DLS.new_key (fun () ->
      { ctx = Sha256.init ();
        st = Sha256.midstate "";
        block = Bytes.create block_size })

let get () = Domain.DLS.get scratch

(* The outer hash: the inner digest, at the front of [s.block], is the
   one-block message after the opad block. Leaves the tag in [s.st]. *)
let outer kctx s =
  Sha256.compress_last s.st ~from:kctx.outer s.block ~len:Sha256.digest_size
    ~total:(block_size + Sha256.digest_size)

(* The tag of [p ^ msg], where [p] is the first [plen] bytes of [s.block]
   (at most 21, a node id and its '|'), left in [s.st]. An inner message
   that fits one padded block is laid out in [s.block] behind [p] and
   compressed from the ipad chaining value, and its digest overwrites it
   as the outer message: two compressions, nothing copied but [msg]. A
   longer one streams through [s.ctx], resumed from the same value. *)
let tag_prefixed kctx s plen msg =
  let mlen = String.length msg in
  let len = plen + mlen in
  if len <= Sha256.last_block_capacity then begin
    Bytes.blit_string msg 0 s.block plen mlen;
    Sha256.compress_last s.st ~from:kctx.inner s.block ~len
      ~total:(block_size + len);
    Sha256.write_digest s.st s.block
  end
  else begin
    Sha256.resume s.ctx kctx.inner ~total:block_size;
    Sha256.feed_bytes s.ctx s.block ~pos:0 ~len:plen;
    Sha256.feed_string s.ctx msg;
    Sha256.finalize_into s.ctx s.block
  end;
  outer kctx s

let tag s =
  let out = Bytes.create Sha256.digest_size in
  Sha256.write_digest s.st out;
  Bytes.unsafe_to_string out

(* The first 53 bits of the tag, big-endian: all 32 of word 0 and the top
   21 of word 1. *)
let top53 s = (Sha256.word s.st 0 lsl 21) lor (Sha256.word s.st 1 lsr 11)

let mac_with kctx msg =
  let s = get () in
  tag_prefixed kctx s 0 msg;
  tag s

let mac_top53 kctx msg =
  let s = get () in
  tag_prefixed kctx s 0 msg;
  top53 s

let mac_concat_with kctx parts =
  let s = get () in
  Sha256.resume s.ctx kctx.inner ~total:block_size;
  Sha256.feed_concat s.ctx parts;
  Sha256.finalize_into s.ctx s.block;
  outer kctx s;
  tag s

(* Decimal width and digits of [m <= 0]: working on the non-positive
   side covers [min_int] without overflow. *)
let rec width m = if m <= -10 then 1 + width (m / 10) else 1

let rec write_digits b m i =
  Bytes.set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then write_digits b (m / 10) (i - 1)

(* Write [string_of_int node ^ "|"] at the front of [b] and return its
   length, at most 21. *)
let write_node b node =
  let m = if node < 0 then node else -node in
  let len = width m + if node < 0 then 1 else 0 in
  if node < 0 then Bytes.set b 0 '-';
  write_digits b m (len - 1);
  Bytes.set b len '|';
  len + 1

let mac_node_top53 kctx ~node msg =
  let s = get () in
  tag_prefixed kctx s (write_node s.block node) msg;
  top53 s

let equal a b =
  if String.length a <> String.length b then false
  else begin
    let diff = ref 0 in
    String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code b.[i])) a;
    !diff = 0
  end

let mac ~key msg = mac_with (precompute ~key) msg

let mac_concat ~key parts = mac_concat_with (precompute ~key) parts
