(* The state is the 64-bit SplitMix counter, kept unboxed in an 8-byte
   buffer: a [mutable int64] field would box every new state and promote
   it with the stream. With [next_int64] and [mix] inlined, every draw
   below reads and writes the counter in place, so [bool] and [int]
   allocate nothing and [float] only its boxed result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let[@inline] next_int64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

(* A seed is the first 8 bytes of a digest, read big-endian. *)
let of_string label = create (String.get_int64_be (Sha256.digest_string label) 0)

let split t = create (next_int64 t)

(* [split_named] hashes what [Sha256.digest_concat [ Int64.to_string
   seed; label ]] hashes, on a per-domain scratch context whose digest
   lands in [digest], so a child stream costs its own 8 bytes and the
   decimal seed string. Nothing called while the scratch is live hashes
   again, so it is never re-entered. *)
type scratch = { ctx : Sha256.ctx; digest : Bytes.t }

let scratch =
  Domain.DLS.new_key (fun () ->
      { ctx = Sha256.init (); digest = Bytes.create Sha256.digest_size })

let split_named t label =
  let s = Domain.DLS.get scratch in
  Sha256.reset s.ctx;
  Sha256.feed_part s.ctx (Int64.to_string (Bytes.get_int64_ne t 0));
  Sha256.feed_part s.ctx label;
  Sha256.finalize_into s.ctx s.digest;
  create (Bytes.get_int64_be s.digest 0)

let mask62 = 0x3FFFFFFFFFFFFFFFL

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the low 62 bits to avoid modulo bias. *)
  let limit = max_int - (max_int mod bound) in
  let v = ref (Int64.to_int (Int64.logand (next_int64 t) mask62)) in
  while !v >= limit do
    v := Int64.to_int (Int64.logand (next_int64 t) mask62)
  done;
  !v mod bound

let float t =
  (* 53 random bits into [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected insertions. *)
  let module Iset = Set.Make (Int) in
  let chosen = ref Iset.empty in
  for j = n - k to n - 1 do
    let candidate = int t (j + 1) in
    if Iset.mem candidate !chosen then chosen := Iset.add j !chosen
    else chosen := Iset.add candidate !chosen
  done;
  Iset.elements !chosen
