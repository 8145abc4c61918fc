let digest_size = 32

(* Chaining words and message lengths are kept in native ints, and a
   word is an unsigned 32-bit value, so the native int needs more than
   32 bits: any 64-bit OCaml qualifies. *)
let () = assert (Sys.int_size > 32)

(* Eight 32-bit words, each held in a native int. *)
type state = int array

type ctx = {
  h : state;                (* chaining value after the absorbed blocks *)
  block : bytes;            (* 64-byte input buffer *)
  mutable used : int;       (* bytes currently buffered *)
  mutable total : int;      (* total message length in bytes *)
}

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
     0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* ---------- the compression function --------------------------------- *)

(* [int64] arithmetic under the usual operator names, opened only inside
   the kernel. Each is a primitive, so it compiles to an instruction on an
   unboxed operand, never to a call. *)
module Int64_ops = struct
  external ( + ) : int64 -> int64 -> int64 = "%int64_add"
  external ( land ) : int64 -> int64 -> int64 = "%int64_and"
  external ( lor ) : int64 -> int64 -> int64 = "%int64_or"
  external ( lxor ) : int64 -> int64 -> int64 = "%int64_xor"
  external ( lsl ) : int64 -> int -> int64 = "%int64_lsl"
  external ( lsr ) : int64 -> int -> int64 = "%int64_lsr"
end

(* Word [i] of the 64-byte block at [base], big-endian, zero-extended. *)
let[@inline always] load src base i =
  Int64.logand (Int64.of_int32 (Bytes.get_int32_be src (base + (4 * i))))
    0xffff_ffffL

(* [st.(i)] := [from.(i) + x], the feed-forward of word [i]. Both are
   [state]s, so [i < 8] is in range, and the sum of two 32-bit words
   fits a native int before its clip. *)
let[@inline always] add_into (st : state) (from : state) i x =
  Array.unsafe_set st i
    ((Array.unsafe_get from i + Int64.to_int x) land 0xffff_ffff)

open struct
  open Int64_ops

  (* A word is clean when its upper 32 bits are zero. Sums and the
     functions below leave junk above bit 31 that never reaches the low
     32 bits, so only a word that a rotation or shift will read must be
     clipped: the two new state words of each round and each new
     schedule word. *)
  let[@inline always] clip x = x land 0xffff_ffffL

  (* Rotations of a clean word [x] read [x lor (x lsl 32)], which holds
     it twice: every right rotation by [n < 32] is then one logical
     shift, correct in the low 32 bits. Shifts distribute over xor, so
     each sum of three shifts is taken as a chain, one register long:
     Σ0 is (y lsr 2) lxor (y lsr 13) lxor (y lsr 22), and so on. *)
  let[@inline always] big_sigma0 a =
    let y = a lor (a lsl 32) in
    ((((y lsr 9) lxor y) lsr 11) lxor y) lsr 2

  let[@inline always] big_sigma1 e =
    let y = e lor (e lsl 32) in
    ((((y lsr 14) lxor y) lsr 5) lxor y) lsr 6

  let[@inline always] small_sigma0 x =
    let y = x lor (x lsl 32) in
    (((y lsr 11) lxor y) lsr 7) lxor (x lsr 3)

  let[@inline always] small_sigma1 x =
    let y = x lor (x lsl 32) in
    (((y lsr 2) lxor y) lsr 17) lxor (x lsr 10)

  (* Three-operation forms of the FIPS choice and majority functions. *)
  let[@inline always] ch e f g = g lxor (e land (f lxor g))

  let[@inline always] maj a b c = (a land b) lor (c land (a lor b))

  (* The round's two temporaries, and the schedule's recurrence
     W(t) = σ1(W(t-2)) + W(t-7) + σ0(W(t-15)) + W(t-16). T1 adds Σ1(e),
     its longest term, last, so that the other sums need not wait. *)
  let[@inline always] t1 e f g h k w = k + w + h + ch e f g + big_sigma1 e

  let[@inline always] t2 a b c = big_sigma0 a + maj a b c

  let[@inline always] next w16 w15 w7 w2 =
    clip (small_sigma1 w2 + w7 + small_sigma0 w15 + w16)

  (* [st] := the compression of chaining value [from] with the 64-byte
     block at [base] of [src] ([st] may be [from]), in OCaml: the kernel
     on every CPU without the SHA extensions. One straight-line body: the
     64 rounds are written out, each renaming the eight working words
     instead of shifting them, and the schedule is a rolling window of
     sixteen words, each replaced just before the round that reads it.
     Every word is a let-bound [int64] passed to no function call, so the
     native compiler keeps all of them unboxed, in registers or stack
     slots, and a compression allocates nothing. *)
  let compress_portable (st : state) ~(from : state) src base =
    let w00 = load src base 0 and w01 = load src base 1
    and w02 = load src base 2 and w03 = load src base 3
    and w04 = load src base 4 and w05 = load src base 5
    and w06 = load src base 6 and w07 = load src base 7
    and w08 = load src base 8 and w09 = load src base 9
    and w10 = load src base 10 and w11 = load src base 11
    and w12 = load src base 12 and w13 = load src base 13
    and w14 = load src base 14 and w15 = load src base 15 in
    let a = Int64.of_int (Array.unsafe_get from 0)
    and b = Int64.of_int (Array.unsafe_get from 1)
    and c = Int64.of_int (Array.unsafe_get from 2)
    and d = Int64.of_int (Array.unsafe_get from 3)
    and e = Int64.of_int (Array.unsafe_get from 4)
    and f = Int64.of_int (Array.unsafe_get from 5)
    and g = Int64.of_int (Array.unsafe_get from 6)
    and h = Int64.of_int (Array.unsafe_get from 7) in
    let t = t1 e f g h 0x428a2f98L w00 in
    let d = clip (d + t) and h = clip (t + t2 a b c) in
    let t = t1 d e f g 0x71374491L w01 in
    let c = clip (c + t) and g = clip (t + t2 h a b) in
    let t = t1 c d e f 0xb5c0fbcfL w02 in
    let b = clip (b + t) and f = clip (t + t2 g h a) in
    let t = t1 b c d e 0xe9b5dba5L w03 in
    let a = clip (a + t) and e = clip (t + t2 f g h) in
    let t = t1 a b c d 0x3956c25bL w04 in
    let h = clip (h + t) and d = clip (t + t2 e f g) in
    let t = t1 h a b c 0x59f111f1L w05 in
    let g = clip (g + t) and c = clip (t + t2 d e f) in
    let t = t1 g h a b 0x923f82a4L w06 in
    let f = clip (f + t) and b = clip (t + t2 c d e) in
    let t = t1 f g h a 0xab1c5ed5L w07 in
    let e = clip (e + t) and a = clip (t + t2 b c d) in
    let t = t1 e f g h 0xd807aa98L w08 in
    let d = clip (d + t) and h = clip (t + t2 a b c) in
    let t = t1 d e f g 0x12835b01L w09 in
    let c = clip (c + t) and g = clip (t + t2 h a b) in
    let t = t1 c d e f 0x243185beL w10 in
    let b = clip (b + t) and f = clip (t + t2 g h a) in
    let t = t1 b c d e 0x550c7dc3L w11 in
    let a = clip (a + t) and e = clip (t + t2 f g h) in
    let t = t1 a b c d 0x72be5d74L w12 in
    let h = clip (h + t) and d = clip (t + t2 e f g) in
    let t = t1 h a b c 0x80deb1feL w13 in
    let g = clip (g + t) and c = clip (t + t2 d e f) in
    let t = t1 g h a b 0x9bdc06a7L w14 in
    let f = clip (f + t) and b = clip (t + t2 c d e) in
    let t = t1 f g h a 0xc19bf174L w15 in
    let e = clip (e + t) and a = clip (t + t2 b c d) in
    let w00 = next w00 w01 w09 w14 in
    let t = t1 e f g h 0xe49b69c1L w00 in
    let d = clip (d + t) and h = clip (t + t2 a b c) in
    let w01 = next w01 w02 w10 w15 in
    let t = t1 d e f g 0xefbe4786L w01 in
    let c = clip (c + t) and g = clip (t + t2 h a b) in
    let w02 = next w02 w03 w11 w00 in
    let t = t1 c d e f 0x0fc19dc6L w02 in
    let b = clip (b + t) and f = clip (t + t2 g h a) in
    let w03 = next w03 w04 w12 w01 in
    let t = t1 b c d e 0x240ca1ccL w03 in
    let a = clip (a + t) and e = clip (t + t2 f g h) in
    let w04 = next w04 w05 w13 w02 in
    let t = t1 a b c d 0x2de92c6fL w04 in
    let h = clip (h + t) and d = clip (t + t2 e f g) in
    let w05 = next w05 w06 w14 w03 in
    let t = t1 h a b c 0x4a7484aaL w05 in
    let g = clip (g + t) and c = clip (t + t2 d e f) in
    let w06 = next w06 w07 w15 w04 in
    let t = t1 g h a b 0x5cb0a9dcL w06 in
    let f = clip (f + t) and b = clip (t + t2 c d e) in
    let w07 = next w07 w08 w00 w05 in
    let t = t1 f g h a 0x76f988daL w07 in
    let e = clip (e + t) and a = clip (t + t2 b c d) in
    let w08 = next w08 w09 w01 w06 in
    let t = t1 e f g h 0x983e5152L w08 in
    let d = clip (d + t) and h = clip (t + t2 a b c) in
    let w09 = next w09 w10 w02 w07 in
    let t = t1 d e f g 0xa831c66dL w09 in
    let c = clip (c + t) and g = clip (t + t2 h a b) in
    let w10 = next w10 w11 w03 w08 in
    let t = t1 c d e f 0xb00327c8L w10 in
    let b = clip (b + t) and f = clip (t + t2 g h a) in
    let w11 = next w11 w12 w04 w09 in
    let t = t1 b c d e 0xbf597fc7L w11 in
    let a = clip (a + t) and e = clip (t + t2 f g h) in
    let w12 = next w12 w13 w05 w10 in
    let t = t1 a b c d 0xc6e00bf3L w12 in
    let h = clip (h + t) and d = clip (t + t2 e f g) in
    let w13 = next w13 w14 w06 w11 in
    let t = t1 h a b c 0xd5a79147L w13 in
    let g = clip (g + t) and c = clip (t + t2 d e f) in
    let w14 = next w14 w15 w07 w12 in
    let t = t1 g h a b 0x06ca6351L w14 in
    let f = clip (f + t) and b = clip (t + t2 c d e) in
    let w15 = next w15 w00 w08 w13 in
    let t = t1 f g h a 0x14292967L w15 in
    let e = clip (e + t) and a = clip (t + t2 b c d) in
    let w00 = next w00 w01 w09 w14 in
    let t = t1 e f g h 0x27b70a85L w00 in
    let d = clip (d + t) and h = clip (t + t2 a b c) in
    let w01 = next w01 w02 w10 w15 in
    let t = t1 d e f g 0x2e1b2138L w01 in
    let c = clip (c + t) and g = clip (t + t2 h a b) in
    let w02 = next w02 w03 w11 w00 in
    let t = t1 c d e f 0x4d2c6dfcL w02 in
    let b = clip (b + t) and f = clip (t + t2 g h a) in
    let w03 = next w03 w04 w12 w01 in
    let t = t1 b c d e 0x53380d13L w03 in
    let a = clip (a + t) and e = clip (t + t2 f g h) in
    let w04 = next w04 w05 w13 w02 in
    let t = t1 a b c d 0x650a7354L w04 in
    let h = clip (h + t) and d = clip (t + t2 e f g) in
    let w05 = next w05 w06 w14 w03 in
    let t = t1 h a b c 0x766a0abbL w05 in
    let g = clip (g + t) and c = clip (t + t2 d e f) in
    let w06 = next w06 w07 w15 w04 in
    let t = t1 g h a b 0x81c2c92eL w06 in
    let f = clip (f + t) and b = clip (t + t2 c d e) in
    let w07 = next w07 w08 w00 w05 in
    let t = t1 f g h a 0x92722c85L w07 in
    let e = clip (e + t) and a = clip (t + t2 b c d) in
    let w08 = next w08 w09 w01 w06 in
    let t = t1 e f g h 0xa2bfe8a1L w08 in
    let d = clip (d + t) and h = clip (t + t2 a b c) in
    let w09 = next w09 w10 w02 w07 in
    let t = t1 d e f g 0xa81a664bL w09 in
    let c = clip (c + t) and g = clip (t + t2 h a b) in
    let w10 = next w10 w11 w03 w08 in
    let t = t1 c d e f 0xc24b8b70L w10 in
    let b = clip (b + t) and f = clip (t + t2 g h a) in
    let w11 = next w11 w12 w04 w09 in
    let t = t1 b c d e 0xc76c51a3L w11 in
    let a = clip (a + t) and e = clip (t + t2 f g h) in
    let w12 = next w12 w13 w05 w10 in
    let t = t1 a b c d 0xd192e819L w12 in
    let h = clip (h + t) and d = clip (t + t2 e f g) in
    let w13 = next w13 w14 w06 w11 in
    let t = t1 h a b c 0xd6990624L w13 in
    let g = clip (g + t) and c = clip (t + t2 d e f) in
    let w14 = next w14 w15 w07 w12 in
    let t = t1 g h a b 0xf40e3585L w14 in
    let f = clip (f + t) and b = clip (t + t2 c d e) in
    let w15 = next w15 w00 w08 w13 in
    let t = t1 f g h a 0x106aa070L w15 in
    let e = clip (e + t) and a = clip (t + t2 b c d) in
    let w00 = next w00 w01 w09 w14 in
    let t = t1 e f g h 0x19a4c116L w00 in
    let d = clip (d + t) and h = clip (t + t2 a b c) in
    let w01 = next w01 w02 w10 w15 in
    let t = t1 d e f g 0x1e376c08L w01 in
    let c = clip (c + t) and g = clip (t + t2 h a b) in
    let w02 = next w02 w03 w11 w00 in
    let t = t1 c d e f 0x2748774cL w02 in
    let b = clip (b + t) and f = clip (t + t2 g h a) in
    let w03 = next w03 w04 w12 w01 in
    let t = t1 b c d e 0x34b0bcb5L w03 in
    let a = clip (a + t) and e = clip (t + t2 f g h) in
    let w04 = next w04 w05 w13 w02 in
    let t = t1 a b c d 0x391c0cb3L w04 in
    let h = clip (h + t) and d = clip (t + t2 e f g) in
    let w05 = next w05 w06 w14 w03 in
    let t = t1 h a b c 0x4ed8aa4aL w05 in
    let g = clip (g + t) and c = clip (t + t2 d e f) in
    let w06 = next w06 w07 w15 w04 in
    let t = t1 g h a b 0x5b9cca4fL w06 in
    let f = clip (f + t) and b = clip (t + t2 c d e) in
    let w07 = next w07 w08 w00 w05 in
    let t = t1 f g h a 0x682e6ff3L w07 in
    let e = clip (e + t) and a = clip (t + t2 b c d) in
    let w08 = next w08 w09 w01 w06 in
    let t = t1 e f g h 0x748f82eeL w08 in
    let d = clip (d + t) and h = clip (t + t2 a b c) in
    let w09 = next w09 w10 w02 w07 in
    let t = t1 d e f g 0x78a5636fL w09 in
    let c = clip (c + t) and g = clip (t + t2 h a b) in
    let w10 = next w10 w11 w03 w08 in
    let t = t1 c d e f 0x84c87814L w10 in
    let b = clip (b + t) and f = clip (t + t2 g h a) in
    let w11 = next w11 w12 w04 w09 in
    let t = t1 b c d e 0x8cc70208L w11 in
    let a = clip (a + t) and e = clip (t + t2 f g h) in
    let w12 = next w12 w13 w05 w10 in
    let t = t1 a b c d 0x90befffaL w12 in
    let h = clip (h + t) and d = clip (t + t2 e f g) in
    let w13 = next w13 w14 w06 w11 in
    let t = t1 h a b c 0xa4506cebL w13 in
    let g = clip (g + t) and c = clip (t + t2 d e f) in
    let w14 = next w14 w15 w07 w12 in
    let t = t1 g h a b 0xbef9a3f7L w14 in
    let f = clip (f + t) and b = clip (t + t2 c d e) in
    let w15 = next w15 w00 w08 w13 in
    let t = t1 f g h a 0xc67178f2L w15 in
    let e = clip (e + t) and a = clip (t + t2 b c d) in
    add_into st from 0 a; add_into st from 1 b; add_into st from 2 c;
    add_into st from 3 d; add_into st from 4 e; add_into st from 5 f;
    add_into st from 6 g; add_into st from 7 h
end

(* The same compression on the CPU's SHA extensions (sha256_stubs.c). It
   reads 64 raw bytes from [base], so every caller checks the range
   first. *)
external compress_sha_ni : state -> state -> bytes -> int -> unit
  = "ba_sha256_compress"
[@@noalloc]

external sha_extensions : unit -> bool = "ba_sha256_sha_extensions"
[@@noalloc]

type kernel = Portable | Sha_ni

(* Asked of CPUID once, when the module is initialised. *)
let kernel = if sha_extensions () then Sha_ni else Portable

let kernel_name = function Portable -> "portable" | Sha_ni -> "sha-ni"

let compress st ~from src base =
  match kernel with
  | Sha_ni -> compress_sha_ni st from src base
  | Portable -> compress_portable st ~from src base

let compress_with k st ~from src ~pos =
  if pos < 0 || pos > Bytes.length src - 64 then
    invalid_arg "Sha256.compress_with: no 64-byte block at pos";
  match k, kernel with
  | Portable, _ -> compress_portable st ~from src pos
  | Sha_ni, Sha_ni -> compress_sha_ni st from src pos
  | Sha_ni, Portable ->
      invalid_arg "Sha256.compress_with: this CPU lacks the SHA extensions"

(* ---------- states and contexts --------------------------------------- *)

let last_block_capacity = 55

let init () =
  { h = Array.copy iv; block = Bytes.create 64; used = 0; total = 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.used <- 0;
  ctx.total <- 0

let resume ctx st ~total =
  if total < 0 || total land 63 <> 0 then
    invalid_arg "Sha256.resume: total is not a whole number of blocks";
  Array.blit st 0 ctx.h 0 8;
  ctx.used <- 0;
  ctx.total <- total

let midstate prefix =
  let len = String.length prefix in
  if len land 63 <> 0 then
    invalid_arg "Sha256.midstate: prefix is not a whole number of blocks";
  let st = Array.copy iv in
  for i = 0 to (len / 64) - 1 do
    compress st ~from:st (Bytes.unsafe_of_string prefix) (64 * i)
  done;
  st

let word st i = st.(i)

let write_digest st out =
  if Bytes.length out < digest_size then
    invalid_arg "Sha256.write_digest: buffer shorter than a digest";
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int (Array.unsafe_get st i))
  done

(* Top level rather than a closure over [ctx], so feeding allocates
   nothing. *)
let rec feed_loop ctx src pos len =
  if len > 0 then
    if ctx.used = 0 && len >= 64 then begin
      (* Whole block available with nothing buffered: compress straight
         from the source and skip the copy through [ctx.block]. *)
      compress ctx.h ~from:ctx.h src pos;
      feed_loop ctx src (pos + 64) (len - 64)
    end
    else begin
      let room = 64 - ctx.used in
      let take = min room len in
      Bytes.blit src pos ctx.block ctx.used take;
      ctx.used <- ctx.used + take;
      if ctx.used = 64 then begin
        compress ctx.h ~from:ctx.h ctx.block 0;
        ctx.used <- 0
      end;
      feed_loop ctx src (pos + take) (len - take)
    end

let feed_bytes ctx src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Sha256.feed_bytes: range out of bounds";
  ctx.total <- ctx.total + len;
  feed_loop ctx src pos len

let feed_string ctx s =
  feed_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let feed_char ctx c =
  Bytes.unsafe_set ctx.block ctx.used c;
  ctx.total <- ctx.total + 1;
  if ctx.used = 63 then begin
    compress ctx.h ~from:ctx.h ctx.block 0;
    ctx.used <- 0
  end
  else ctx.used <- ctx.used + 1

(* The padding's last field: the message length in bits, as 8 big-endian
   bytes at the end of the block. *)
let set_bit_length block total =
  Bytes.set_int64_be block 56 (Int64.of_int (total * 8))

let compress_last st ~from block ~len ~total =
  if len < 0 || len > last_block_capacity || Bytes.length block < 64 then
    invalid_arg "Sha256.compress_last: no room for the padding";
  Bytes.set block len '\x80';
  Bytes.fill block (len + 1) (last_block_capacity - len) '\x00';
  set_bit_length block total;
  compress st ~from block 0

let finalize_into ctx out =
  if Bytes.length out < digest_size then
    invalid_arg "Sha256.finalize_into: buffer shorter than a digest";
  let used = ctx.used in
  if used <= last_block_capacity then
    compress_last ctx.h ~from:ctx.h ctx.block ~len:used ~total:ctx.total
  else begin
    (* The 0x80 fits, the length does not: one more block of zeros
       carries it. *)
    Bytes.set ctx.block used '\x80';
    Bytes.fill ctx.block (used + 1) (63 - used) '\x00';
    compress ctx.h ~from:ctx.h ctx.block 0;
    Bytes.fill ctx.block 0 56 '\x00';
    set_bit_length ctx.block ctx.total;
    compress ctx.h ~from:ctx.h ctx.block 0
  end;
  write_digest ctx.h out

let finalize ctx =
  let out = Bytes.create digest_size in
  finalize_into ctx out;
  Bytes.unsafe_to_string out

(* One-shot digests run on a per-domain scratch context: nothing but the
   digest is allocated, and each domain owns its own scratch, so trials
   on parallel domains never share one (as in Hmac, no systhreads may
   share a domain). Neither function below calls out while the scratch
   is live, so it is never re-entered. *)
let scratch = Domain.DLS.new_key init

let digest_string s =
  let ctx = Domain.DLS.get scratch in
  reset ctx;
  feed_string ctx s;
  finalize ctx

let feed_length ctx n =
  for i = 7 downto 0 do
    feed_char ctx (Char.unsafe_chr ((n lsr (8 * i)) land 0xff))
  done

let feed_part ctx part =
  feed_length ctx (String.length part);
  feed_string ctx part

let rec feed_concat ctx = function
  | [] -> ()
  | part :: rest ->
      feed_part ctx part;
      feed_concat ctx rest

(* Length-prefix each part so the encoding is injective. *)
let digest_concat parts =
  let ctx = Domain.DLS.get scratch in
  reset ctx;
  feed_concat ctx parts;
  finalize ctx

let to_hex d =
  let buf = Buffer.create (2 * String.length d) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
