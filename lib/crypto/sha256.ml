let digest_size = 32

(* The compression core runs on untagged native [int]s masked to 32 bits
   instead of boxed [Int32.t]: every Int32 operation allocates a box, and
   a single compression performs ~600 of them, so the boxed version spends
   most of its time in the allocator. Deferred masking keeps intermediate
   sums (at most five 32-bit terms, < 2^35) exact, which needs a few bits
   of headroom above 32 — any 64-bit OCaml qualifies. *)
let () = assert (Sys.int_size >= 36)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;            (* 8-word chaining state, each masked to 32 bits *)
  block : bytes;            (* 64-byte input buffer *)
  mutable used : int;       (* bytes currently buffered *)
  mutable total : int;      (* total message length in bytes *)
  w : int array;            (* 64-word message schedule, reused *)
}

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
     0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let init () =
  { h = Array.copy iv;
    block = Bytes.create 64;
    used = 0;
    total = 0;
    w = Array.make 64 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.used <- 0;
  ctx.total <- 0

let restore ctx ~from =
  Array.blit from.h 0 ctx.h 0 8;
  Bytes.blit from.block 0 ctx.block 0 64;
  ctx.used <- from.used;
  ctx.total <- from.total

let mask32 = 0xffff_ffff

(* Rotations use the double-word trick: [x lor (x lsl 32)] holds the value
   twice, so every right-rotation becomes a single logical shift of the
   doubled word, with one mask shared by the whole xor of rotations. The
   doubled word may run into OCaml's 63rd (sign) bit; that is harmless
   because only [lor]/[lsr]/[land] touch it, and the highest bit any
   rotation here reads sits at position 56. *)
let[@inline always] big_sigma1 e =
  let y = e lor (e lsl 32) in
  ((y lsr 6) lxor (y lsr 11) lxor (y lsr 25)) land mask32

let[@inline always] big_sigma0 a =
  let y = a lor (a lsl 32) in
  ((y lsr 2) lxor (y lsr 13) lxor (y lsr 22)) land mask32

(* Three-operation forms of the FIPS choice/majority functions. *)
let[@inline always] ch e f g = g lxor (e land (f lxor g))
let[@inline always] maj a b c = (a land b) lor (c land (a lor b))

(* Eight rounds per iteration: instead of shuffling the eight state words
   one slot over after every round, each unrolled round reads and writes
   the permuted names directly, and after eight rounds the names line up
   again. The words travel as arguments so they live in registers rather
   than ref cells (the non-flambda compiler does not unbox refs). The
   schedule is spent once the last round has read it, so the final eight
   words are parked in its first slots, and a compression allocates
   nothing. *)
let rec rounds w t a b c d e f g h =
  if t = 64 then begin
    Array.unsafe_set w 0 a;
    Array.unsafe_set w 1 b;
    Array.unsafe_set w 2 c;
    Array.unsafe_set w 3 d;
    Array.unsafe_set w 4 e;
    Array.unsafe_set w 5 f;
    Array.unsafe_set w 6 g;
    Array.unsafe_set w 7 h
  end
  else begin
    let t1 = h + big_sigma1 e + ch e f g
             + Array.unsafe_get k t + Array.unsafe_get w t in
    let d = (d + t1) land mask32
    and h = (t1 + big_sigma0 a + maj a b c) land mask32 in
    let t1 = g + big_sigma1 d + ch d e f
             + Array.unsafe_get k (t + 1) + Array.unsafe_get w (t + 1) in
    let c = (c + t1) land mask32
    and g = (t1 + big_sigma0 h + maj h a b) land mask32 in
    let t1 = f + big_sigma1 c + ch c d e
             + Array.unsafe_get k (t + 2) + Array.unsafe_get w (t + 2) in
    let b = (b + t1) land mask32
    and f = (t1 + big_sigma0 g + maj g h a) land mask32 in
    let t1 = e + big_sigma1 b + ch b c d
             + Array.unsafe_get k (t + 3) + Array.unsafe_get w (t + 3) in
    let a = (a + t1) land mask32
    and e = (t1 + big_sigma0 f + maj f g h) land mask32 in
    let t1 = d + big_sigma1 a + ch a b c
             + Array.unsafe_get k (t + 4) + Array.unsafe_get w (t + 4) in
    let h = (h + t1) land mask32
    and d = (t1 + big_sigma0 e + maj e f g) land mask32 in
    let t1 = c + big_sigma1 h + ch h a b
             + Array.unsafe_get k (t + 5) + Array.unsafe_get w (t + 5) in
    let g = (g + t1) land mask32
    and c = (t1 + big_sigma0 d + maj d e f) land mask32 in
    let t1 = b + big_sigma1 g + ch g h a
             + Array.unsafe_get k (t + 6) + Array.unsafe_get w (t + 6) in
    let f = (f + t1) land mask32
    and b = (t1 + big_sigma0 c + maj c d e) land mask32 in
    let t1 = a + big_sigma1 f + ch f g h
             + Array.unsafe_get k (t + 7) + Array.unsafe_get w (t + 7) in
    let e = (e + t1) land mask32
    and a = (t1 + big_sigma0 b + maj b c d) land mask32 in
    rounds w (t + 8) a b c d e f g h
  end

(* Compress the 64-byte block at offset [base] of [src]. The caller
   guarantees [base + 64 <= Bytes.length src]; indices into the schedule
   and state arrays are structurally in range (fixed loop bounds), so the
   unsafe accessors only skip provably dead checks. *)
let compress_block ctx src base =
  let w = ctx.w and h = ctx.h in
  for t = 0 to 15 do
    let i = base + (t * 4) in
    let b0 = Char.code (Bytes.unsafe_get src i)
    and b1 = Char.code (Bytes.unsafe_get src (i + 1))
    and b2 = Char.code (Bytes.unsafe_get src (i + 2))
    and b3 = Char.code (Bytes.unsafe_get src (i + 3)) in
    Array.unsafe_set w t ((b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3)
  done;
  for t = 16 to 63 do
    let x15 = Array.unsafe_get w (t - 15) and x2 = Array.unsafe_get w (t - 2) in
    let y15 = x15 lor (x15 lsl 32) and y2 = x2 lor (x2 lsl 32) in
    let s0 = ((y15 lsr 7) lxor (y15 lsr 18) lxor (x15 lsr 3)) land mask32
    and s1 = ((y2 lsr 17) lxor (y2 lsr 19) lxor (x2 lsr 10)) land mask32 in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
       land mask32)
  done;
  rounds w 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7);
  for i = 0 to 7 do
    Array.unsafe_set h i
      ((Array.unsafe_get h i + Array.unsafe_get w i) land mask32)
  done

let compress ctx = compress_block ctx ctx.block 0

(* Top level rather than a closure over [ctx], so feeding allocates
   nothing. *)
let rec feed_loop ctx src pos len =
  if len > 0 then
    if ctx.used = 0 && len >= 64 then begin
      (* Whole block available with nothing buffered: compress straight
         from the source and skip the copy through [ctx.block]. *)
      compress_block ctx src pos;
      feed_loop ctx src (pos + 64) (len - 64)
    end
    else begin
      let room = 64 - ctx.used in
      let take = min room len in
      Bytes.blit src pos ctx.block ctx.used take;
      ctx.used <- ctx.used + take;
      if ctx.used = 64 then begin
        compress ctx;
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
    compress ctx;
    ctx.used <- 0
  end
  else ctx.used <- ctx.used + 1

let finalize_into ctx out =
  if Bytes.length out < digest_size then
    invalid_arg "Sha256.finalize_into: buffer shorter than a digest";
  let bit_len = ctx.total * 8 in
  (* Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length. *)
  Bytes.set ctx.block ctx.used '\x80';
  ctx.used <- ctx.used + 1;
  if ctx.used > 56 then begin
    Bytes.fill ctx.block ctx.used (64 - ctx.used) '\x00';
    compress ctx;
    ctx.used <- 0
  end;
  Bytes.fill ctx.block ctx.used (56 - ctx.used) '\x00';
  for i = 0 to 7 do
    Bytes.set ctx.block (56 + i)
      (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx;
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.unsafe_chr (v land 0xff))
  done

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
