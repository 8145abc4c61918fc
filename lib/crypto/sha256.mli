(** From-scratch SHA-256 (FIPS 180-4).

    This is the hash function underlying every other cryptographic component
    in the reproduction: HMAC, the PRF, commitments, and the simulated NIZK
    tags. It is a from-scratch OCaml implementation — no C stubs — whose
    compression function runs on untagged native [int]s masked to 32 bits
    (requires a 64-bit-[int] OCaml, asserted at load), and is validated in
    the test suite against the official NIST test vectors.

    Both a one-shot and an incremental interface are provided. All digests
    are 32 raw bytes; use {!to_hex} for a printable form. Compression,
    feeding and {!finalize_into} allocate nothing, so a hash costs the
    allocator only its output. *)

type ctx
(** Mutable hashing context for incremental use. *)

val init : unit -> ctx
(** [init ()] is a fresh context with the standard initial hash state. *)

val reset : ctx -> unit
(** [reset ctx] returns [ctx] to {!init}'s state in place, without
    allocating. *)

val restore : ctx -> from:ctx -> unit
(** [restore ctx ~from] resets [ctx] to the state of [from] in place,
    without allocating; [from] is not modified. This is what makes HMAC
    midstate caching cheap: absorb a fixed prefix into [from] once, then
    restore a scratch context from it per message ({!Hmac.mac_with}). *)

val feed_bytes : ctx -> bytes -> pos:int -> len:int -> unit
(** [feed_bytes ctx b ~pos ~len] absorbs [len] bytes of [b] starting at
    [pos]. @raise Invalid_argument if the range is out of bounds. *)

val feed_string : ctx -> string -> unit
(** [feed_string ctx s] absorbs all of [s]. *)

val feed_char : ctx -> char -> unit
(** [feed_char ctx c] absorbs the single byte [c]. *)

val feed_part : ctx -> string -> unit
(** [feed_part ctx part] absorbs [part] preceded by its length as 8
    big-endian bytes: one part of {!feed_concat}'s encoding. *)

val feed_concat : ctx -> string list -> unit
(** [feed_concat ctx parts] absorbs the injective encoding
    {!digest_concat} hashes: {!feed_part} of each part, in order. *)

val finalize : ctx -> string
(** [finalize ctx] pads, finishes, and returns the 32-byte digest. The
    context must not be used afterwards (until {!restore}d). *)

val finalize_into : ctx -> bytes -> unit
(** [finalize_into ctx buf] is {!finalize} writing the digest into the
    first {!digest_size} bytes of [buf] instead of a fresh string.
    @raise Invalid_argument if [buf] is shorter than a digest. *)

val digest_string : string -> string
(** [digest_string s] is the 32-byte SHA-256 digest of [s]. Runs on a
    per-domain scratch context, so it allocates only the digest. *)

val digest_concat : string list -> string
(** [digest_concat parts] hashes the concatenation of [parts] without
    building the intermediate string. Each part is length-prefixed
    internally so that the encoding is injective (no ambiguity between
    ["ab";"c"] and ["a";"bc"]). Allocates only the digest, like
    {!digest_string}. *)

val to_hex : string -> string
(** [to_hex d] renders a raw digest as lowercase hexadecimal. *)

val digest_size : int
(** Size of a digest in bytes (32). *)
