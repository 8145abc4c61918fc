(** HMAC-SHA256 (RFC 2104 / FIPS 198-1).

    The message-authentication code used as the PRF of the paper's
    Appendix-D compiler and as the tag algorithm of the idealized signature
    functionality. Validated against the RFC 4231 test vectors in the test
    suite.

    Every simulated crypto primitive in this repository (PRF, VRF, Fmine,
    signatures, NIZK) evaluates HMAC thousands of times per run under a
    {e fixed} key, so precomputing the key pads is the dominant saving:
    {!precompute} hashes the ipad/opad blocks once, and a tag then starts
    from their chaining values instead of re-absorbing them.
    [mac ~key msg = mac_with (precompute ~key) msg] bit-for-bit.

    {b Single-block path.} An inner message of at most 55 bytes
    ({!Sha256.last_block_capacity}) fits one padded block. {!mac_with},
    {!mac_top53} and {!mac_node_top53} write such a message straight into
    a scratch block and compress it from the ipad chaining value; the
    inner digest then overwrites that block as the outer message, which
    is compressed from the opad chaining value. A tag is two compressions,
    and nothing but the message is copied. Longer messages, and every
    {!mac_concat_with}, stream through a scratch {!Sha256.ctx} on the same
    compression, then take the same outer step.

    Tags are computed on per-domain scratch ([Domain.DLS]), so a tag
    allocates only its 32-byte result, and the 53-bit readings allocate
    nothing. A scratch is live only inside one tag function, which calls
    no user code while it holds it. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key].
    Keys longer than the 64-byte block are hashed first, shorter keys are
    zero-padded, per the standard. *)

val mac_concat : key:string -> string list -> string
(** [mac_concat ~key parts] tags the injective length-prefixed encoding of
    [parts] (same encoding as {!Sha256.digest_concat}). *)

type key_ctx
(** A precomputed key: the two SHA-256 chaining values after the ipad
    and the opad block, and nothing else. Immutable after {!precompute},
    so one key may be shared by any number of tags on any number of
    domains. *)

val precompute : key:string -> key_ctx
(** [precompute ~key] derives the pad chaining values for [key] (two
    SHA-256 compressions, paid once per key instead of once per tag). *)

val mac_with : key_ctx -> string -> string
(** [mac_with kctx msg = mac ~key msg] for the [key] that produced
    [kctx], at half the compression count for short messages: a [msg] of
    at most 55 bytes takes the single-block path. Allocates only the
    32-byte tag. *)

val mac_concat_with : key_ctx -> string list -> string
(** [mac_concat_with kctx parts = mac_concat ~key parts] for the [key]
    that produced [kctx]. Allocates only the 32-byte tag. *)

val mac_top53 : key_ctx -> string -> int
(** [mac_top53 kctx msg] is the first 53 bits, big-endian, of
    [mac_with kctx msg], read from the outer chaining value's first two
    words without building the tag, so it allocates nothing. A [msg] of
    at most 55 bytes takes the single-block path. This is the real
    world's VRF lottery ({!Prf.eval_below}). *)

val mac_node_top53 : key_ctx -> node:int -> string -> int
(** [mac_node_top53 kctx ~node msg] is the first 53 bits, big-endian, of
    [mac_with kctx (string_of_int node ^ "|" ^ msg)]. The digits, the
    ['|'] and [msg] are written directly into the scratch block and the
    tag is read as {!mac_top53} reads it, so it allocates nothing. The
    single-block path applies when the whole input, digits and ['|']
    included, is at most 55 bytes. This is the [Fmine] lottery coin
    ({!Prf.coin}). *)

val equal : string -> string -> bool
(** Constant-time comparison of two equal-length tags; [false] on length
    mismatch. *)
