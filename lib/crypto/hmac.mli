(** HMAC-SHA256 (RFC 2104 / FIPS 198-1).

    The message-authentication code used as the PRF of the paper's
    Appendix-D compiler and as the tag algorithm of the idealized signature
    functionality. Validated against the RFC 4231 test vectors in the test
    suite.

    Every simulated crypto primitive in this repository (PRF, VRF, Fmine,
    signatures, NIZK) evaluates HMAC thousands of times per run under a
    {e fixed} key, so precomputing the key pads is the dominant saving:
    {!precompute} absorbs the ipad/opad blocks once and {!mac_with} then
    costs two SHA-256 compressions per short message instead of four.
    [mac ~key msg = mac_with (precompute ~key) msg] bit-for-bit.

    Tags are computed on a pair of per-domain scratch SHA-256 contexts
    ([Domain.DLS]), restored from the key's midstates for each tag, so a
    tag allocates only its 32-byte result. A scratch is live only inside
    one tag function, which calls no user code while it holds it. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key].
    Keys longer than the 64-byte block are hashed first, shorter keys are
    zero-padded, per the standard. *)

val mac_concat : key:string -> string list -> string
(** [mac_concat ~key parts] tags the injective length-prefixed encoding of
    [parts] (same encoding as {!Sha256.digest_concat}). *)

type key_ctx
(** A precomputed key: the SHA-256 midstates with the ipad/opad blocks
    already absorbed. Immutable after {!precompute}, so one key may be
    shared by any number of tags on any number of domains. *)

val precompute : key:string -> key_ctx
(** [precompute ~key] derives the pad midstates for [key] (two SHA-256
    compressions, paid once per key instead of once per tag). *)

val mac_with : key_ctx -> string -> string
(** [mac_with kctx msg = mac ~key msg] for the [key] that produced
    [kctx], at half the compression count for short messages. Allocates
    only the 32-byte tag. *)

val mac_concat_with : key_ctx -> string list -> string
(** [mac_concat_with kctx parts = mac_concat ~key parts] for the [key]
    that produced [kctx]. Allocates only the 32-byte tag. *)

val mac_node_top53 : key_ctx -> node:int -> string -> int
(** [mac_node_top53 kctx ~node msg] is the first 53 bits, big-endian, of
    [mac_with kctx (string_of_int node ^ "|" ^ msg)]. The digits, the
    ['|'] and [msg] are absorbed directly and the tag is read in place,
    so it allocates nothing. This is the [Fmine] lottery coin
    ({!Prf.coin}). *)

val equal : string -> string -> bool
(** Constant-time comparison of two equal-length tags; [false] on length
    mismatch. *)
