(** From-scratch SHA-256 (FIPS 180-4).

    This is the hash function underlying every other cryptographic component
    in the reproduction: HMAC, the PRF and the lottery coins, commitments,
    the simulated NIZK tags and {!Rng.split_named}. Every one of them goes
    through one compression function, which has two kernels:
    - on an x86-64 CPU whose CPUID reports SHA, SSSE3 and SSE4.1, the
      CPU's SHA extensions ([sha256rnds2], [sha256msg1], [sha256msg2]),
      in the one C file of the library;
    - everywhere else, a straight-line OCaml body over unboxed [int64]
      locals.

    CPUID is read once, when the module is initialised; no option, flag
    or environment variable chooses a kernel. Both kernels compute the
    same function bit for bit and allocate nothing, so every digest,
    trace and count is the same on every CPU; only the time differs (a
    compression takes about a fifth as long on the SHA extensions).
    The OCaml kernel stays because it is the only one on every other CPU,
    and the test suite runs both by name ({!compress_with}) against the
    NIST vectors and an independent FIPS 180-4 reference. Chaining words
    are kept in native [int]s (requires a 64-bit-[int] OCaml, asserted at
    load).

    Both a one-shot and an incremental interface are provided. All digests
    are 32 raw bytes; use {!to_hex} for a printable form. Compression,
    feeding and {!finalize_into} allocate nothing, so a hash costs the
    allocator only its output. *)

type ctx
(** Mutable hashing context for incremental use. *)

type state
(** A chaining value: the eight 32-bit words that each compression maps
    to the next eight. Once a message is padded and compressed, its
    state's words are its digest, big-endian. A state is mutable storage:
    {!compress_last} overwrites the one it is given first, and nothing
    else here writes to one. *)

val init : unit -> ctx
(** [init ()] is a fresh context with the standard initial hash state. *)

val reset : ctx -> unit
(** [reset ctx] returns [ctx] to {!init}'s state in place, without
    allocating. *)

val resume : ctx -> state -> total:int -> unit
(** [resume ctx st ~total] puts [ctx] in place, without allocating, where
    it would be after absorbing a [total]-byte prefix whose chaining value
    is [st] ({!midstate}); [st] is not modified. This is what makes HMAC
    midstate caching cheap: hash a fixed prefix once, then resume a
    scratch context from it per message ({!Hmac.mac_concat_with}).
    @raise Invalid_argument unless [total] is a non-negative multiple of
    64. *)

val feed_bytes : ctx -> bytes -> pos:int -> len:int -> unit
(** [feed_bytes ctx b ~pos ~len] absorbs [len] bytes of [b] starting at
    [pos]. @raise Invalid_argument if the range is out of bounds. *)

val feed_string : ctx -> string -> unit
(** [feed_string ctx s] absorbs all of [s]. *)

val feed_part : ctx -> string -> unit
(** [feed_part ctx part] absorbs [part] preceded by its length as 8
    big-endian bytes: one part of {!feed_concat}'s encoding. *)

val feed_concat : ctx -> string list -> unit
(** [feed_concat ctx parts] absorbs the injective encoding
    {!digest_concat} hashes: {!feed_part} of each part, in order. *)

val finalize : ctx -> string
(** [finalize ctx] pads, finishes, and returns the 32-byte digest. The
    context must not be used afterwards (until {!reset} or {!resume}). *)

val finalize_into : ctx -> bytes -> unit
(** [finalize_into ctx buf] is {!finalize} writing the digest into the
    first {!digest_size} bytes of [buf] instead of a fresh string.
    @raise Invalid_argument if [buf] is shorter than a digest. *)

(** {2 Chaining states}

    The compression function on its own, for a caller that hashes short
    messages after a fixed block-aligned prefix and lays out their one
    padded block itself ({!Hmac}'s single-block path). *)

val midstate : string -> state
(** [midstate prefix] is the chaining value after hashing [prefix], a
    whole number of 64-byte blocks; [midstate ""] is the initial value.
    @raise Invalid_argument if [String.length prefix] is not a multiple
    of 64. *)

val last_block_capacity : int
(** 55: the most message bytes the final block holds beside its padding
    (the [0x80] byte and the 8-byte bit length). *)

val compress_last :
  state -> from:state -> bytes -> len:int -> total:int -> unit
(** [compress_last st ~from block ~len ~total] finishes a [total]-byte
    message whose last [len] bytes are the first [len] bytes of [block]
    and whose earlier [total - len] bytes, a whole number of blocks, left
    the chaining value [from]. It writes the padding into [block] after
    those [len] bytes and sets [st] to the compression of [from] with
    [block]: [st] is then the message's digest, and may be [from] itself.
    One compression, no allocation.
    @raise Invalid_argument if [len] is negative or above
    {!last_block_capacity}, or [block] is shorter than 64 bytes. *)

val write_digest : state -> bytes -> unit
(** [write_digest st buf] writes [st]'s words big-endian into the first
    {!digest_size} bytes of [buf].
    @raise Invalid_argument if [buf] is shorter than a digest. *)

val word : state -> int -> int
(** [word st i] is word [i] of [st], in [\[0, 2{^32})]: bytes [4i] to
    [4i + 3] of {!write_digest}'s output, read big-endian.
    @raise Invalid_argument unless [0 <= i < 8]. *)

(** {2 Kernels} *)

type kernel =
  | Portable  (** the OCaml compression, on any CPU *)
  | Sha_ni  (** the x86-64 SHA extensions *)

val kernel : kernel
(** The kernel every compression in this process runs: [Sha_ni] when
    CPUID reports SHA, SSSE3 and SSE4.1, [Portable] otherwise. *)

val kernel_name : kernel -> string
(** ["portable"] or ["sha-ni"], as timing reports print it. *)

val compress_with : kernel -> state -> from:state -> bytes -> pos:int -> unit
(** [compress_with k st ~from b ~pos] sets [st] to the compression of
    [from] with the 64 bytes of [b] at [pos], on kernel [k] whichever
    one {!kernel} is; [st] may be [from]. For tests that must run the
    kernel this CPU does not choose.
    @raise Invalid_argument if [b] holds no 64 bytes at [pos], or if [k]
    is [Sha_ni] on a CPU without the SHA extensions. Both checks come
    before any byte is read. *)

(** {2 One-shot digests} *)

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
