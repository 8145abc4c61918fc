(** Pseudo-random function family, instantiated as HMAC-SHA256.

    This is the PRF of the paper's Appendix-D construction: node [i] holds a
    secret key [sk_i]; the mining attempt for a message [m] evaluates
    [rho = PRF_{sk_i}(m)] and succeeds iff [rho] falls below a difficulty
    threshold. {!output_fraction} maps the 256-bit output to a uniform
    fraction in [\[0,1)] so difficulty parameters can be expressed as plain
    probabilities. *)

type key = string
(** A PRF secret key (arbitrary bytes). *)

val gen : Rng.t -> key
(** [gen rng] samples a fresh 32-byte key from [rng]. *)

val eval : key -> string -> string
(** [eval key msg] is the 32-byte PRF output on [msg]. Deterministic in
    [(key, msg)]. *)

type cached
(** A key with its HMAC pad midstates precomputed ({!Hmac.precompute}).
    Callers that evaluate the PRF many times under one key (mining, VRF
    evaluation) should cache once and use {!eval_cached}. *)

val cache : key -> cached
(** [cache key] precomputes the HMAC midstates for [key]. *)

val eval_cached : cached -> string -> string
(** [eval_cached (cache key) msg = eval key msg], bit for bit, at half the
    compression count for short messages; allocates only the output. *)

val output_fraction : string -> float
(** [output_fraction rho] maps a PRF output to a uniform value in [\[0,1)]
    (first 53 bits of [rho], big-endian). Used to compare against
    probability-form difficulty parameters.
    @raise Invalid_argument if [rho] is shorter than 7 bytes. *)

val below_difficulty : string -> p:float -> bool
(** [below_difficulty rho ~p] is [true] iff [rho] wins a success-probability
    [p] lottery, i.e. [output_fraction rho < p]. *)

val eval_below : cached -> string -> p:float -> bool
(** [eval_below c msg ~p = below_difficulty (eval_cached c msg) ~p], bit
    for bit, computed without building the output string
    ({!Hmac.mac_top53}), so it allocates nothing. A [msg] of at most 55
    bytes takes HMAC's single-block path: two compressions, and the 53
    bits are read from the outer chaining value. This is the real
    world's lottery, which builds a VRF proof only for a winning draw. *)

val coin : cached -> node:int -> msg:string -> p:float -> bool
(** [coin c ~node ~msg ~p] is the [Fmine] lottery coin of node [node] for
    mining string [msg]:
    [below_difficulty (eval_cached c (string_of_int node ^ "|" ^ msg)) ~p],
    bit for bit, computed without building the input or the output
    string ({!Hmac.mac_node_top53}), so it allocates nothing. When the
    digits, the ['|'] and [msg] total at most 55 bytes, as the mining
    strings of this repository's protocols do at every node id of a run,
    the coin is HMAC's single-block path: two compressions. *)
