(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every experiment in this repository is reproducible from a single 64-bit
    seed. The generator is splittable: {!split} derives an independent child
    stream, so the engine can hand each node, each round, and each adversary
    its own stream without any cross-contamination of draws — reordering
    draws in one component never perturbs another. *)

type t
(** A mutable PRNG stream. *)

val create : int64 -> t
(** [create seed] is a fresh stream seeded with [seed]. *)

val of_string : string -> t
(** [of_string label] seeds a stream from the SHA-256 of [label]; used to
    derive named sub-streams reproducibly. *)

val split : t -> t
(** [split t] draws from [t] to produce an independent child stream. *)

val split_named : t -> string -> t
(** [split_named t label] derives a child stream from [t]'s seed material
    and [label] without consuming draws from [t]; two distinct labels give
    independent streams. *)

val next_int64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] is a uniformly random size-[k] subset
    of [\[0, n)], in increasing order. @raise Invalid_argument if
    [k < 0 || k > n]. *)
