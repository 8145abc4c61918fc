(** Shared plumbing for the experiment suite E1–E11: repetition over
    derived seeds (optionally in parallel through {!Bapar.map_reduce}), rate
    formatting, and verdict aggregation. Each experiment module exposes
    [run : ?reps:int -> ?seed:int64 -> unit -> Bastats.Table.t list];
    tables are printed by [bin/experiments.exe] and recorded in
    EXPERIMENTS.md. *)

(** Aggregate over a block of trials. The record carries exact integer
    sums — not means — so that {!merge_rates} is associative and
    commutative and parallel aggregation is bit-identical to the
    sequential fold; the means the tables print are derived at read
    time by the [mean_*] accessors. *)
type rates = {
  trials : int;
  consistency_fail : int;
  validity_fail : int;
  termination_fail : int;
  total_rounds : int;
  total_multicasts : int;
  total_multicast_bits : int;
  total_unicasts : int;
  total_removals : int;
  total_corruptions : int;
}

val empty_rates : rates
(** Identity of {!merge_rates}. *)

val merge_rates : rates -> rates -> rates
(** Field-wise sum. Associative, commutative, identity {!empty_rates} —
    the monoid the parallel trial runner folds over. *)

val mean_rounds : rates -> float

val mean_multicasts : rates -> float

val mean_multicast_bits : rates -> float

val mean_unicasts : rates -> float

val mean_removals : rates -> float

val mean_corruptions : rates -> float
(** Means over [trials], derived from the integer sums ([0.] when the
    block is empty). *)

val set_jobs : int -> unit
(** Set the process-wide trial parallelism used by {!measure} when no
    explicit [?jobs] is given (clamped to ≥ 1). It starts at
    {!Bapar.default_jobs}[ ()], i.e. BA_JOBS or
    [Domain.recommended_domain_count ()]. *)

val measure :
  ?jobs:int ->
  reps:int ->
  seed:int64 ->
  (int64 -> Basim.Engine.result * Basim.Properties.verdict) ->
  rates
(** Run [reps] trials on derived seeds ({!seed_of}) and aggregate.
    Trials run through {!Bapar.map_reduce} on up to [?jobs] domains
    (default: the {!set_jobs} setting), but the result is the
    job-index-order fold of {!merge_rates}, so it is bit-identical for
    every [jobs] — including [~jobs:1], which runs purely sequentially
    in the calling domain.
    Each trial must build its protocol state inside [f] from the seed
    it is given; [f] is called from worker domains. *)

val rate : int -> int -> string
(** [rate k n] renders "k/n (p%)". *)

val pct : float -> string
(** Percentage with one decimal. *)

val seed_of : int64 -> int -> int64
(** [seed_of base k] — the k-th derived seed. The exact values are
    load-bearing: EXPERIMENTS.md records aggregates produced from them,
    and [test_experiments.ml] regression-pins a sample. *)

val rates_to_json : rates -> Baobs.Json.t
(** Machine-readable form of an aggregated trial block — the JSON twin
    of every rates-derived table row (same shape as before the
    parallel rework: trial counts plus derived means). *)
