(** Input vectors for seeded runs. Repetition over derived seeds and
    the aggregation of verdicts and metrics live in
    [Baexperiments.Common.measure]. *)

val random_inputs : n:int -> int64 -> bool array
(** Independent fair-coin inputs derived from a seed. *)

val unanimous_inputs : n:int -> bool -> bool array
(** All-[b] inputs (the validity-triggering case). *)

val split_inputs : n:int -> bool array
(** Half 0, half 1 — the adversarially interesting mixed-input case. *)

val named : (string * (n:int -> int64 -> bool array)) list
(** The [--inputs] vocabulary of [ba_run] and [ba_explore], in order:
    zeros, ones, split, random (the seed is read by random only). *)
