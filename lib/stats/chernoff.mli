(** Chernoff-bound envelopes used to check the paper's stochastic lemmas
    (Lemmas 10–12) against measured data. *)

val lower_tail_bound : mu:float -> delta:float -> float
(** [lower_tail_bound ~mu ~delta] bounds [P(X <= (1-delta) mu)] for a sum
    of independent Bernoullis with mean [mu]: [exp(-delta² mu / 2)].
    @raise Invalid_argument unless [0 <= delta <= 1] and [mu >= 0]. *)

val committee_size_band : lambda:float -> confidence:float -> float * float
(** [committee_size_band ~lambda ~confidence] is a symmetric
    Chernoff-derived band [(lo, hi)] such that a Binomial(n, λ/n)
    committee lands in it except with probability at most
    [1 - confidence]. Used as the envelope in experiment E7. *)
