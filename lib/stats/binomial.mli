(** Binomial utilities: exact tails for small n, Wilson confidence
    intervals for experiment failure rates. *)

val pmf : n:int -> p:float -> int -> float
(** Probability of exactly [k] successes out of [n] with success
    probability [p]. *)

val cdf : n:int -> p:float -> int -> float
(** Probability of at most [k] successes. *)

val upper_tail : n:int -> p:float -> int -> float
(** Probability of at least [k] successes. *)

val wilson_interval : successes:int -> trials:int -> z:float -> float * float
(** Wilson score interval for a proportion; [z = 1.96] for 95%.
    @raise Invalid_argument if [trials <= 0]. *)
