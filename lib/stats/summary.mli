(** Summary statistics over float samples. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n−1 denominator) *)
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val of_list : float list -> t
(** @raise Invalid_argument on the empty list. *)

val of_ints : int list -> t

val quantile : float array -> float -> float
(** [quantile sorted q] is the [q]-quantile (linear interpolation) of an
    ascending-sorted array. @raise Invalid_argument if empty or
    [q] outside [\[0,1\]]. *)

