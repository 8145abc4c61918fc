(** The selective-opening PRF security game of Appendix E.1
    (Definition 20 / Theorem 21), as executable code.

    The game [Expt_b] between a challenger and an adversary: the adversary
    may {e create} PRF instances, {e evaluate} them on chosen messages,
    {e corrupt} instances (learning their keys — modeling adaptive node
    corruption), and issue {e challenge} queries on some instance/message;
    the challenger answers challenges truthfully ([b = 1]) or with fresh
    randomness ([b = 0]). A {b compliant} adversary never corrupts a
    challenged instance and never both evaluates and challenges the same
    (instance, message). Security: no compliant adversary distinguishes
    the two worlds.

    This is the exact property the Appendix-E hybrid argument consumes
    when it replaces honest nodes' mining coins with true randomness, one
    corruption at a time. The module provides the challenger with
    compliance {e enforcement} (non-compliant queries raise), so tests can
    both (a) run statistical distinguishing experiments against the
    HMAC-SHA256 PRF and (b) check that the compliance rules — which are
    what make the reduction sound — are actually enforced. *)

type t
(** A game instance (the challenger's state), fixed to world [b]. *)

exception Non_compliant of string
(** Raised when the adversary violates compliance (corrupting a
    challenged instance, challenging a corrupted one, or
    evaluating-and-challenging the same point). *)

val start : b:bool -> Rng.t -> t
(** [start ~b rng] begins [Expt_b]: [b = true] answers challenges with
    real PRF evaluations, [b = false] with fresh uniform randomness. *)

val create_instance : t -> int
(** Create a fresh PRF instance; returns its index. *)

val evaluate : t -> instance:int -> string -> string
(** Honest evaluation query. @raise Non_compliant if (instance, msg) was
    already challenged. @raise Invalid_argument on unknown instance. *)

val corrupt : t -> instance:int -> Prf.key
(** Corruption query: reveals the instance's key.
    @raise Non_compliant if the instance was already challenged. *)

val challenge : t -> instance:int -> string -> string
(** Challenge query: the real evaluation or fresh randomness, per [b].
    Repeated challenges on the same point return the same answer.
    @raise Non_compliant if the instance is corrupted or the point was
    evaluated. *)

val advantage :
  trials:int ->
  seed:int64 ->
  play:(t -> bool) ->
  float
(** [advantage ~trials ~seed ~play] estimates an adversary's
    distinguishing advantage: [play] receives a fresh game (world chosen
    by fair coin) and guesses the world; the result is
    [|P(guess = b) − 1/2|]. Used by tests to show natural distinguishers
    get ≈ 0 against the HMAC PRF. *)
