(** The warmup BA protocol of §3.1: simple, communication-{e inefficient}
    (every node multicasts every epoch), tolerating [f < n/3] corruptions.

    It is {!Third}'s epoch rule with the §3.1 scheme:

    + the epoch leader — node [r mod n], per the paper's "(i.e., node
      r)" round-robin oracle — is the only node that proposes;
    + every message carries a signature, so every node ACKs in every
      epoch, and invalidly signed messages are dropped;
    + "ample ACKs" are at least [2n/3] ACKs from distinct nodes for the
      same bit.

    After [R] epochs each node outputs the bit it last ACKed.

    This module exists as the baseline the §3.2 subquadratic protocol
    ({!Sub_third}) is derived from by swapping its scheme; the
    experiments run no warmup rows, and the tests pin its behaviour. *)

type env = {
  n : int;
  params : Params.t;
  sigs : Bacrypto.Signature.scheme;
}

type msg = Bacrypto.Signature.tag Third.msg

val msg_kind : msg -> string
(** {!Third.msg_kind}. *)

type state

val protocol : params:Params.t -> (env, state, msg) Basim.Engine.protocol
(** The protocol record for the engine. Runs exactly
    [2 · params.max_epochs + 1] rounds. *)

val sparse_step : unit -> (env, state, msg) Basim.Engine.sparse_step
(** {!Third.Make.sparse_step}: the crowd hook, trace-equivalent to the
    dense step. A member's draw is its signature. *)

val leader : n:int -> epoch:int -> int
(** The round-robin epoch leader, [epoch mod n]. *)

val belief : state -> bool
(** The node's current belief bit [b_i] (inspectable for tests). *)

val sticky : state -> bool
(** The node's sticky flag [F] (inspectable for tests). *)
