(** A deterministic low-message broadcast strawman — the Dolev–Reischuk
    victim of experiment E1b.

    The designated sender (node 0) knows the bit; in every round, every
    node that learned the bit in the previous round forwards it by
    {e unicast} to its [d] ring successors (node [i] sends to
    [i+1 … i+d mod n]). A node outputs the first bit it receives; after
    [⌈n/d⌉ + 2] rounds, a node that received nothing outputs the default
    bit 0.

    Total messages: at most [n·d] — subquadratic whenever
    [d < (f/2)²/n]. Dolev–Reischuk (and the paper's Theorem 4) says any
    such protocol is breakable: the {!Baattacks.Dolev_reischuk} adversary
    isolates a victim by corrupting its [d] in-ring predecessors and
    suppressing exactly the copies addressed to the victim, producing a
    consistency violation with [d ≤ f] corruptions. Redundancy [d > f]
    defeats the attack — at which point the protocol sends [> n·f]
    messages, i.e. [Ω(f²)] when [n = Θ(f)]: the lower bound's shape,
    observed experimentally. *)

type env = {
  n : int;
  d : int;              (** redundancy: each knower feeds d successors *)
  deadline : int;       (** round at which silent nodes give up *)
}

type msg = Payload of bool

val msg_kind : msg -> string
(** Stable kind label for causal tracing: always ["payload"]. *)

type state

val protocol : d:int -> (env, state, msg) Basim.Engine.protocol
(** Broadcast from node 0 with redundancy [d]. *)

val successors : n:int -> d:int -> int -> int list
(** [successors ~n ~d i] — the ring successors [i] forwards to. *)
