(** The [Fmine] ideal mining functionality (the paper's Figure 1 /
    Appendix A.3).

    [Fmine] is a trusted party for {e eligibility election}: when node [i]
    attempts to "mine" a ticket for a message [m], [Fmine] flips a coin
    with success probability [P(m)] — memoized, so repeating the attempt
    returns the same answer — and later anyone can [verify] that [i]
    mined [m] successfully.

    Secrecy (the crucial property for adaptive security): the coin for
    [(m, i)] does not exist until [i] itself calls {!mine}; {!verify}
    returns [false] for attempts never made, and the functionality gives
    the adversary no way to query an honest node's coin. In this
    implementation coins are derived from a hidden internal key, so the
    whole execution stays deterministic in the engine seed while remaining
    unpredictable from public data.

    The paper first analyzes all protocols in this [Fmine]-hybrid world
    (Appendix C) and then compiles [Fmine] away using an adaptively secure
    VRF (Appendix D) — see {!Compiler}. *)

type t

val create : Bacrypto.Rng.t -> t
(** [create rng] instantiates the functionality with a hidden coin key
    drawn from [rng]; its coin is {!Bacrypto.Prf.coin} under that key.
    The probability function [P] is supplied per-call (protocols derive
    it from the message type), which is equivalent to Figure 1's fixed
    [P] as long as callers are consistent — {!mine} enforces consistency
    by memoizing the probability together with the coin. *)

val of_coin : (node:int -> msg:string -> p:float -> bool) -> t
(** [of_coin coin] is the functionality over another coin source: the
    first attempt at [(node, msg)] flips [coin ~node ~msg ~p], and the
    table, memoization and verification are exactly {!create}'s.
    {!Compiler.paired} passes the PKI's per-node PRF draw, so its hybrid
    world elects the same committees as the real one. [coin] must be a
    pure function of its arguments. *)

val mine : t -> node:int -> msg:string -> p:float -> bool
(** [mine t ~node ~msg ~p] is node [node]'s mining attempt for [msg] with
    success probability [p]. Memoized: later attempts return the first
    answer. @raise Invalid_argument if the same [(node, msg)] is re-mined
    with a different [p] (a protocol bug). *)

val sample : t -> node:int -> msg:string -> p:float -> bool
(** Same draw as {!mine} — so the two can never disagree on an outcome —
    but a {e losing} attempt is not memoized, only tallied: the sparse
    engine path probes every active node each round, and recording the
    losers would grow the table by O(n) per round (the heap growth the
    [ba_obs mem] flatness gate forbids). Winners are recorded exactly as
    {!mine} records them, so credential verification is unaffected; this
    is sound because {!verify} answers [false] for absent entries and a
    losing attempt yields no credential anyone could present. Caveat:
    the different-[p] consistency check only fires against recorded
    entries, and a later {!mine} of a key whose losing [sample] was
    already tallied re-counts it in {!attempts} (reachable only by an
    adversary re-mining an honestly sampled key). {!create}'s coin,
    {!Bacrypto.Prf.coin}, allocates nothing, and neither does a losing
    sample there: outcomes live in one node-keyed table per message, so
    a probe builds no key. A memoized hit of {!mine} or {!sample} and
    every {!verify} allocate nothing either.
    @raise Invalid_argument as {!mine} does. *)

val verify : t -> node:int -> msg:string -> bool
(** [verify t ~node ~msg] is [true] iff [node] has called {!mine} on
    [msg] {e and} the attempt succeeded (Figure 1: unattempted mines
    verify as 0).

    Messages are compared by contents: the table of the message last
    drawn or verified is found again by physical equality, and any
    other string, an equal copy included, by its contents, so no
    outcome depends on which copy of a string a caller passes. *)

val attempts : t -> int
(** Total number of distinct mining attempts so far — memoized {!mine}
    attempts plus losing {!sample} probes (used by tests and by the
    stochastic-lemma experiment). A counter read. *)

val successes : t -> int
(** Number of successful attempts so far. *)

val successes_for : t -> prefix:string -> int
(** Number of successful attempts whose mining string starts with
    [prefix] (e.g. ["shm:Vote:3:1"] counts that committee's size). *)
