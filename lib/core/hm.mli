(** The honest-majority BA of Appendix C, written once for both of its
    instances: the quadratic protocol of C.1 ({!Quadratic_hm}) and the
    subquadratic protocol of C.2 ({!Sub_hm}).

    Iterations of four synchronous rounds — {b Status}, {b Propose},
    {b Vote}, {b Commit} — plus an any-time {b Terminate} rule:

    - {b Status}: every node multicasts its highest certificate.
    - {b Propose}: a proposer multicasts the bit carrying the highest
      certificate it knows (ties broken by its own coin; no certificate at
      all is the "iteration-0 certificate").
    - {b Vote}: a node votes for the proposed bit [b] — with the proposal
      attached, so votes are useless without a matching proposal — unless
      it knows a {e strictly} higher certificate for [1−b]. Several
      proposals in one iteration are treated like a corrupt proposer:
      nobody votes, and a fresh iteration follows.
    - {b Commit}: on a quorum of iteration-[r] votes for [b] and {e no}
      iteration-[r] vote for [1−b], multicast a Commit carrying the freshly
      formed certificate.
    - {b Terminate} (any time): on a quorum of Commits for the same
      [(r, b)], multicast [(Terminate, b)] with the Commits attached,
      output [b] and halt; receiving a valid Terminate makes a node
      re-multicast it, output and halt one round later.

    Iteration 1 skips Status and Propose: every node votes its input.

    C.2 derives the subquadratic protocol from C.1 by three substitutions,
    which are exactly what a {!SCHEME} states:

    + a {e bit-specific eligibility ticket} for the exact (type,
      iteration, bit) a node wants to send replaces each signature, so
      every multicast becomes a conditional multicast ({!SCHEME.mine},
      {!SCHEME.verify});
    + a quorum of [λ/2] replaces [f + 1] ({!SCHEME.quorum});
    + a Propose lottery replaces the leader-election oracle
      ({!SCHEME.may_propose}, {!SCHEME.difficulty}).

    Everything else — the message type, the round layout, the listener,
    the validity and listening rules, the send decision, the dense step and
    the crowd hook — is this module's. *)

type 'c proposal = {
  p_iter : int;
  p_bit : bool;
  p_cert : 'c Cert.t option;
  p_node : int;  (** the proposer *)
  p_cred : 'c;   (** its Propose ticket *)
}

(** A message; ['c] is the ticket: a signature tag in C.1, an eligibility
    credential in C.2. *)
type 'c msg =
  | Status of { iter : int; bit : bool; cert : 'c Cert.t option; cred : 'c }
  | Propose of 'c proposal
  | Vote of {
      iter : int;
      bit : bool;
      proposal : 'c proposal option;  (** [None] only in iteration 1 *)
      cred : 'c;
    }
  | Commit of { iter : int; bit : bool; cert : 'c Cert.t; cred : 'c }
  | Terminate of {
      iter : int;
      bit : bool;
      commits : (int * 'c) list;
      cred : 'c;
    }

val msg_kind : 'c msg -> string
(** Stable kind label for causal tracing: ["status"], ["propose"],
    ["vote"], ["commit"], or ["terminate"]. *)

type phase =
  | Phase_status of int
  | Phase_propose of int
  | Phase_vote of int
  | Phase_commit of int

val phase_of_round : int -> phase
(** Round-to-phase layout: iteration 1 occupies rounds 0–1 (Vote,
    Commit); iteration [r ≥ 2] occupies the four rounds starting at
    [2 + 4(r−2)]. *)

type kind = [ `Status | `Propose | `Vote | `Commit | `Terminate ]
(** The message type a ticket is drawn for. *)

type 'c round_memo
(** The delivered payloads whose certificate and proposal checks held in
    the current round, by sender, and the dense step's shared transition;
    see {!SCHEME.memo}. *)

val round_memo : unit -> 'c round_memo
(** An empty memo, for a new environment. It holds no transition yet:
    the first dense step that records one builds it. *)

(** What C.1 and C.2 differ in.

    Two obligations, both about cost rather than correctness:
    - {b Full arity.} Define every function with all of its parameters,
      e.g. [let sample env ~node ~msg ~p = env.elig.sample ~node ~msg ~p],
      never [let sample env = env.elig.sample]. The protocol calls these
      per delivered message and per node and round; a function of arity
      one makes each call a curried application that allocates.
    - {b Read state on every call.} Look the environment's fields up
      inside each call instead of capturing them once: a caller may
      replace them (the cost ledger swaps the eligibility record for timed
      wrappers), and the protocol must then go through the replacement. *)
module type SCHEME = sig
  type env

  type cred

  val quorum : env -> int
  (** Matching votes that form a certificate, and Commits that decide. *)

  val max_iters : env -> int
  (** The iteration cap: a node reaching it undecided halts without
      output. *)

  val cert_cache : env -> (cred Cert.t, unit) Hashtbl.t

  val proposal_cache : env -> (cred proposal, unit) Hashtbl.t
  (** Positively verified certificates and proposals, shared by all
      receivers: sound because verification is deterministic and
      monotone; purely a simulation speedup. *)

  val memo : env -> cred round_memo
  (** The round memo, one per environment, so that each delivered
      certificate and proposal is checked once per round instead of once
      per receiver, and what those checks lead to is learned and decided
      once per round instead of once per node.

      A delivered message's check has two parts. Every receiver verifies
      the sender's ticket. The rest reads only the payload and the round
      — a Status's certificate, a proposal and its certificate, a Vote's
      proposal from iteration 2 on, a Commit's certificate — and is
      exactly what {!cert_cache} and {!proposal_cache} answer. Its first
      pass in a round is recorded under (sender, payload); a later
      receiver of the same physical payload (the engine hands every
      receiver of a wire the same one) finds it with one int-keyed lookup
      and [==] instead of hashing and comparing the certificate. The memo
      is emptied when the round changes.

      Only passes are recorded, and a hit replaces exactly a positive
      cache hit, which makes no eligibility call. Tickets stay per
      receiver for the same reason: skipping them would change how many
      eligibility calls a run makes, which the cost ledger pins. A
      Terminate's commit quorum has no cache and is not memoized.

      The memo also keeps the dense step's {e shared transition}: in the
      current round, a start listener, an inbox, that inbox's verdicts
      (refused, accepted, or a Propose whose proposal is refused but
      whose certificate holds), the listener learned from them, and the
      send decision. Every message is a multicast, so in a round without
      targeted injections every node starts from the same listener and
      holds the same physical inbox. Each node still checks its whole
      inbox, and then takes the recorded listener and decision instead
      of learning and deciding again when its start listener is the
      recorded one (or both are unbuilt), its inbox is physically the
      recorded one, and its verdicts equal the recorded ones. The last
      condition is needed because a ticket starts to verify in the middle
      of a round, once its node mines. A listener held by two nodes is
      never mutated: a node starting from one, or from none, learns into
      a copy or a fresh listener and records the transition, which in a
      passive run is one copy per round. A listener of the node's own
      learns in place and records nothing. The transition and its
      verdict buffer are built by the first dense step that records
      one. *)

  val statement : kind -> iter:int -> bit:bool -> string
  (** The string a ticket is drawn for. *)

  val difficulty : env -> kind -> float
  (** The winning probability of a draw ([1] where every draw wins). *)

  val may_propose : env -> iter:int -> node:int -> bool
  (** Whether [node] may propose in [iter]. Senders check it before
      flipping a tie coin; receivers check it on every proposal. *)

  val mine : env -> node:int -> msg:string -> p:float -> cred option
  (** The dense step's draw. *)

  val sample : env -> node:int -> msg:string -> p:float -> cred option
  (** The crowd's draw: outcome-identical to {!mine}. *)

  val verify : env -> node:int -> msg:string -> p:float -> cred -> bool

  val verify_many :
    env -> msg:string -> p:float -> (int * cred) list -> bool list
  (** One verdict per entry; a certificate check is one call. *)
end

module Make (S : SCHEME) : sig
  type state
  (** A node: its identity, input bit, rng and decision, plus a
      {e listener} — what it has learned from verified messages. Dense
      steps share listeners: nodes that start a round from the same
      listener and hear the same inbox with the same verdicts hold the
      same result (see {!SCHEME.memo}). A node keeps a listener of its
      own once no other node took the one it learned, as after a
      targeted injection. Under {!sparse_step} a node keeps no listener
      while it rides the crowd's shared one, and owns a private copy
      from the round its inbox first leaves the shared tail. *)

  val protocol :
    name:string ->
    make_env:(n:int -> Bacrypto.Rng.t -> S.env) ->
    msg_bits:(S.env -> S.cred msg -> int) ->
    (S.env, state, S.cred msg) Basim.Engine.protocol
  (** The protocol record; the dense step draws with {!SCHEME.mine}. *)

  val sparse_step : unit -> (S.env, state, S.cred msg) Basim.Engine.sparse_step
  (** A crowd-sparse round hook for {!Basim.Engine.run}'s [?sparse]
      argument, trace-equivalent to the dense step but O(active) per
      round instead of O(n · inbox).

      A round is two halves. Listening runs two functions over each
      delivered message: [check], which makes every eligibility call of
      the delivery, reads no listener and returns a verdict, and [learn],
      which applies a verdict to a listener and makes no eligibility
      call. Neither reads who the node is. Deciding what to send draws
      one ticket for the one (type, iteration, bit) the node wants to
      send. The dense step and this hook run the same [check], [learn]
      and decision, so the listening and send logic exist once. The crowd
      and forked listeners interleave [check] and [learn] with no verdict
      buffer: a delivery allocates only what the listener learns.

      Every message is a multicast, so nodes whose inbox equals the
      engine's shared delivery tail have — inductively — identical
      listeners. The hook keeps ONE listener for that crowd, absorbs the
      tail once, decides once, and finishes each member's step with its
      O(1) private part (input bit, [may_propose], at most one rng coin,
      one {!SCHEME.sample}). Before the crowd absorbs, a member whose inbox
      differs (a targeted adversary injection) forks a private copy of
      the crowd's round-start listener and runs dense steps from then on,
      through this module's step rather than the protocol record's.

      [sparse_step ()] allocates the crowd state; the returned hook resets
      it whenever the engine starts a round 0, so one hook may serve
      repeated trials, one at a time. Use it with this functor's
      {!protocol} only. *)
end
