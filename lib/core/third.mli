(** The one-third-resilient epoch rule of §3, written once for its three
    instances: the warmup of §3.1 ({!Warmup_third}), the subquadratic
    protocol of §3.2 ({!Sub_third}) and the Chen–Micali baseline of the
    §3.3 Remark ([Babaselines.Chen_micali]).

    Epochs [r = 0, 1, …, R−1] of two synchronous rounds each:

    + {b Propose}: a node first tallies epoch [r−1]'s ACKs. Ample ACKs for
      exactly one bit make it adopt that bit and set its sticky flag [F];
      ample ACKs for both set [F] (an observed conflict); none clear [F].
      Then a node that may propose flips a coin and multicasts it.
    + {b ACK}: a node with [F] set, or that heard no valid proposal, ACKs
      its belief; one proposed bit is ACKed as is; two proposals make it
      ACK an arbitrary bit, 0.

    After [R] epochs (round [2R]) every node outputs and halts.

    §3.2 derives the subquadratic protocol from §3.1 by three swaps, and
    the Remark's Chen–Micali differs from §3.2 only in its ACK ticket;
    a {!SCHEME} states exactly these differences:

    + a ticket for each message — a signature, a bit-specific eligibility
      credential, or a round-specific credential plus a slot signature
      ({!SCHEME.mine}, {!SCHEME.verify});
    + the "ample ACKs" quorum — [2n/3] or [2λ/3] ({!SCHEME.quorum});
    + who may propose — the round-robin leader or every node, through a
      Propose lottery ({!SCHEME.may_propose}, {!SCHEME.difficulty}).

    Everything else — the message type, the node state, the listener, the
    per-node decision, the dense step and the crowd hook — is this
    module's. *)

(** A message; ['c] is its ticket. *)
type 'c msg =
  | Propose of { epoch : int; bit : bool; cred : 'c }
  | Ack of { epoch : int; bit : bool; cred : 'c }

val msg_kind : 'c msg -> string
(** Stable kind label for causal tracing: ["propose"] or ["ack"]. *)

type kind = [ `Propose | `Ack ]
(** The message type a ticket is drawn for. *)

(** What the three protocols differ in. As in {!Hm.SCHEME}, define every
    function with all of its parameters (an arity-one definition makes
    each per-node call a curried application that allocates), and read
    the environment's fields inside each call. *)
module type SCHEME = sig
  type env

  type cred

  val max_epochs : env -> int
  (** R: the node outputs and halts in round [2R]. *)

  val quorum : env -> int
  (** Distinct valid ACKs for one bit that make them "ample". *)

  val may_propose : env -> epoch:int -> node:int -> bool
  (** Whether [node] may propose in [epoch]. Senders check it before
      flipping their coin; receivers check it on every proposal, before
      verifying it. *)

  val statement : env -> kind -> epoch:int -> bit:bool -> string
  (** The string a ticket is drawn for. *)

  val difficulty : env -> kind -> float
  (** The winning probability of a draw ([1] where every draw wins). *)

  val mine :
    env -> kind -> node:int -> epoch:int -> bit:bool -> msg:string ->
    p:float -> cred option
  (** The dense step's draw of [node]'s ticket to send [kind] for [bit]
      in [epoch]; [msg] and [p] are {!statement} and {!difficulty}. *)

  val sample :
    env -> kind -> node:int -> epoch:int -> bit:bool -> msg:string ->
    p:float -> cred option
  (** The crowd's draw: outcome-identical to {!mine}. *)

  val verify :
    env -> kind -> node:int -> epoch:int -> bit:bool -> msg:string ->
    p:float -> cred -> bool

  val on_conflict : env -> unit
  (** Called once per node and epoch that sees ample ACKs for both
      bits. *)

  val output : belief:bool -> last_ack:bool option -> bool
  (** The decision after [R] epochs, from the node's belief and the bit
      it last ACKed ([None] if it never did). *)
end

module Make (S : SCHEME) : sig
  type state
  (** A node: its identity, rng, belief [b_i], sticky flag [F]
      (initially set, footnote 4), last ACKed bit and decision. Nothing
      else carries over from one round to the next. *)

  val protocol :
    name:string ->
    make_env:(n:int -> Bacrypto.Rng.t -> S.env) ->
    msg_bits:(S.env -> S.cred msg -> int) ->
    (S.env, state, S.cred msg) Basim.Engine.protocol
  (** The protocol record; the dense step draws with {!SCHEME.mine}.
      Runs exactly [2R + 1] rounds. *)

  val sparse_step : unit -> (S.env, state, S.cred msg) Basim.Engine.sparse_step
  (** A crowd-sparse round hook for {!Basim.Engine.run}'s [?sparse]
      argument, trace-equivalent to the dense step.

      A round is two halves. Listening reduces the inbox to one verdict
      per bit — in a propose round, whether the last epoch's ACKs for it
      were ample; in an ACK round, whether a valid proposal named it —
      and reads nothing of the node's. Deciding finishes the node in
      O(1) from that verdict, its belief, sticky flag and rng, with one
      {!SCHEME.sample}. The hook listens to the engine's shared delivery
      tail once, listens again only for nodes whose inbox is private,
      and runs one decision for every node.

      The listener keeps nothing between rounds, so the hook needs no
      forks or copies, and one hook may serve repeated trials. Use it
      with this functor's {!protocol} only. *)

  val verify_msg : S.env -> sender:int -> S.cred msg -> bool
  (** A message's ticket check (not the proposer check). *)

  val belief : state -> bool
  (** The node's belief [b_i] (inspectable for tests). *)

  val sticky : state -> bool
  (** The node's sticky flag [F] (inspectable for tests). *)
end
