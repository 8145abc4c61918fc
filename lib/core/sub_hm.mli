(** The paper's flagship protocol (Theorem 2, Appendix C.2): synchronous
    BA with {e polylogarithmic multicast complexity}, resilience
    [f < (1/2 − ε)n], and expected constant rounds — assuming only a PKI
    and standard cryptography, against an adaptive adversary that cannot
    perform after-the-fact removal.

    It is the {!Quadratic_hm} protocol of Appendix C.1 transformed by
    {e vote-specific eligibility}:

    - every multicast becomes a {b conditional} multicast: the node mines
      an eligibility ticket for the exact (type, iteration, bit) triple it
      wants to send, with probability [λ/n]
      (Status/Vote/Commit/Terminate) or [1/(2n)] (Propose), and only
      speaks on success, attaching the credential;
    - every [f+1] threshold becomes [λ/2];
    - the leader-election oracle disappears: whoever mines a Propose
      ticket is a proposer (several proposers in an iteration are treated
      like a corrupt proposer — nodes simply don't vote; a fresh
      iteration follows).

    Because eligibility is {e bit-specific}, corrupting a node that just
    voted [b] gives the adversary no advantage toward votes for [1−b]
    (§3.2's key insight), and because votes carry the proposal that
    justified them, corrupt nodes cannot vote without a proposer either.

    Stochastic guarantees reproduced in experiment E7: per-message
    committees concentrate around [λ] (Lemma 11); a unique-honest-
    proposer iteration occurs with probability [> 1/(2e)] per iteration
    (Lemma 12); once [εn/2] honest nodes terminate, everyone terminates
    the next round (Lemma 10). Lemma 15: [O(λ²)] multicasts of
    [O((log κ + log n)·λ)] bits each. *)

type elig_cert = Bafmine.Eligibility.credential Cert.t
(** A certificate: [λ/2] vote credentials from distinct nodes. *)

type proposal = {
  p_iter : int;
  p_bit : bool;
  p_cert : elig_cert option;
  p_node : int;                              (** the proposer *)
  p_cred : Bafmine.Eligibility.credential;   (** its Propose ticket *)
}

type msg =
  | Status of {
      iter : int;
      bit : bool;
      cert : elig_cert option;
      cred : Bafmine.Eligibility.credential;
    }
  | Propose of proposal
  | Vote of {
      iter : int;
      bit : bool;
      proposal : proposal option;  (** [None] only in iteration 1 *)
      cred : Bafmine.Eligibility.credential;
    }
  | Commit of {
      iter : int;
      bit : bool;
      cert : elig_cert;
      cred : Bafmine.Eligibility.credential;
    }
  | Terminate of {
      iter : int;
      bit : bool;
      commits : (int * Bafmine.Eligibility.credential) list;
      cred : Bafmine.Eligibility.credential;
    }

val msg_kind : msg -> string
(** Stable kind label for causal tracing: ["status"], ["propose"],
    ["vote"], ["commit"], or ["terminate"]. *)

type env = {
  n : int;
  params : Params.t;
  elig : Bafmine.Eligibility.t;
  fmine : Bafmine.Fmine.t option;
      (** [Some] in the hybrid world — inspectable mining statistics *)
  cert_cache : (elig_cert, unit) Hashtbl.t;
      (** cache of positively verified certificates (sound: verification
          is deterministic and monotone; purely a simulation speedup) *)
  proposal_cache : (proposal, unit) Hashtbl.t;
      (** same, for proposals *)
}

type state
(** A node: its identity, input bit, rng and decision, plus a {e
    listener} — what it has learned from verified messages. The dense
    [step] gives each node its own listener, built on first use. Under
    {!sparse_step} a node keeps no listener while it rides the crowd's
    shared one, and owns a private copy from the round its inbox first
    leaves the shared tail. *)

val protocol :
  params:Params.t ->
  world:[ `Hybrid | `Real ] ->
  (env, state, msg) Basim.Engine.protocol
(** The protocol record. Uses [params.max_epochs] as the iteration cap;
    a node reaching the cap undecided halts without output. *)

val phase_of_round : int -> Quadratic_hm.phase
(** Same round layout as the quadratic protocol. *)

val mining_string : [ `Status | `Propose | `Vote | `Commit ] -> iter:int -> bit:bool -> string
(** The string mined for each conditional multicast (bit-specific), e.g.
    ["shm:Vote:3:1"]. For iterations 0–127 it is a prebuilt string shared
    by every caller, so the per-delivery verify path allocates nothing;
    any other [iter] is formatted to the same bytes on demand. *)

val terminate_mining_string : bit:bool -> string
(** Terminate tickets are per-bit, not per-iteration. Constant strings. *)

val committee_probability : env -> float
(** [λ/n] — Status/Vote/Commit/Terminate difficulty. *)

val propose_probability : env -> float
(** [1/(2n)] — Propose difficulty. *)

val quorum : env -> int
(** [⌈λ/2⌉]. *)

val make_vote :
  iter:int -> bit:bool -> proposal:proposal option ->
  cred:Bafmine.Eligibility.credential -> msg
(** Assemble a vote — used by adversaries for corrupt nodes. *)

val make_propose :
  iter:int -> bit:bool -> cert:elig_cert option -> node:int ->
  cred:Bafmine.Eligibility.credential -> msg

val valid_cert : env -> elig_cert -> bool
(** [λ/2] distinct verifying vote credentials. *)

val sparse_step : unit -> (env, state, msg) Basim.Engine.sparse_step
(** A crowd-sparse round hook for {!Basim.Engine.run}'s [?sparse]
    argument, trace-equivalent to the dense [step] but O(active) per
    round instead of O(n · inbox).

    A round of sub-HM is two halves. Absorbing the inbox updates the
    listener and never reads who the node is; deciding what to send runs
    one lottery for the one (type, iteration, bit) the node wants to
    send. Both the dense [step] and this hook run the same absorb and the
    same decision, so the protocol's send logic exists once.

    Every message here is a multicast, so nodes whose inbox equals the
    engine's shared delivery tail have — inductively — identical
    listeners. The hook keeps ONE listener for that crowd, absorbs the
    tail once, decides once, and finishes each member's step with its
    O(1) private part (input bit, at most one rng coin, one
    {!Bafmine.Eligibility.t.sample} probe). Before the crowd absorbs, a
    member whose inbox differs (a targeted adversary injection) forks a
    private copy of the crowd's round-start listener and runs dense
    steps from then on.

    [sparse_step ()] allocates the crowd state; the returned hook resets
    it whenever the engine starts a round-0, so one hook may serve
    repeated trials. Use with the protocols of {!protocol} only — the
    hook encodes this module's step logic. *)
