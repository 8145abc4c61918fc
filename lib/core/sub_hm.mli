(** The paper's flagship protocol (Theorem 2, Appendix C.2): synchronous
    BA with {e polylogarithmic multicast complexity}, resilience
    [f < (1/2 − ε)n], and expected constant rounds — assuming only a PKI
    and standard cryptography, against an adaptive adversary that cannot
    perform after-the-fact removal.

    It is {!Hm}'s protocol with C.2's ticket scheme: every multicast is a
    {b conditional} multicast — the node mines an eligibility ticket for
    the exact (type, iteration, bit) it wants to send, with probability
    [λ/n] (Status/Vote/Commit/Terminate) or [1/(2n)] (Propose), and only
    speaks on success, attaching the credential; quorums are [λ/2]; and
    whoever mines a Propose ticket is a proposer.

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

type proposal = Bafmine.Eligibility.credential Hm.proposal

type msg = Bafmine.Eligibility.credential Hm.msg

val msg_kind : msg -> string
(** {!Hm.msg_kind}. *)

type env = {
  n : int;
  params : Params.t;
  committee_p : float;
      (** [Params.ack_probability params ~n], which
          {!committee_probability} returns without allocating *)
  elig : Bafmine.Eligibility.t;
      (** read on every draw and check, so a caller may wrap it *)
  fmine : Bafmine.Fmine.t option;
      (** [Some] in the hybrid world — inspectable mining statistics *)
  cert_cache : (elig_cert, unit) Hashtbl.t;
  proposal_cache : (proposal, unit) Hashtbl.t;
      (** {!Hm.SCHEME.cert_cache} and {!Hm.SCHEME.proposal_cache} *)
  memo : Bafmine.Eligibility.credential Hm.round_memo;
      (** {!Hm.SCHEME.memo}: this round's passed certificate and proposal
          checks, so each is made once per round, not once per receiver.
          Tickets are still verified through [elig] by every receiver.
          A caller building an env gives it [Hm.round_memo ()]. *)
}

type state
(** {!Hm.Make.state}. *)

val protocol :
  params:Params.t ->
  world:[ `Hybrid | `Real ] ->
  (env, state, msg) Basim.Engine.protocol
(** The protocol record. Uses [params.max_epochs] as the iteration cap;
    a node reaching the cap undecided halts without output. *)

val sparse_step : unit -> (env, state, msg) Basim.Engine.sparse_step
(** {!Hm.Make.sparse_step}: the crowd hook, trace-equivalent to the dense
    step. Crowd members draw with {!Bafmine.Eligibility.t.sample}. *)

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
