(** The quadratic honest-majority BA of Appendix C.1 — the protocol of
    Abraham et al. (Financial Crypto 2019, reference [1] of the paper) that
    the flagship subquadratic protocol ({!Sub_hm}) is derived from.

    It is {!Hm}'s protocol with C.1's ticket scheme: [n = 2f + 1] nodes,
    every message carries an idealized signature (so every draw wins and
    certificates are transferable), quorums are [f + 1], and a public
    random leader per iteration — the leader-election oracle — is the
    only node that may propose.

    Expected-constant iterations: each iteration's leader is honest with
    probability ≥ 1/2, and an honest-leader iteration terminates
    everyone. Every node multicasts in almost every round, so an
    execution costs Θ(n²) pairwise messages. *)

type msg = Bacrypto.Signature.tag Hm.msg

val msg_kind : msg -> string
(** {!Hm.msg_kind}. *)

type env = {
  n : int;
  f : int;                      (** (n−1)/2 *)
  sigs : Bacrypto.Signature.scheme;
  leaders : int array;          (** public random leader per iteration *)
  max_iters : int;
  cert_cache : (Bacrypto.Signature.tag Cert.t, unit) Hashtbl.t;
  proposal_cache : (Bacrypto.Signature.tag Hm.proposal, unit) Hashtbl.t;
      (** {!Hm.SCHEME.cert_cache} and {!Hm.SCHEME.proposal_cache} *)
  memo : Bacrypto.Signature.tag Hm.round_memo;
      (** {!Hm.SCHEME.memo}: this round's passed certificate and proposal
          checks. Every receiver still verifies each message's own
          signature. *)
}

type state
(** {!Hm.Make.state}. *)

val protocol :
  ?max_iters:int -> unit -> (env, state, msg) Basim.Engine.protocol
(** The protocol record. [max_iters] (default 40) caps the execution: a
    node reaching the cap without deciding halts {e without} output,
    surfacing a termination failure to the property checker.
    @raise Invalid_argument from [make_env] unless [n] is odd and at
    least 3. *)

val sparse_step : unit -> (env, state, msg) Basim.Engine.sparse_step
(** {!Hm.Make.sparse_step}: the crowd hook, trace-equivalent to the dense
    step. A member's draw is its signature. *)

val sign_vote :
  env -> signer:int -> iter:int -> bit:bool ->
  Bacrypto.Signature.tag Hm.proposal option -> msg
(** Build a validly signed vote for a corrupt node. *)

val sign_propose :
  env -> signer:int -> iter:int -> bit:bool ->
  Bacrypto.Signature.tag Cert.t option -> msg
(** Build a signed proposal by [signer] (valid when [signer] is the
    iteration's leader). *)
