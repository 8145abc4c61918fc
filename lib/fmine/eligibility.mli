(** The eligibility-election interface shared by the [Fmine]-hybrid and
    real (VRF-compiled) worlds.

    Protocols never talk to {!Fmine} or {!Bacrypto.Vrf} directly; they
    "conditionally multicast" through this interface (§3.2: a node checks
    whether it is eligible to send a message and, if so, attaches a
    credential everyone can verify). Swapping the implementation —
    {!hybrid} vs {!Compiler.real_world} — reruns the identical protocol
    code in the two worlds, which is exactly the compilation claim of
    Appendix D that experiment E9 tests. *)

type credential =
  | Ideal_ticket
      (** Hybrid world: [Fmine] itself vouches; nothing travels on the
          wire beyond the claim, and {!verify} consults the
          functionality. *)
  | Vrf_credential of Bacrypto.Vrf.evaluation
      (** Real world: the VRF output and its NIZK proof, carried by the
          message (the [(ρ, π)] terms of Appendix D.4). *)

type t = {
  mine : node:int -> msg:string -> p:float -> credential option;
      (** One mining attempt for [msg] at difficulty [p]: [Some c] iff
          eligible. Requires the caller to {e be} node [node] (honest
          code) or to have corrupted it (the engine hands the adversary
          corrupt nodes' keys); attack implementations respect this. *)
  sample : node:int -> msg:string -> p:float -> credential option;
      (** Outcome-identical to {!field-mine} (same coin), but losing
          attempts leave no per-attempt record behind — the
          heap-flatness-preserving probe the sparse engine path uses to
          test every active node's eligibility each round
          ({!Fmine.sample}). In the real world mining is already
          stateless, so this {e is} [mine]. *)
  verify : node:int -> msg:string -> p:float -> credential -> bool;
      (** Check an announced eligibility. *)
  verify_many : msg:string -> p:float -> (int * credential) list -> bool list;
      (** [verify_many ~msg ~p [(node, c); ...]] checks many announced
          eligibilities for the {e same} mining string and difficulty —
          the quorum-certificate shape. Every world implements it as
          {!map_verify} of its {!field-verify}: a singleton check
          already runs on scratch contexts, so batching saves nothing. *)
  credential_bits : credential -> int;
      (** Wire size of the credential (0 for an ideal ticket). *)
}

val map_verify :
  (node:int -> msg:string -> p:float -> credential -> bool) ->
  msg:string ->
  p:float ->
  (int * credential) list ->
  bool list
(** [map_verify verify ~msg ~p entries] checks each [(node, c)] entry
    with [verify ~node ~msg ~p c], in order: every world's
    {!field-verify_many}. *)

val hybrid : Fmine.t -> t
(** The [Fmine]-hybrid world: tickets are [Fmine]'s, and an injected
    {!Vrf_credential} never verifies but is charged its wire size. *)

val mining_msg : tag:string -> iter:int -> bit:bool option -> string
(** Canonical encoding of the mining string for a message type: [tag]
    (e.g. ["Vote"]), iteration, and — when eligibility is
    {e bit-specific} (the paper's key idea) — the bit. Pass [bit:None]
    for the bit-{e agnostic} ablation of the §3.3 Remark or for
    bit-independent types like [Terminate]. *)
