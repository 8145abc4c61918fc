(** Simulated non-interactive zero-knowledge proof system for the NP
    language L of Appendix D.3:

    [(stmt, w) ∈ L] iff [stmt = (rho, com, crs_comm, m)],
    [w = (sk, salt)], [com = commit(crs_comm, sk, salt)] and
    [rho = PRF_sk(m)].

    The paper instantiates this from bilinear groups (Groth–Ostrovsky–Sahai,
    Theorem 18) with perfect completeness, non-erasure computational
    zero-knowledge, and perfect knowledge extraction. We substitute a
    {e simulated} proof system with the same interface and the same
    completeness/soundness guarantees:

    - {!prove} checks the witness against the relation and refuses to
      produce a proof for a false statement (raising
      [Invalid_argument]); the proof object is an HMAC tag over the
      statement under a trapdoor embedded in the CRS.
    - {!verify} recomputes the tag. Because only [prove] emits tags and
      [prove] only accepts true statements, a verifying proof implies the
      statement is true — this {e is} perfect knowledge soundness, realized
      by letting the simulator play the extractor.

    Zero-knowledge is a property against computational adversaries; our
    rule-based adversaries never inspect proof internals (API discipline:
    proofs are opaque), so the simulation is adequate for every experiment.
    See DESIGN.md §3. *)

type crs
(** Proof-system CRS (contains the simulation trapdoor; opaque). *)

type statement = {
  rho : string;         (** claimed PRF output *)
  com : Commitment.t;   (** commitment to the prover's secret key *)
  crs_comm : string;    (** serialized commitment CRS, binds the statement *)
  msg : string;         (** PRF input being "mined" *)
}

type witness = private {
  sk : Prf.key;         (** PRF secret key *)
  pads : Prf.cached;    (** [Prf.cache sk], under which [rho] is checked *)
  salt : string;        (** commitment randomness *)
}

val witness : sk:Prf.key -> salt:string -> witness
(** [witness ~sk ~salt] derives [sk]'s HMAC pads (two compressions), so
    a prover that keeps its witness derives none per proof. *)

type proof
(** An opaque proof. *)

val gen : Rng.t -> crs
(** Sample the proof-system CRS. *)

val prove : crs -> Commitment.crs -> statement -> witness -> proof
(** [prove crs crs_comm stmt w] produces a proof.
    @raise Invalid_argument if [(stmt, w)] is not in L (perfect
    completeness holds for true statements; false ones are rejected). *)

val verify : crs -> statement -> proof -> bool
(** [verify crs stmt proof] accepts iff [proof] was produced by {!prove}
    on [stmt]. *)

val proof_bits : proof -> int
(** Wire size of a proof in bits (for communication accounting; sized to
    match a Groth–Ostrovsky–Sahai proof for this relation, ~3 group
    elements per gate — we charge a flat 384 bytes). *)

val proof_to_string : proof -> string
(** Serialization used in transcripts. *)
