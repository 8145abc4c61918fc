(** The Appendix-D compiler: instantiate the eligibility interface in the
    real world, replacing the [Fmine] ideal functionality with the
    adaptively secure VRF (PRF + perfectly binding commitment + NIZK)
    built over the trusted PKI.

    - [Fmine.mine(m)] becomes: evaluate [ρ = PRF_sk(m)], attach the NIZK
      [π] that [ρ] is correct w.r.t. the key committed in the node's
      public key; the attempt succeeds iff [ρ < D_p].
    - [Fmine.verify(m, i)] becomes: check [ρ < D_p] and verify [π]
      against node [i]'s public key.

    Appendix E proves the real world preserves all security properties of
    the hybrid world; experiment E9 checks the two worlds elect identical
    committees when driven by the same keys, and measures the proof
    overhead in bits. *)

val real_world : Bacrypto.Pki.t -> Eligibility.t
(** [real_world pki] is the compiled eligibility oracle over [pki].
    [mine ~node] evaluates with node [node]'s secret key (honest code runs
    in-node; adversaries may call it only for corrupted nodes, whose keys
    {!Bacrypto.Pki.corrupt} hands over).

    - {b Lazy proof.} [mine] computes [ρ = PRF_sk(m)] first and calls
      {!Bacrypto.Vrf.eval}, which builds and checks the NIZK proof, only
      when [ρ] clears the difficulty; a losing draw builds no proof. The
      winning credential is the one [Vrf.eval] returns, byte for byte.
    - {b Verification.} [verify ~node ~msg ~p c] holds iff [c] is a VRF
      credential, [node] names a key of the PKI, [ρ] is a full digest
      below the difficulty [p], and the proof verifies against [node]'s
      public key. An id outside [\[0, n)] comes off the wire, so it is
      [false], never an exception; [verify_many] maps [verify].
    - {b One proof check per credential.} The length and difficulty
      checks run on every call. The proof check, a pure function of
      [(node, msg, ρ, π)], runs once per distinct tuple: its verdict,
      accepted or rejected, is kept in a table keyed by all four, which
      lives as long as the oracle. A hit therefore means all four inputs
      are equal, and no mix of one credential's parts with another's can
      borrow a verdict; [p] stays out of the key because it is checked
      each time.
    - {b One oracle per run, on one domain.} The table is unlocked, like
      {!Fmine}'s: build one oracle per run, as the sub-HM and sub-third
      environments do, and use it only from the domain that runs it. *)

val paired : Bacrypto.Pki.t -> Eligibility.t * Eligibility.t
(** [paired pki] is [(hybrid, real_world pki)]. [hybrid] is
    {!Eligibility.hybrid} over {!Fmine.of_coin} whose coin is the PKI's
    per-node PRF draw — the same lottery as {!real_world} — so it issues
    zero-size ideal tickets, verifies against the functionality's table,
    and refuses a re-mine at a different [p], all as Figure 1 does. The
    two worlds are coupled on the same lottery, so a node is eligible in
    one iff in the other. Used by experiment E9 to exhibit transcript
    equality and measure proof overhead. *)
