(** Protocol parameters shared by the four BA protocols.

    The paper expresses everything in terms of the expected committee size
    [λ = ω(log κ)] and two difficulty parameters (§3.2, Appendix C.2):

    - [D]: each {e committee} message (ACK in §3, Status/Vote/Commit/
      Terminate in Appendix C) is eligible with probability [λ/n], so each
      per-message committee has expected size [λ];
    - [D₀]: each {e proposal} is eligible with probability [1/(2n)], so
      with [n] honest attempts per iteration one leader emerges every two
      iterations on average.

    Quorum thresholds: [2λ/3] for the ⅓-resilient protocols (§3.2) and
    [λ/2] for the honest-majority protocols (Appendix C.2). *)

type t = {
  lambda : int;
      (** Expected committee size λ. Default 40 — large enough that the
          Chernoff terms [exp(-Ω(ε²λ))] are tiny at experiment scale. *)
  max_epochs : int;
      (** R: number of epochs for the §3 protocols (the paper takes
          [R = ω(log κ)]); also the iteration cap for the Appendix-C
          protocols, which normally terminate after O(1) iterations. *)
}

val make : ?lambda:int -> ?max_epochs:int -> unit -> t
(** Keyword constructor; [lambda] defaults to 40 and [max_epochs] to
    60. @raise Invalid_argument on non-positive [lambda]/[max_epochs]. *)

val ack_probability : t -> n:int -> float
(** [λ/n], capped at 1 (the paper assumes [n ≥ 2λ]; for tiny test
    networks the cap keeps the protocol meaningful). *)

val propose_probability : n:int -> float
(** [1/(2n)]. *)

val third_quorum : t -> int
(** [⌈2λ/3⌉] — the "ample ACKs" threshold of §3. *)

val hm_quorum : t -> int
(** [⌈λ/2⌉] — the certificate/commit threshold of Appendix C.2. *)
