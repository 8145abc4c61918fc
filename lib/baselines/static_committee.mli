(** The §1 strawman: committee election from a common random string.

    With a trusted CRS chosen independently of the adversary's corruption
    choices, a [λ]-sized public committee runs agreement and announces the
    result; everyone else adopts the committee majority. This is
    communication-efficient and perfectly fine against a {e static}
    adversary — and hopeless against an adaptive one, which "can simply
    observe what nodes are on the committee, then corrupt them, and
    thereby control the whole committee" (§1). Experiment E8 stages
    exactly that takeover and contrasts it with {!Bacore.Sub_hm}, whose
    secret, vote-specific committees the adversary cannot find in time.

    Protocol: round 0 — committee members multicast signed votes for
    their inputs; round 1 — committee members multicast signed Result
    messages carrying the majority of round-0 committee votes; round 2 —
    every node outputs the majority of Result announcements and halts. *)

type env = {
  n : int;
  committee : int list;  (** the CRS-selected committee — public *)
  sigs : Bacrypto.Signature.scheme;
}

type msg =
  | Committee_vote of { bit : bool; tag : Bacrypto.Signature.tag }
  | Result of { bit : bool; tag : Bacrypto.Signature.tag }

val msg_kind : msg -> string
(** Stable kind label for causal tracing: ["committee_vote"] or
    ["result"]. *)

type state

val protocol :
  committee_size:int -> (env, state, msg) Basim.Engine.protocol

val vote_stmt : bool -> string
(** Signed statement of a committee vote (for adversarial forgeries from
    corrupt committee members). *)

val sign_result : env -> signer:int -> bit:bool -> msg
(** Build a signed Result announcement for a corrupt committee member. *)
