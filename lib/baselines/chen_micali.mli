(** A Chen–Micali-style subquadratic BA — the approach the paper's §3.2
    describes and improves on.

    Like {!Bacore.Sub_third}, it runs {!Bacore.Third}'s epoch rule, in
    which every epoch a committee ACKs a bit. But the eligibility ticket
    here names only [(ACK, epoch)] — {e round-specific, not bit-specific}
    — and the protection against the §3.3 equivocation attack comes from
    somewhere else: the ACK's bit is signed with a {b round-specific
    forward-secure key} that the node {e erases immediately after
    sending} (Chen–Micali's "ephemeral keys", the memory-erasure
    model). An adversary that corrupts the node right after its ACK can
    reuse the eligibility ticket for the opposite bit — but cannot
    produce the slot signature, because the key is gone.

    The [erasure] switch turns the memory-erasure assumption off: honest
    nodes never update their keys, corruption reveals the master key, and
    the §3.3 attack succeeds — which is the paper's argument that
    Chen–Micali {e needs} the erasure model, while bit-specific
    eligibility (the paper's protocol) needs nothing. Experiment E5b runs
    the three designs side by side.

    Tolerates [f < (1/3 − ε)n] like the §3 protocols; hybrid
    ([Fmine]-based) eligibility. *)

type ticket =
  Bafmine.Eligibility.credential * Bacrypto.Forward_secure.tag option
(** An eligibility credential — for an ACK the round-specific one — and,
    on an ACK, the slot-[epoch] signature on the bit. *)

type env = {
  n : int;
  params : Bacore.Params.t;
  elig : Bafmine.Eligibility.t;
  fs : Bacrypto.Forward_secure.scheme;
  erasure : bool;            (** the memory-erasure assumption *)
  mutable conflicts : int;
      (** within-epoch ample-ACKs-for-both-bits observations, as in
          {!Bacore.Sub_third} *)
}

type msg = ticket Bacore.Third.msg

val msg_kind : msg -> string
(** {!Bacore.Third.msg_kind}. *)

type state

val protocol :
  params:Bacore.Params.t -> erasure:bool ->
  (env, state, msg) Basim.Engine.protocol
(** The protocol record. Under [erasure], a node erases its slot key
    after every ACK draw, won or lost: at the end of an execution every
    node still honest can sign only from slot [R] on. *)

val sparse_step : unit -> (env, state, msg) Basim.Engine.sparse_step
(** {!Bacore.Third.Make.sparse_step}: the crowd hook, trace-equivalent to
    the dense step. *)

val ack_bit_stmt : epoch:int -> bit:bool -> string
(** The statement the forward-secure slot signature covers. *)

val make_ack :
  epoch:int -> bit:bool -> cred:Bafmine.Eligibility.credential ->
  fs_sig:Bacrypto.Forward_secure.tag -> msg
(** Assemble an ACK — used by the adversary for corrupt nodes. *)
