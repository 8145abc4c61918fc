(** Certificates for the honest-majority protocols (Appendix C).

    An iteration-[r] certificate for bit [b] is a collection of [f+1]
    (quadratic protocol) or [λ/2] (subquadratic protocol) iteration-[r]
    Vote endorsements for [b] from distinct nodes. The endorsement type is
    a signature tag in the quadratic protocol and an eligibility
    credential in the subquadratic one, so the type is polymorphic.

    Ranking (Appendix C.1): certificates are ranked by iteration; "a bit
    without any certificate has an iteration-0 certificate", represented
    here as [None]. *)

type 'a t = {
  iter : int;                       (** iteration the votes are from *)
  bit : bool;                       (** the certified bit *)
  endorsements : (int * 'a) list;   (** (voter, endorsement) pairs *)
}

val make : iter:int -> bit:bool -> endorsements:(int * 'a) list -> 'a t
(** Deduplicates endorsements by voter, keeping each voter's first one.
    A list whose voters are already distinct is kept as it is, and then
    only the record is allocated. @raise Invalid_argument if
    [iter < 1]. *)

val mem_endorser : int -> (int * 'a) list -> bool
(** [mem_endorser node endorsements] iff [node] is among the voters: the
    {!List.mem_assoc} of an endorsement list, by integer comparison. *)

val rank : 'a t option -> int
(** Iteration number; [None] ranks as 0 (the iteration-0 certificate). *)

val strictly_higher : 'a t option -> than:'a t option -> bool
(** [strictly_higher a ~than:b] iff [rank a > rank b]. *)

val well_formed :
  'a t -> quorum:int -> check_all:((int * 'a) list -> bool list) -> bool
(** [well_formed c ~quorum ~check_all] holds iff [c] carries accepted
    endorsements from at least [quorum] distinct nodes. [check_all]
    receives every endorsement at once (e.g.
    {!Eligibility.t.verify_many}) and returns one verdict per entry, in
    order: signature or credential verification for the statement
    "Vote, c.iter, c.bit". A node listed twice counts once, so a
    certificate built straight from a wire list, bypassing {!make}'s
    dedupe, cannot reach a quorum by repetition. *)

val size_bits : 'a t option -> endorsement_bits:('a -> int) -> int
(** Wire size: per endorsement, a 32-bit node id plus the endorsement
    itself; plus a 48-bit header. [None] costs 8 bits (a tag saying
    "no certificate"). *)
