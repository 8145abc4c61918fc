(** Causal flow analysis: the happens-before DAG of one execution.

    The synchronous model makes causality {e exact}, not sampled: a
    message sent in round [r] is delivered at the start of round [r+1],
    and a node's round-[r] actions are a function of its input, its own
    earlier states, and everything it received by round [r]. The
    happens-before DAG therefore has one {b state} per (node, round)
    pair, a {b memory edge} [(i, r) -> (i, r+1)] per node, and a
    {b delivery edge} [(src, r) -> (dst, r+1)] per recipient of every
    delivered message (honest sends and adversary injections alike).

    Definition-7 removals appear as {b severed edges}: the erased send
    is accounted (it still counts toward the sender's word totals) but
    delivers nothing, so its would-be edges are absent from every
    backward cone — and {e present} as adversary influence, because the
    absence of an expected message is itself information the adversary
    chose. Taint attribution therefore seeds from three sources:
    [Corrupted(i, r)] taints node [i]'s states from round [r+1] on
    (round 0 for setup corruption, [r = -1]); [Injected] messages taint
    their recipients; [Removed] messages taint their would-be
    recipients. Taint then propagates forward along memory and delivery
    edges. A decision's {b tainted fraction} is
    [tainted ∩ cone / cone] over its backward causal cone.

    Traces recorded {e without} causal recording ({!Basim.Engine.run}
    without [?labeler] — including every legacy trace) lack the
    recipient lists of targeted sends; those messages are
    over-approximated as reaching everyone and counted in
    {!approx_messages}, making cones and taint upper bounds. Multicasts
    (the common case in this repository) are always exact. *)

type t

type decision = {
  d_node : int;
  d_round : int;  (** the round the node halted in *)
  d_output : bool option;
  d_cone_states : int;
      (** states in the decision's backward causal cone, including the
          deciding state itself *)
  d_tainted_states : int;  (** cone states reachable from adversary events *)
  d_critical_path : int;
      (** longest message chain (delivery-edge count) ending at the
          deciding state — the decision's causal depth *)
}

(** One row of the per-kind × per-round flow matrix: the per-round
    totals of one {!Basim.Metrics.observe} fold per kind label. Severed
    sends therefore still count toward their sender's multicast/unicast
    totals, and summing the matrix reproduces {!Basim.Metrics}. The
    empty kind [""] covers unlabeled (legacy) traces. *)
type flow = {
  f_round : int;
  f_kind : string;
  f_multicasts : int;
  f_multicast_bits : int;
  f_unicasts : int;  (** targeted sends × recipients *)
  f_unicast_bits : int;
  f_removals : int;
  f_injections : int;
  f_injection_bits : int;  (** 0 on unlabeled traces (bits unrecorded) *)
}

(** The serializable digest of an analysis: the contents of the
    [ba-causal/v1] document {!to_json} writes. *)
type summary = {
  s_n : int;
  s_rounds : int;  (** state grid spans rounds [0 .. s_rounds - 1] *)
  s_delivered : int;  (** honest sends that survived to delivery *)
  s_severed : int;  (** Definition-7 removals *)
  s_injected : int;
  s_approx : int;  (** messages with over-approximated recipient sets *)
  s_states : int;  (** [s_n * s_rounds] *)
  s_edges : int;
      (** materialized delivery edges (sends in the final round have no
          consumer and contribute none); memory edges are implicit *)
  s_decisions : decision list;  (** sorted by (round, node) *)
  s_flows : flow list;  (** sorted by (round, kind) *)
}

val of_events : ?n:int -> Basim.Trace.event list -> t
(** Build the DAG and run every analysis. [n] defaults to the smallest
    node count consistent with the trace (max node index + 1, and any
    multicast's recipient count).
    @raise Invalid_argument when [n] is given and below 1.
    @raise Baobs.Json.Parse_error, naming the event, when a message's
    round is below 0 or a node, victim, src, target or halted id lies
    outside [\[0, n)] — ids off the state grid. A [Corrupted] event at
    round [-1] (setup) is legal. Also when the grid of [n] nodes over
    the trace's rounds would exceed {!max_states} states, naming the
    first event that reaches past it (or the one that sets [n]). *)

val max_states : int
(** The cap on the state grid, [2²⁶]: it covers 10⁶ nodes over 64
    rounds, and keeps a trace from choosing the size of an
    allocation. *)

val n : t -> int

val rounds : t -> int

val decisions : t -> decision list

val flows : t -> flow list

val approx_messages : t -> int

val summary : t -> summary

val taint_fraction : decision -> float
(** [d_tainted_states / d_cone_states] ([0.] for an empty cone —
    impossible for a real decision, whose cone holds its own memory
    chain). *)

val to_text : ?top:int -> t -> string
(** Human-readable summary: message counts, the flow matrix, and the
    decision table ([top] rows, default 10, highest tainted fraction
    first). *)

val to_json : t -> Baobs.Json.t
(** The [ba-causal/v1] document of [summary t]. *)
