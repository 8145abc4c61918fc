(** Communication metrics for one protocol execution.

    Two notions from Appendix A.1:

    - {b multicast complexity} (Definition 7): total number of bits
      multicast by {e honest} nodes — the figure of merit for the paper's
      upper bound (Theorem 2);
    - {b classical communication complexity} (Definition 6): total
      pairwise messages; for a multicast of [b] bits to [n] nodes this is
      [n·b] bits.

    We additionally track message {e counts} (multicasts and pairwise),
    adversarial removals (after-the-fact erasures), corrupt injections
    and corruptions, which the experiments report alongside bits.

    {!observe} is the one place that maps an execution to these
    counters: the engine feeds it every {!Trace.event} it emits, and the
    trace analyses ([Baobs_report.Report], [Baobs_report.Causal],
    [Bacheck.Trace_lint]) fold re-parsed traces through it, so a run's
    metrics and every analysis of its trace agree by construction.
    Besides the run totals it keeps one counter per (round, node,
    counter) — the series [ba_run --metrics-json] exports. *)

type t

val create : n:int -> t
(** Empty metrics for an [n]-node execution. [n] only scales the
    classical totals. *)

val observe : t -> Trace.event -> unit
(** Charge one event, per Definition 7:
    - [Sent] and [Removed]: the sender's multicast (one, and its bits)
      or targeted send ([recipients] pairwise messages of [bits] each).
      An erased honest send still counts for its sender; [Removed] also
      charges one removal;
    - [Injected]: one injection and [max 0 bits] (an unlabeled trace
      records no injection bits);
    - [Corrupted]: one corruption;
    - [Round_started]: the round count becomes at least [round + 1];
    - [Halted]: nothing.

    Every charge lands at the event's (round, node); any round and node
    id is accepted. *)

val of_events : n:int -> Trace.event list -> t
(** {!observe} every event into [create ~n]. *)

val honest_multicasts : t -> int
(** Number of honest multicasts. *)

val honest_multicast_bits : t -> int
(** Multicast complexity in bits (Definition 7). *)

val honest_unicasts : t -> int
(** Number of honest pairwise messages (targeted sends × recipients). *)

val classical_messages : t -> int
(** Honest pairwise message count: multicasts × n + unicasts. *)

val classical_bits : t -> int
(** Honest pairwise bits: each multicast charged n× its size. *)

val removals : t -> int

val injections : t -> int

val rounds : t -> int
(** Highest started round + 1. *)

(** Every counter {!observe} keeps, at one granularity. *)
type counts = {
  multicasts : int;
  multicast_bits : int;
  unicasts : int;  (** targeted sends × recipients *)
  unicast_bits : int;
  removals : int;
  injections : int;
  injection_bits : int;
  corruptions : int;
}

val totals : t -> counts

val by_round : t -> (int * counts) list
(** Per-round sums, rounds ascending (round [-1] = setup). A round is
    listed iff some event other than [Round_started] or [Halted] was
    charged to it, even a charge of zero. *)

val by_node : t -> (int * counts) list
(** Per-node sums over all rounds, node ids ascending; listed under the
    same rule as {!by_round}. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Baobs.Json.t

val series_to_json : t -> Baobs.Json.t
(** The per-round × per-node series:
    [{ n; totals; rounds: [{round; nodes: [{node; <counter>: count}]}] }],
    rounds and nodes ascending, zero counters, nodes and rounds
    omitted. *)
