(** Trace analytics: turn an execution trace (a live
    [Basim.Trace.collector] event list or a re-parsed [--trace-jsonl]
    file) into readable artifacts — a per-round timeline, a per-node
    communication table with top-k talkers, and per-kind message-size
    summaries (p50/p95/p99 over {!Bastats.Histogram} bins).

    The Definition-7 counters are the {!Basim.Metrics.observe} fold of
    the trace — the rule the engine itself accounts by — so erased
    honest sends ([Removed] events, which carry the erased send's
    shape) count toward honest multicasts/unicasts {e and} as removals,
    and a report's totals reproduce the engine's aggregates for the
    same run. The report adds halt counts and message sizes. *)

type counts = {
  multicasts : int;
  multicast_bits : int;  (** Definition-7 bits *)
  unicasts : int;        (** targeted sends × recipients *)
  unicast_bits : int;
  removals : int;
  injections : int;
  corruptions : int;
  halts : int;
}

type t

val of_events : ?rounds:int * int -> Basim.Trace.event list -> t
(** [rounds], when given, is an inclusive [(lo, hi)] window applied
    before any table is built: events outside it (by
    [Basim.Trace.round_of]; setup events are round [-1]) are dropped,
    so the timeline, matrix and histograms all cover exactly the
    window.
    @raise Invalid_argument if [lo > hi]. *)

val event_count : t -> int

val totals : t -> counts

val rounds : t -> (int * counts) list
(** Per-round timeline, rounds ascending (round [-1] = setup). *)

val nodes : t -> (int * counts) list
(** Per-node communication matrix, node ids ascending. Removals are
    charged to the victim, injections to the corrupt source. *)

val multicast_size_summary : t -> Bastats.Summary.t option
(** [None] when no multicast was observed. *)

val to_text : ?k:int -> t -> string
(** The three tables rendered for terminals. The top talkers are the
    [k] (default 10) heaviest nodes by multicast bits (unicast bits,
    then node id, break ties). *)

val to_json : ?k:int -> t -> Baobs.Json.t
(** [ba-report/v1]: totals, per-round rows, per-node rows, the [k]
    top talkers, size summaries. *)
