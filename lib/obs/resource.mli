(** Runtime-resource telemetry: GC/memory samplers, a per-round
    recorder, and the memory-flatness analysis behind [ba_obs mem].

    The paper's sub-HM protocol wins because per-round work is polylog;
    the million-node engine (ROADMAP item 1) is gated on evidence that
    per-round {e memory} stays flat too. This module is the measuring
    instrument: cheap samplers over the GC counters (counter reads — no
    collection is triggered, no protocol-visible state is touched, so a
    recorded run's trace is byte-identical to an unrecorded one),
    delta snapshots between them, a per-round series recorder the
    engine fills via [Engine.run ?resource], the JSON
    ([ba-resource/v1]) encoder, and the flatness check the memory gates
    read. Passing [?resource] is the switch: a run without a recorder
    samples nothing. *)

(** {2 Samplers} *)

type sample = {
  minor_words : float;       (** cumulative words allocated in the minor heap *)
  promoted_words : float;    (** cumulative words promoted minor → major *)
  major_words : float;       (** cumulative words allocated in the major heap,
                                 including promotions *)
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;          (** current major-heap size (level, not counter) *)
  top_heap_words : int;      (** high-water major-heap size *)
}

val sample : unit -> sample
(** Snapshot — counter reads only, no collection. The word counters are
    the calling domain's live ones ([Gc.minor_words], [Gc.counters]), so
    a delta counts exactly the words allocated between two samples even
    when no collection ran in between; [Gc.quick_stat], which supplies
    the collection counts and heap sizes, refreshes its word counters
    only at collections on OCaml 5. *)

type delta = {
  allocated_words : float;
      (** words newly allocated between the samples:
          minor + major − promoted (promotions would otherwise be
          double-counted) *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_growth_words : int;
      (** change in major-heap size — the one signed field: the heap
          can shrink *)
}

val delta : before:sample -> after:sample -> delta
(** All counter-derived fields are non-negative for samples taken in
    order on one domain (the counters are monotonic); only
    [heap_growth_words] can be negative. *)

(** {2 Per-round recorder} *)

type row = {
  round : int;               (** [-1] = setup (env, static corruptions, init) *)
  row_allocated_words : float;
  row_promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  row_heap_words : int;      (** major-heap size at round end *)
  row_top_heap_words : int;  (** high water at round end *)
}

type t

val create : unit -> t

val round_begin : t -> unit
(** Open a round window. *)

val round_end : t -> round:int -> unit
(** Close the open window, append its {!row} as [round], and open the
    next window at the same sample, so consecutive rows tile the
    recording: every word allocated between {!round_begin} and the last
    [round_end] lands in exactly one row. With no window open, record
    nothing. *)

val rows : t -> row list
(** Recorded rows, in recording order. *)

val allocation_summary : t -> Bastats.Summary.t option
(** Exact summary ({!Bastats.Summary.of_list}) of allocated words per
    round over the rows with [round >= 0]; [None] when no such row was
    recorded. *)

val to_json : ?meta:(string * Json.t) list -> t -> Json.t
(** [ba-resource/v1]: [{schema; ...meta; totals; per_round; rounds}].
    [meta] fields (protocol, n, seed, …) are spliced in after the
    schema tag. *)

(** {2 Analysis ([ba_obs mem])} *)

type report
(** A parsed [ba-resource/v1] document. *)

val report_of_json : Json.t -> report
(** @raise Json.Parse_error on a missing/foreign schema tag or
    malformed rows. *)

val report_rows : report -> row list

type flatness = {
  warmup : int;        (** leading post-setup rounds excluded from the fit *)
  cooldown : int;      (** trailing rounds excluded — the decide/halt
                           phase is a one-off allocation spike, not a
                           leak *)
  measured : int;      (** rounds the fit ran over *)
  mean_words : float;  (** mean allocated words/round in the window *)
  slope_words : float; (** Theil–Sen slope (median of pairwise slopes),
                           words/round per round — robust to per-epoch
                           allocation bursts and decision-round spikes,
                           unlike a least-squares fit *)
  drift : float;       (** [slope × (measured − 1) / mean]: the fitted
                           relative change in per-round allocation
                           across the whole window *)
  flat : bool;         (** [|drift|] is at most {!tolerance} *)
}

val max_window : int
(** The cap on the fitted window, 4,096 rounds: Theil–Sen keeps one
    slope per pair of windowed rounds, so the cap holds that array to
    about 67 MB instead of letting the document size it. *)

val min_window : int
(** The fewest fitted rounds a verdict rests on, 3. A shorter window
    has at most one pairwise slope, so it reads flat whatever it holds
    and a check must refuse it. *)

val trim : rounds:int -> int
(** The rounds trimmed from each end of a document of [rounds] executed
    rounds before the fit, [max 1 (rounds / 5)]: the first ones are
    warmup, the last ones the decide/halt phase, a one-off allocation
    spike rather than a leak. *)

val tolerance : float
(** The largest [|drift|] that reads flat, 0.25. No caller can widen
    it. *)

val flatness : report -> flatness
(** Fit allocated-words-per-round against round index over the
    steady-state window — executed rounds (setup row excluded) with
    {!trim} rounds cut from each end — with a Theil–Sen estimator.
    Fewer than {!min_window} windowed rounds fit trivially flat
    (slope 0), and so does a window whose mean is at most 0 (drift 0):
    a check must refuse both.
    @raise Json.Parse_error, naming the cap, when the window holds more
    than {!max_window} rounds. *)

val report_to_text : report -> flatness -> string

val report_to_json : report -> flatness -> Json.t
(** [ba-mem-report/v1]. *)

(** {2 Growth in n ([ba_obs mem SMALL LARGE])}

    Flatness in rounds cannot see a per-round term that is O(n) but
    constant within a run. Two runs of one protocol, seed and budget at
    [n₁ < n₂] can: their steady-state means differ by about [n₂/n₁]
    when a round allocates per node, and stay close when it allocates
    per winner. *)

type growth = {
  protocol : string;
  seed : int;
  budget : int;
  small_n : int;
  large_n : int;
  small : flatness;
      (** the [n₁] run's steady-state fit, of which the growth check
          reads the window and its mean *)
  large : flatness;  (** the [n₂] run's *)
  ratio : float;
      (** [large.mean_words / small.mean_words] (a smaller mean below one
          word counts as one) *)
  bound : float;  (** [√(n₂/n₁)] *)
  sublinear : bool;  (** [ratio <= bound] *)
}

val growth : report -> report -> (growth, string) result
(** [growth small large] compares the steady-state mean allocated
    words/round of two documents, each fitted by {!flatness}. [Error]
    names the mismatch when either document lacks its [protocol], [n],
    [seed] or [budget], when the two differ in protocol, seed or budget,
    unless [1 <= n₁ < n₂], or when either window fits fewer than
    {!min_window} rounds or has a mean of at most 0 words/round, on
    which no ratio can be judged. *)

val growth_to_text : growth -> string

val growth_to_json : growth -> Json.t
(** [ba-mem-growth/v1]. *)
