(** Lightweight span/counter registry for phase timers.

    A probe is a named (count, cumulative-ns) pair in a global registry.
    Instrumented code registers its probes once at module init and wraps
    hot sections in {!start}/{!stop}; when the registry is disabled —
    the default — every operation short-circuits on one atomic load, so
    instrumentation left in place costs nothing measurable.

    Domain-safe: the registry table and each probe's counters are
    mutex-guarded (the enabled flag is atomic), so probes fired from
    parallel [Bapar] trials never tear or lose updates — {!snapshot}
    after a join sees the exact totals. Timing overhead when enabled is
    one uncontended lock per span, which disappears into the
    [Unix.gettimeofday] call on either side.

    Timestamps come from [Unix.gettimeofday] (the best clock available
    without C stubs); spans are wall-clock durations. *)

type t

val register : string -> t
(** Idempotent by name: registering twice returns the same probe. *)

val enable : unit -> unit

val disable : unit -> unit

val reset : unit -> unit
(** Zero every probe's count and accumulated time. *)

val start : unit -> float
(** Span-open timestamp, or [0.] when disabled. *)

val stop : t -> float -> unit
(** Close a span opened by {!start}; a [0.] token is ignored, so a span
    opened while disabled never records. Durations are clamped to zero
    if the wall clock stepped backwards mid-span, so a probe's
    accumulated total is never decreased by an NTP adjustment. *)

val snapshot : unit -> (string * int * float) list
(** [(name, count, total_ns)] for every probe with a nonzero count,
    sorted by name. *)

val report : unit -> string
(** Human-readable table of {!snapshot}. *)
