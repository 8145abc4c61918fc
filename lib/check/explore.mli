(** Bounded model checking over adversary schedules.

    ROADMAP item 4: instead of trusting that the eight hand-written
    attacks are the only interesting adversaries, search the adversary
    decision tree. A search {!instance} fixes the honest world — a
    protocol, a corruption model, [n], the budget [f], the inputs, one
    execution seed — and a per-protocol {!Basim.Schedule.compiler}
    fixes the injectable message vocabulary. {!dfs} then enumerates
    {!Basim.Schedule.t} values, compiles each into a real
    {!Basim.Engine.adversary}, runs it through the production engine,
    and judges the leaf with the production property checker
    ({!Basim.Properties.agreement}) {e and} {!Trace_lint.verify} — a
    schedule "wins" when consistency, validity or termination breaks,
    and a trace-lint finding on an interpreter-produced trace is itself
    a reportable bug ({!Trace_invariant}).

    Everything is deterministic: the engine seed is fixed per instance
    and DFS order is canonical — same inputs, same findings, byte for
    byte. *)

type ('env, 'state, 'msg) instance = {
  protocol : ('env, 'state, 'msg) Basim.Engine.protocol;
  compiler : ('env, 'msg) Basim.Schedule.compiler;
  model : Basim.Corruption.model;
  n : int;
  budget : int;
  inputs : bool array;
  max_rounds : int;  (** engine round cap per leaf execution *)
  exec_seed : int64;  (** seed of every leaf execution *)
}

type outcome = {
  verdict : Basim.Properties.verdict;
  lint : Trace_lint.finding list;
      (** non-empty means the interpreter/engine pair broke a trace
          invariant — an internal error, not an adversary discovery *)
  rounds_used : int;
  corruptions : int;
}

val run_schedule : ('env, 'state, 'msg) instance -> Basim.Schedule.t -> outcome
(** Execute one schedule through the real engine and judge it. *)

type violation = Consistency | Validity | Termination | Trace_invariant

val violation_name : violation -> string
(** Stable tags: [consistency], [validity], [termination],
    [trace-invariant]. *)

val violations_of : outcome -> violation list

val violates : outcome -> bool

val minimize :
  ('env, 'state, 'msg) instance -> Basim.Schedule.t -> Basim.Schedule.t
(** Greedy delta-debugging: drop one setup corruption or one action at a
    time, keeping any drop after which the schedule still violates
    {e some} property, until no single drop survives. Returns the input
    unchanged if it does not violate anything. *)

type finding = {
  schedule : Basim.Schedule.t;  (** as discovered *)
  minimized : Basim.Schedule.t;  (** after {!minimize} *)
  violations : violation list;  (** of the minimized schedule *)
  verdict : Basim.Properties.verdict;  (** of the minimized schedule *)
  lint : Trace_lint.finding list;
}

type stats = {
  explored : int;  (** schedules executed *)
  violating : int;  (** 1 when a violation was found, else 0 *)
  node_cap_hit : bool;  (** DFS stopped at [max_nodes] *)
}

val finding_to_json : finding -> Baobs.Json.t

val stats_to_json : stats -> Baobs.Json.t

val to_report_items : finding list -> Report.item list
(** Findings as {!Report} items (label = the violated properties joined
    with [+]). *)

type space = {
  max_round : int;  (** actions allowed in rounds [0 .. max_round] *)
  max_actions : int;  (** total actions (setup included) per schedule *)
  actions_per_round : int;
  dsts : Basim.Schedule.dst list;  (** injection-target vocabulary *)
}

val default_space : max_round:int -> space
(** [max_actions = 4], [actions_per_round = 4], [dsts = [Everyone]]. *)

val dfs :
  space:space ->
  ?max_nodes:int ->
  ('env, 'state, 'msg) instance ->
  finding list * stats
(** Exhaustive enumeration of canonical schedules, smallest first along
    each branch, stopping at the first violating schedule, which is
    {!minimize}d into the one finding. Setup-time corruptions are
    enumerated exactly when the instance's model forbids mid-round
    ones (the static model). Pruning (all symmetry-safe): within a
    round actions are strictly rank-ordered (corruptions, removals,
    injections); infeasible actions — over-budget or duplicate
    corruptions, removals from nodes not corrupted this round,
    injections from honest nodes — are never generated (the
    interpreter would skip them, so those schedules are equivalent to
    already-enumerated ones); [Halt] and empty rounds are never
    generated (truncation equivalence); every removal names intent 0.
    [max_nodes] (default 200_000) caps executed schedules. *)
