(** First-class, serializable adversary schedules.

    A schedule is an {e oblivious} adversary strategy: a finite,
    per-round list of actions — corrupt a node, remove a wire, inject a
    protocol message, halt — fixed before the execution starts, drawn
    from the engine's own {!Engine.action} vocabulary. Unlike a
    hand-written {!Engine.adversary}, a schedule is plain data: it
    serializes to JSON ([ba-schedule/v1]), round-trips, diffs, and
    minimizes, which is what makes bounded model checking over the
    adversary decision tree ([Bacheck.Explore], [ba_explore]) possible.

    The {!to_adversary} interpreter compiles a schedule into a real
    {!Engine.adversary}, so every explored schedule runs through the
    production engine and is judged by the production property checker —
    there is no separate "model" semantics to drift out of sync.

    {b Skip semantics.} The interpreter is total: actions that would be
    illegal at runtime (a mid-round corruption under [Static], a removal
    under a model without removal, corrupting past the budget, removing
    a wire of a node not corrupted this round, injecting from an honest
    node or to a {!Nodes} id outside [\[0, n)], or a message the
    {!compiler} cannot realize — e.g. a failed eligibility mine) are
    {e skipped}, not raised. A schedule therefore denotes the
    legal sub-sequence of its actions, and every schedule yields a trace
    that passes [Bacheck.Trace_lint.verify]. Search strategies rely on
    this totality; they additionally prune infeasible actions up front
    so skips stay rare.

    {b Message vocabulary.} Schedules are protocol-agnostic: an
    injection names a message {e kind} (a short protocol-specific tag
    such as ["ack"] or ["result"]) and a bit, and a per-protocol
    {!compiler} turns [(round, src, kind, bit)] into an actual message —
    mining real eligibility credentials, producing real signatures — or
    reports that the message is unrealizable. Compilers for the shipped
    protocols live in [Baattacks.Schedule_targets]. *)

type dst =
  | Everyone  (** multicast ({!Engine.All}) *)
  | Lower_half  (** nodes [0 .. n/2 - 1] — the split-vote targeting idiom *)
  | Upper_half  (** nodes [n/2 .. n - 1] *)
  | Nodes of int list  (** explicit recipient list *)

type action =
  | Corrupt of int  (** corrupt a node mid-round (setup when round = -1) *)
  | Remove of { victim : int; index : int }
      (** erase the [victim]'s [index]-th intent of this round
          (after-the-fact removal; victim must have been corrupted this
          round) *)
  | Inject of { src : int; kind : string; bit : bool; dst : dst }
      (** make corrupt [src] send the protocol message the compiler
          builds for [(kind, bit)] to [dst] *)
  | Halt  (** stop executing the rest of the schedule *)

type t = {
  name : string;
  model : Corruption.model;
  setup : int list;  (** setup-time (static) corruptions, in order *)
  steps : (int * action list) list;
      (** per-round action lists, rounds non-negative and strictly
          ascending, actions applied in list order *)
}

val action_count : t -> int
(** Setup corruptions plus mid-round actions. *)

val to_json : t -> Baobs.Json.t
(** The [ba-schedule/v1] document. *)

val of_json : Baobs.Json.t -> t
(** Inverse of {!to_json}: [of_json (to_json s) = s] for every [s]
    whose rounds are non-negative and strictly ascending.
    @raise Baobs.Json.Parse_error on a malformed or foreign document,
    and on a round that is negative or not above the one before it. *)

val pp : Format.formatter -> t -> unit
(** Compact human-readable rendering, one round per [;]-separated
    group. *)

val resolve_dst : n:int -> dst -> Engine.dest
(** [Everyone] is {!Engine.All}; the halves are [Only] lists of
    [\[0, n/2)] and [\[n/2, n)], ascending — the one definition of the
    network halves, which the split-vote attacks and E10 target too. *)

type ('env, 'msg) compiler = {
  kinds : string list;
      (** the injectable message kinds, in canonical (search) order *)
  compile :
    'env -> round:int -> src:int -> kind:string -> bit:bool -> 'msg option;
      (** realize one injected message, or [None] if unrealizable (failed
          eligibility mine, src outside the relevant committee, unknown
          kind) *)
}

val to_adversary : compiler:('env, 'msg) compiler -> t -> ('env, 'msg) Engine.adversary
(** Compile the schedule into an engine adversary (named
    ["schedule:<name>"]) with the skip semantics described above. The
    returned adversary is reusable: its internal bookkeeping resets on
    [setup], which the engine calls once per run. *)
