(** Synchronous round-based execution engine — a direct implementation of
    the protocol-execution model of the paper's Appendix A.1.

    One execution runs [n] Interactive-Turing-Machine-style nodes in
    lockstep rounds over a synchronous network (Δ = 1: anything an honest
    node sends in round [r] is delivered to every honest recipient at the
    beginning of round [r+1]). Channels are authenticated: the engine
    stamps the true sender on every delivery, so corrupt nodes cannot
    spoof honest identities — but they {e can} equivocate by targeting
    different messages at different recipient sets.

    Each round:

    + every so-far-honest, not-yet-halted node computes its {b intents}
      (the sends it wants to perform) from its state and inbox;
    + the {b adversary intervenes}: it observes all intents and may
      (subject to its {!Corruption.model} and budget) corrupt nodes,
      erase intents (strongly-adaptive only, and only intents of nodes
      corrupt by the end of the intervention — "after-the-fact removal"),
      and inject messages from corrupt nodes;
    + surviving sends are delivered at the start of the next round.

    A node corrupted in round [r] keeps its round-[r] intents on the wire
    (unless the adversary is strongly adaptive and erases them), stops
    executing the honest protocol from round [r+1] on, and is henceforth
    driven entirely by adversary injections — exactly the
    "cannot retract, but can send additional messages" rule of the paper.

    Protocols and adversaries are plain records of functions, polymorphic
    in the protocol's environment ([_ env]), per-node state, and message
    type, so one engine runs every protocol in the repository. *)

type dest =
  | All                (** multicast to everyone (including the sender) *)
  | Only of int list   (** targeted send (pairwise-channel protocols and
                           corrupt equivocation) *)

type 'msg send = { dst : dest; payload : 'msg }

val multicast : 'msg -> 'msg send
(** [multicast m] is [{ dst = All; payload = m }]. *)

(** A protocol, as run by honest nodes. *)
type ('env, 'state, 'msg) protocol = {
  proto_name : string;
  make_env : n:int -> Bacrypto.Rng.t -> 'env;
      (** Trusted setup (PKI, CRSs, public coins). Runs once per
          execution, before the adversary acts. *)
  init : 'env -> rng:Bacrypto.Rng.t -> n:int -> me:int -> input:bool -> 'state;
      (** Per-node initialization with the node's input bit. *)
  step :
    'env ->
    'state ->
    round:int ->
    inbox:(int * 'msg) list ->
    'state * 'msg send list;
      (** One synchronous round: consume the inbox (pairs of authenticated
          sender and message), update state, emit sends. *)
  output : 'state -> bool option;
      (** The node's decision, if any. *)
  halted : 'state -> bool;
      (** [true] once the node has terminated (no further [step] calls). *)
  msg_bits : 'env -> 'msg -> int;
      (** Wire size of a message, for the metrics. Must be pure: the
          engine evaluates it once per wire (at creation) and caches the
          result for accounting, removal traces, and delivery. *)
}

(** What the adversary is shown when it intervenes in a round.

    Its arrays are {e shared} with the engine for the duration of the
    [intervene] call rather than deep-copied per round: adversaries must
    treat the view as read-only (enforced by review discipline, as with
    inbox access below). *)
type ('env, 'msg) view = {
  round : int;
  n : int;
  env : 'env;
  intents : 'msg send list array;
      (** This round's honest sends, indexed by node, before delivery;
          [[]] for a node that sends nothing. *)
  speakers : int array;
  n_speakers : int;
      (** The nodes with non-empty [intents], ascending, are the first
          [n_speakers] entries of [speakers] (an engine buffer of length
          [n]; the rest is stale), so an adversary that reacts to
          speakers pays O(speakers), not O(n). *)
  inboxes : (int * 'msg) list array;
      (** What was delivered to each node at the start of this round. The
          adversary may read only corrupt nodes' inboxes plus the public
          content of honest multicasts — enforced by review discipline in
          the attack implementations (everything here was multicast, so in
          the multicast model the adversary sees it all anyway). *)
  tracker : Corruption.tracker;
  adv_rng : Bacrypto.Rng.t;
}

type 'msg action =
  | Corrupt of int
      (** Corrupt a node now. Illegal for [Static] after setup; consumes
          budget. *)
  | Remove of { victim : int; index : int }
      (** Erase intent [index] of node [victim] ("after-the-fact
          removal"). Legal only for [Strongly_adaptive] adversaries and
          only if [victim] is corrupt at the time this action is
          processed (so [Corrupt v; Remove …] in one intervention works). *)
  | Inject of { src : int; dst : dest; payload : 'msg }
      (** Make corrupt node [src] send a message (possibly targeted —
          equivocation). Legal only if [src] is corrupt and every
          [Only] target is a node id in [\[0, n)]. *)

exception Illegal_action of string
(** Raised when an adversary attempts something its model forbids: the
    engine is the referee of the corruption model. *)

type ('env, 'msg) adversary = {
  adv_name : string;
  model : Corruption.model;
      (** The adversary's whole contract: the engine refuses, with
          {!Illegal_action}, every action this model forbids (see
          {!action}) and every corruption past the budget. *)
  setup : 'env -> n:int -> budget:int -> rng:Bacrypto.Rng.t -> int list;
      (** Pre-execution (static) corruptions, legal under every model;
          the only corruption chance for a [Static] adversary. *)
  intervene : ('env, 'msg) view -> 'msg action list;
      (** Mid-round intervention; actions are applied in order. *)
}

val passive : name:string -> model:Corruption.model -> ('env, 'msg) adversary
(** An adversary that corrupts no one and does nothing. *)

type result = {
  outputs : bool option array;
  corrupt : bool array;
  corruptions : int;            (** number of corrupted nodes *)
  rounds_used : int;
  metrics : Metrics.t;
  all_honest_decided : bool;    (** every forever-honest node halted with
                                    an output within [max_rounds] *)
  halt_rounds : int option array;
      (** per node, the round in which it halted — the Lemma-10
          terminate-cascade experiment measures the spread of these *)
}

val set_intra_jobs : int -> unit
(** A stub: the engine runs each execution on one domain, so [1] is the
    only accepted value and the call does nothing. It stays because the
    cost-ledger benchmark ([bench/ledger/ledger.ml]) calls
    [set_intra_jobs 1] and that harness is kept unchanged alongside its
    recorded results.
    @raise Invalid_argument for any value other than [1]. *)

(** {2 Phase-1 hooks}

    Phase 1 always runs through a {!sparse_step} hook. A protocol that
    can bound which nodes act in a round — committee sampling,
    shared-listener crowds — supplies its own ({!run}'s [?sparse]);
    otherwise the engine uses {!sparse_of_step}, which calls [step] on
    every active node. The engine retains everything else: it owns the
    active set, detects halts by scanning it (so a hook may halt nodes
    wholesale, e.g. a crowd deciding), buffers wires from the registered
    sends in ascending node order, referees the adversary, and delivers.
    A hook that registers exactly the sends the per-node [step] would
    produce therefore yields byte-identical traces, metrics and outputs
    — asserted differentially in test/test_sparse.ml and by the CI
    [scale] job's dense-vs-sparse [cmp]. *)

type 'msg round_view = {
  rv_round : int;
  rv_n : int;
  rv_active : int array;
      (** Ascending ids of so-far-honest, not-yet-halted nodes; read
          only the prefix [\[0, rv_n_active)]. Shared with the engine —
          do not mutate. *)
  rv_n_active : int;
  rv_shared_inbox : (int * 'msg) list;
      (** The inbox every node {e without} private deliveries received
          this round (injections in application order, then honest
          wires in descending node order) — physically the engine's
          shared multicast tail. *)
  rv_is_shared : int -> bool;
      (** [true] iff the node's inbox this round {e is}
          [rv_shared_inbox] (no targeted deliveries reached it). *)
  rv_inbox : int -> (int * 'msg) list;
      (** The node's full inbox (equals [rv_shared_inbox] when
          [rv_is_shared]). *)
  rv_emit : int -> 'msg send list -> unit;
      (** Register a node's sends for this round (callable in any
          order, last write wins; an empty list records that the node
          did per-node work without sending). @raise Invalid_argument
          for a node outside the active set. *)
}

type ('env, 'state, 'msg) sparse_step =
  'env -> states:'state array -> 'msg round_view -> unit
(** One phase 1: absorb [rv_shared_inbox] once for the crowd and
    per-node inboxes for divergent nodes, mutate [states] in place, and
    [rv_emit] every send the per-node protocol would have produced. *)

val sparse_of_step :
  ('env, 'state, 'msg) protocol -> ('env, 'state, 'msg) sparse_step
(** The dense phase 1 {!run} uses without [?sparse]: step every active
    node through [proto.step], in ascending order, and emit its sends. *)

val run :
  ?tracer:(Trace.event -> unit) ->
  ?resource:Baobs.Resource.t ->
  ?labeler:('msg -> string) ->
  ?sparse:('env, 'state, 'msg) sparse_step ->
  ('env, 'state, 'msg) protocol ->
  adversary:('env, 'msg) adversary ->
  n:int ->
  budget:int ->
  inputs:bool array ->
  max_rounds:int ->
  seed:int64 ->
  result
(** Execute one run. Deterministic in [seed]. [tracer] receives one
    {!Trace.event} per round start/send/corruption/removal/injection/
    halt. The result's {!Metrics} are the {!Metrics.observe} fold of
    exactly those events, per-round × per-node series included — with
    one difference: an unlabeled trace's [Injected] events carry
    [bits = -1], while the metrics charge the wire's size. The engine's
    three phases are additionally timed under the [engine.*]
    {!Baobs.Probe}s when the probe registry is enabled.

    [resource], when given, receives
    one GC/memory row per round — allocated words, promotions,
    collection counts, heap size — with setup (env, static corruptions,
    node init, the per-run arrays) recorded as round [-1], matching the
    trace convention. The rows tile the run: the last round's row also
    carries the result arrays, so the rows sum to everything the run
    allocates but a few hundred words of the recorder's own. Sampling
    only reads GC counters, so enabling it cannot perturb the
    execution: the trace is byte-identical with recording on or off.

    {b Causal recording.} [labeler], when given, switches the trace into
    causal-recording mode: every wire (honest send, injection) is
    assigned a stable per-run message id in creation order, labeled with
    [labeler payload], and targeted sends record their explicit recipient
    list — filling the [id]/[kind]/[targets] fields of
    {!Trace.Sent}/[Removed]/[Injected] that {!Baobs_report.Causal} needs
    for exact happens-before reconstruction. Without a labeler those
    fields hold the {!Trace.no_id}/{!Trace.no_kind}/[[]] sentinels and
    are omitted from the JSON codec, so the emitted trace is
    byte-identical to the legacy format: causal recording off has zero
    observable effect. The labeler must be pure (evaluated once per
    wire).

    {b Phase-1 hooks.} [sparse], when given, is the phase-1 hook (see
    {!sparse_step}); without it phase 1 is [sparse_of_step proto].

    @raise Invalid_argument if [Array.length inputs <> n].
    @raise Illegal_action if the adversary violates its model or
    budget. *)

val run_env :
  ?tracer:(Trace.event -> unit) ->
  ?resource:Baobs.Resource.t ->
  ?labeler:('msg -> string) ->
  ?sparse:('env, 'state, 'msg) sparse_step ->
  ('env, 'state, 'msg) protocol ->
  adversary:('env, 'msg) adversary ->
  n:int ->
  budget:int ->
  inputs:bool array ->
  max_rounds:int ->
  seed:int64 ->
  'env * result
(** Like {!run} but also returns the protocol environment, so experiments
    can inspect shared state after the fact (e.g. [Fmine] mining
    statistics for the committee-concentration experiment E7). *)
