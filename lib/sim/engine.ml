type dest = All | Only of int list

type 'msg send = { dst : dest; payload : 'msg }

let multicast payload = { dst = All; payload }

type ('env, 'state, 'msg) protocol = {
  proto_name : string;
  make_env : n:int -> Bacrypto.Rng.t -> 'env;
  init : 'env -> rng:Bacrypto.Rng.t -> n:int -> me:int -> input:bool -> 'state;
  step :
    'env ->
    'state ->
    round:int ->
    inbox:(int * 'msg) list ->
    'state * 'msg send list;
  output : 'state -> bool option;
  halted : 'state -> bool;
  msg_bits : 'env -> 'msg -> int;
}

type ('env, 'msg) view = {
  round : int;
  n : int;
  env : 'env;
  intents : 'msg send list array;
  speakers : int array;
  n_speakers : int;
  inboxes : (int * 'msg) list array;
  tracker : Corruption.tracker;
  adv_rng : Bacrypto.Rng.t;
}

type 'msg action =
  | Corrupt of int
  | Remove of { victim : int; index : int }
  | Inject of { src : int; dst : dest; payload : 'msg }

exception Illegal_action of string

type ('env, 'msg) adversary = {
  adv_name : string;
  model : Corruption.model;
  setup : 'env -> n:int -> budget:int -> rng:Bacrypto.Rng.t -> int list;
  intervene : ('env, 'msg) view -> 'msg action list;
}

let passive ~name ~model =
  { adv_name = name;
    model;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
    intervene = (fun _ -> []) }

type result = {
  outputs : bool option array;
  corrupt : bool array;
  corruptions : int;
  rounds_used : int;
  metrics : Metrics.t;
  all_honest_decided : bool;
  halt_rounds : int option array;
}

(* An interned wire: ONE immutable descriptor per send, however many
   nodes observe it. It carries everything accounting, tracing and
   delivery will ever ask — the wire size ([msg_bits] is evaluated once,
   at creation), the recipient count ([w_nrecip], so `List.length
   targets` is not recomputed per trace event), and the delivery cell
   [w_cell]: the [(src, payload)] pair every recipient's inbox list
   points at. A multicast therefore costs one descriptor + one cell +
   one shared cons, and a [k]-target unicast one descriptor + one cell +
   [k] conses — never a fresh pair per observer. The only mutable field
   is the adversary's erasure mark; the refcount of a wire is implicit
   (inbox lists alias [w_cell]; the GC retires the descriptor when the
   last inbox drops it). Under causal recording wires also get a per-run
   id and protocol kind label ([-1]/[""] when the run has no labeler, so
   unlabeled traces stay byte-identical). Only honest sends are buffered
   as wires; injections are delivered from their own list. *)
type 'msg wire = {
  w_src : int;
  w_dst : dest;
  w_payload : 'msg;
  w_bits : int;
  w_nrecip : int;
  w_cell : int * 'msg;
  w_id : int;
  w_kind : string;
  mutable erased : bool;
}

(* Growable array of this round's honest wires, reused across rounds
   (OCaml 5.1 has no stdlib Dynarray). Resetting only rewinds [len]; slots
   beyond it keep stale wires alive until overwritten, which is fine — they
   are bounded by the busiest round seen so far. *)
type 'msg wirebuf = { mutable wb_arr : 'msg wire array; mutable wb_len : int }

let wirebuf_push b w =
  let cap = Array.length b.wb_arr in
  if b.wb_len = cap then begin
    let grown = Array.make (if cap = 0 then 16 else 2 * cap) w in
    Array.blit b.wb_arr 0 grown 0 b.wb_len;
    b.wb_arr <- grown
  end;
  Array.unsafe_set b.wb_arr b.wb_len w;
  b.wb_len <- b.wb_len + 1

(* [splice lst d tail] is the first [d] elements of [lst], in order, consed
   onto [tail]. Delivery uses it to graft the multicasts that arrived since
   a node's last unicast onto that node's private inbox prefix. [lst] is
   always long enough by construction. *)
let rec splice lst d tail =
  if d = 0 then tail
  else
    match lst with
    | [] -> assert false
    | x :: rest -> x :: splice rest (d - 1) tail

(* ------------------------------------------------------------------ *)
(* Phase 1 always runs through a [sparse_step] hook. A protocol that
   knows which nodes can possibly act in a round (committee sampling,
   shared-listener crowds) supplies its own; every other protocol runs
   through [sparse_of_step], which steps each active node. The engine
   still owns membership of the active set, halt detection, wire
   buffering, adversary refereeing and delivery, so traces and metrics
   stay byte-identical whenever a hook emits exactly the sends the
   per-node [step] would. *)

type 'msg round_view = {
  rv_round : int;
  rv_n : int;
  rv_active : int array;
  rv_n_active : int;
  rv_shared_inbox : (int * 'msg) list;
  rv_is_shared : int -> bool;
  rv_inbox : int -> (int * 'msg) list;
  rv_emit : int -> 'msg send list -> unit;
}

type ('env, 'state, 'msg) sparse_step =
  'env -> states:'state array -> 'msg round_view -> unit

(* The dense phase 1: step every active node, in ascending order, and
   emit each step's sends. *)
let sparse_of_step (proto : ('env, 'state, 'msg) protocol) :
    ('env, 'state, 'msg) sparse_step =
 fun env ~states rv ->
  for k = 0 to rv.rv_n_active - 1 do
    let i = rv.rv_active.(k) in
    if not (proto.halted states.(i)) then begin
      let state', sends =
        proto.step env states.(i) ~round:rv.rv_round ~inbox:(rv.rv_inbox i)
      in
      states.(i) <- state';
      rv.rv_emit i sends
    end
  done

let illegal fmt = Format.kasprintf (fun s -> raise (Illegal_action s)) fmt

(* Phase timers: disabled (one ref read per span) unless the caller
   turns the probe registry on. *)
let p_step = Baobs.Probe.register "engine.honest_step"
let p_adversary = Baobs.Probe.register "engine.adversary"
let p_delivery = Baobs.Probe.register "engine.delivery"

let set_intra_jobs j =
  if j <> 1 then
    invalid_arg
      "Engine.set_intra_jobs: the engine is sequential; only 1 is accepted"

let run_env ?(tracer = fun (_ : Trace.event) -> ()) ?resource ?labeler
    ?sparse ?step_audit proto ~adversary ~n ~budget ~inputs ~max_rounds
    ~seed =
  if Array.length inputs <> n then
    invalid_arg "Engine.run: inputs length must equal n";
  (* Causal recording: with a labeler, every wire gets a fresh per-run id
     (creation order: a round's honest wires in ascending node order,
     then its injections in application order) and a protocol kind
     label, and targeted sends record their recipient lists. Without
     one, the sentinels keep traces byte-identical to the legacy
     format. *)
  let next_msg_id = ref 0 in
  let fresh_id () =
    match labeler with
    | None -> Trace.no_id
    | Some _ ->
        let id = !next_msg_id in
        incr next_msg_id;
        id
  in
  let kind_of_msg m =
    match labeler with None -> Trace.no_kind | Some f -> f m
  in
  let targets_of dst =
    match (labeler, dst) with
    | None, _ | Some _, All -> []
    | Some _, Only targets -> targets
  in
  (* Resource rows read only GC counters, so they can never perturb the
     execution or its trace. They tile the run: set-up's row (round -1)
     closes as round 0 opens, each round's as the next one opens, and the
     last one after the result arrays are built, so the rows miss only
     the recorder's own first and last samples of [run_env]'s
     allocation. *)
  let res_close ~round =
    match resource with
    | Some r -> Baobs.Resource.round_end r ~round
    | None -> ()
  in
  Option.iter Baobs.Resource.round_begin resource;
  let root = Bacrypto.Rng.create seed in
  let env_rng = Bacrypto.Rng.split_named root "env" in
  let adv_rng = Bacrypto.Rng.split_named root "adversary" in
  let env = proto.make_env ~n env_rng in
  let tracker = Corruption.create ~n ~budget in
  (* Accounting is a fold over the emitted events: every event goes
     through [Metrics.observe], then to the tracer. *)
  let metrics = Metrics.create ~n in
  let observe event =
    Metrics.observe metrics event;
    tracer event
  in
  (* Setup-time (static) corruptions happen before any node runs. *)
  let initial = adversary.setup env ~n ~budget ~rng:adv_rng in
  List.iter
    (fun i ->
      if i < 0 || i >= n then illegal "setup corruption out of range: %d" i;
      if not (Corruption.corrupt_now tracker ~round:(-1) i) then
        illegal "setup corruptions exceed budget";
      observe (Trace.Corrupted { round = -1; node = i }))
    initial;
  let states =
    Array.init n (fun me ->
        let rng = Bacrypto.Rng.split_named root ("node-" ^ string_of_int me) in
        proto.init env ~rng ~n ~me ~input:inputs.(me))
  in
  (* Struct-of-arrays node bookkeeping: flat parallel arrays instead of
     per-node boxes. [halt_rounds_a] holds the halt round with -1 for
     "never" (the public [int option array] is materialized once, at the
     end); membership/privacy flags are single bytes. *)
  let halt_rounds_a = Array.make n (-1) in
  let stepped_b = Bytes.make n '\000' in
  let priv_b = Bytes.make n '\000' in
  let inboxes = Array.make n [] in
  let round = ref 0 in
  let running = ref true in
  (* The active set — so-far-honest, not-yet-halted nodes — as an
     ascending id array (the live prefix [0, n_active)), mirrored by the
     [active_b] membership bytes. Phase 1 iterates over this prefix,
     so per-round stepping is O(active), not O(n).
     Removals (a halt in phase 1, a corruption in phase 2) clear the
     byte; the prefix is compacted once at the end of a round that
     dropped someone, keeping it ascending. *)
  let active_b = Bytes.make n '\000' in
  let active_ids = Array.make (max n 1) 0 in
  let n_active = ref 0 in
  for i = 0 to n - 1 do
    if (not (Corruption.is_corrupt tracker i)) && not (proto.halted states.(i))
    then begin
      Bytes.unsafe_set active_b i '\001';
      active_ids.(!n_active) <- i;
      incr n_active
    end
  done;
  let compact_needed = ref false in
  let deactivate i =
    Bytes.unsafe_set active_b i '\000';
    compact_needed := true
  in
  (* Per-round structures, allocated once and reset by rewinding (the
     wire buffer) or by clearing exactly the slots the previous round
     dirtied (intents, the delivery accumulators) — per-round reset work
     is O(touched), not O(n). [dirty] doubles as the adversary view's
     ascending speaker list. *)
  let wires = { wb_arr = [||]; wb_len = 0 } in
  let intents = Array.make n [] in
  let dirty = Array.make (max n 1) 0 in
  let n_dirty = ref 0 in
  let touched = ref (Array.make (max n 1) 0) in
  let n_touched = ref 0 in
  let prev_touched = ref (Array.make (max n 1) 0) in
  let n_prev_touched = ref 0 in
  let prev_shared = ref [] in
  let acc = Array.make n [] in
  let mark = Array.make n (-1) in
  let audit_on = step_audit <> None in
  let phase1 =
    match sparse with Some hook -> hook | None -> sparse_of_step proto
  in
  (* Sends registered by the phase-1 hook for node [i]. Registering for
     a node outside the active set is refused — the engine's wire pass
     only scans the active prefix, and a silent miss there would be a
     protocol bug; this check is also what the sparse-active qcheck
     invariant leans on. *)
  let emit i sends =
    if i < 0 || i >= n || Bytes.get active_b i <> '\001' then
      invalid_arg "Engine: sparse emit for an inactive node";
    Bytes.unsafe_set stepped_b i '\001';
    intents.(i) <- sends
  in
  let is_shared i = Bytes.get priv_b i = '\000' in
  let inbox i = inboxes.(i) in
  while !running && !round < max_rounds do
    let r = !round in
    res_close ~round:(r - 1);
    observe (Trace.Round_started { round = r });
    (* Phase 1: honest nodes compute intents. *)
    let t_step = Baobs.Probe.start () in
    wires.wb_len <- 0;
    (* Clear only the slots last round's senders dirtied. *)
    for k = 0 to !n_dirty - 1 do
      intents.(Array.unsafe_get dirty k) <- []
    done;
    n_dirty := 0;
    let ids = active_ids in
    phase1 env ~states
      { rv_round = r;
        rv_n = n;
        rv_active = ids;
        rv_n_active = !n_active;
        rv_shared_inbox = !prev_shared;
        rv_is_shared = is_shared;
        rv_inbox = inbox;
        rv_emit = emit };
    (* Halts, in one ascending pass over the active prefix (every node in
       it was un-halted when the round began). A hook may halt nodes it
       never individually stepped (a shared crowd listener deciding
       wholesale), so this is a scan rather than a per-step check. The
       same pass collects the step audit: the nodes that did per-node
       protocol work this round (emissions and halts), ascending — the
       observable the sparse-active invariant tests assert on. *)
    let audited = ref [] in
    for k = 0 to !n_active - 1 do
      let i = Array.unsafe_get ids k in
      let halts = proto.halted states.(i) in
      if halts then begin
        halt_rounds_a.(i) <- r;
        deactivate i;
        observe
          (Trace.Halted { round = r; node = i; output = proto.output states.(i) })
      end;
      if audit_on then begin
        if halts || Bytes.unsafe_get stepped_b i = '\001' then
          audited := i :: !audited;
        Bytes.unsafe_set stepped_b i '\000'
      end
    done;
    (match step_audit with
    | None -> ()
    | Some audit -> audit ~round:r (List.rev !audited));
    (* Wires are buffered in ascending (node, send) order — the same order
       the old cons-list construction produced — in a second pass over the
       active prefix (which still includes this round's halters; the
       prefix is compacted only at the end of the round), after every step
       has run, so [msg_bits] (evaluated once per wire, here) never
       interleaves with protocol steps. Senders are recorded in [dirty],
       ascending, for the adversary's view and next round's O(senders)
       reset. *)
    for k = 0 to !n_active - 1 do
      let i = Array.unsafe_get ids k in
      match intents.(i) with
      | [] -> ()
      | sends ->
          dirty.(!n_dirty) <- i;
          incr n_dirty;
          List.iter
            (fun send ->
              let payload = send.payload in
              wirebuf_push wires
                { w_src = i;
                  w_dst = send.dst;
                  w_payload = payload;
                  w_bits = proto.msg_bits env payload;
                  w_nrecip =
                    (match send.dst with
                    | All -> n
                    | Only targets -> List.length targets);
                  w_cell = (i, payload);
                  w_id = fresh_id ();
                  w_kind = kind_of_msg payload;
                  erased = false })
            sends
    done;
    Baobs.Probe.stop p_step t_step;
    (* Phase 2: adversary intervention. The view shares the engine's
       arrays instead of deep-copying them every round: adversaries only
       read their view (API discipline, kept by review), and the engine
       does not touch [intents]/[dirty]/[inboxes] again until delivery,
       after [intervene] has returned. *)
    let t_adv = Baobs.Probe.start () in
    let view =
      { round = r;
        n;
        env;
        intents;
        speakers = dirty;
        n_speakers = !n_dirty;
        inboxes;
        tracker;
        adv_rng }
    in
    let injections = ref [] in
    (* Positions in [wires] of each victim's intents, built lazily on the
       first removal that targets the victim this round, so a burst of
       removals (Eraser at scale) costs O(wires + removals), not
       O(wires × removals). *)
    let victim_slots = lazy (Array.make n None) in
    let victim_positions victim =
      let slots = Lazy.force victim_slots in
      match slots.(victim) with
      | Some positions -> positions
      | None ->
          let count = ref 0 in
          for p = 0 to wires.wb_len - 1 do
            if (Array.unsafe_get wires.wb_arr p).w_src = victim then incr count
          done;
          let positions = Array.make !count 0 in
          let fill = ref 0 in
          for p = 0 to wires.wb_len - 1 do
            if (Array.unsafe_get wires.wb_arr p).w_src = victim then begin
              positions.(!fill) <- p;
              incr fill
            end
          done;
          slots.(victim) <- Some positions;
          positions
    in
    let apply = function
      | Corrupt i ->
          if i < 0 || i >= n then illegal "corrupt out of range: %d" i;
          if not (Corruption.allows_dynamic_corruption adversary.model) then
            illegal "static adversary cannot corrupt mid-execution";
          if not (Corruption.corrupt_now tracker ~round:r i) then
            illegal "corruption budget exhausted";
          if Bytes.get active_b i = '\001' then deactivate i;
          observe (Trace.Corrupted { round = r; node = i })
      | Remove { victim; index } ->
          if not (Corruption.allows_removal adversary.model) then
            illegal "after-the-fact removal requires a strongly adaptive adversary";
          if not (Corruption.is_corrupt tracker victim) then
            illegal "cannot remove messages of an honest node (corrupt it first)";
          let positions = victim_positions victim in
          if index < 0 || index >= Array.length positions then
            illegal "no intent %d for node %d in round %d" index victim r;
          let w = wires.wb_arr.(positions.(index)) in
          if w.erased then illegal "intent already erased";
          w.erased <- true;
          observe
            (Trace.Removed
               { round = r;
                 victim;
                 multicast = (w.w_dst = All);
                 recipients = w.w_nrecip;
                 bits = w.w_bits;
                 id = w.w_id;
                 kind = w.w_kind;
                 targets = targets_of w.w_dst })
      | Inject { src; dst; payload } ->
          if src < 0 || src >= n then illegal "inject src out of range: %d" src;
          (match dst with
          | All -> ()
          | Only targets ->
              List.iter
                (fun j ->
                  if j < 0 || j >= n then
                    illegal "inject target out of range: %d" j)
                targets);
          if not (Corruption.is_corrupt tracker src) then
            illegal "only corrupt nodes can be driven by the adversary";
          let bits = proto.msg_bits env payload in
          let id = fresh_id () in
          let kind = kind_of_msg payload in
          let nrecip =
            match dst with All -> n | Only targets -> List.length targets
          in
          let injected bits =
            Trace.Injected
              { round = r;
                src;
                recipients = nrecip;
                bits;
                id;
                kind;
                targets = targets_of dst }
          in
          (* The metrics charge the wire's size, but an unlabeled trace
             keeps the legacy format, which records no injection bits. *)
          Metrics.observe metrics (injected bits);
          tracer (injected (match labeler with None -> -1 | Some _ -> bits));
          injections :=
            { w_src = src; w_dst = dst; w_payload = payload; w_bits = bits;
              w_nrecip = nrecip; w_cell = (src, payload);
              w_id = id; w_kind = kind; erased = false }
            :: !injections
    in
    List.iter apply (adversary.intervene view);
    Baobs.Probe.stop p_adversary t_adv;
    (* Phase 3: record and deliver. An erased honest send was already
       charged, per Definition 7, through its [Removed] event; every
       other honest wire gets a [Sent] event, in descending node order
       (the buffer walked backwards), the order traces have always
       had. *)
    let t_deliver = Baobs.Probe.start () in
    for p = wires.wb_len - 1 downto 0 do
      let w = Array.unsafe_get wires.wb_arr p in
      if not w.erased then
        observe
          (Trace.Sent
             { round = r;
               node = w.w_src;
               multicast = (w.w_dst = All);
               recipients = w.w_nrecip;
               bits = w.w_bits;
               id = w.w_id;
               kind = w.w_kind;
               targets = targets_of w.w_dst })
    done;
    (* Delivery with structural sharing. Inbox order is [injections in
       application order] then [honest wires in descending order]; we
       build it back-to-front (honest wires ascending, then the reversed
       injection list), consing each multicast's interned [w_cell] ONCE
       onto a single shared tail instead of once per recipient. A node
       that also receives unicasts keeps a private prefix in [acc];
       [mark] remembers how much of the shared list that prefix has
       already absorbed, and [splice] grafts the multicasts that arrived
       in between. Total allocation is O(wires + unicast deliveries),
       not O(n × wires), and the privately-targeted nodes are recorded
       in [touched] so the accumulators (and next round's privacy flags
       for the sparse path) reset in O(touched). *)
    let shared = ref [] and shared_len = ref 0 in
    let tch = !touched in
    let deliver w =
      if not w.erased then
        match w.w_dst with
        | All ->
            shared := w.w_cell :: !shared;
            incr shared_len
        | Only targets ->
            List.iter
              (fun j ->
                if j >= 0 && j < n then begin
                  let m = mark.(j) in
                  let tail =
                    if m < 0 then begin
                      tch.(!n_touched) <- j;
                      incr n_touched;
                      !shared
                    end
                    else splice !shared (!shared_len - m) acc.(j)
                  in
                  acc.(j) <- w.w_cell :: tail;
                  mark.(j) <- !shared_len
                end)
              targets
    in
    for p = 0 to wires.wb_len - 1 do
      deliver (Array.unsafe_get wires.wb_arr p)
    done;
    List.iter deliver !injections;
    for j = 0 to n - 1 do
      inboxes.(j) <-
        (let m = mark.(j) in
         if m < 0 then !shared else splice !shared (!shared_len - m) acc.(j))
    done;
    (* Privacy flags: last round's are cleared, this round's targeted
       nodes are flagged (their inbox diverges from the shared tail) and
       the accumulators reset — all O(touched). The shared tail itself
       is kept for the sparse hook's next-round crowd absorb. *)
    for k = 0 to !n_prev_touched - 1 do
      Bytes.unsafe_set priv_b (Array.unsafe_get !prev_touched k) '\000'
    done;
    for k = 0 to !n_touched - 1 do
      let j = Array.unsafe_get tch k in
      acc.(j) <- [];
      mark.(j) <- -1;
      Bytes.unsafe_set priv_b j '\001'
    done;
    let swap = !prev_touched in
    prev_touched := tch;
    touched := swap;
    n_prev_touched := !n_touched;
    n_touched := 0;
    prev_shared := !shared;
    Baobs.Probe.stop p_delivery t_deliver;
    incr round;
    (* Compact the active prefix if this round dropped anyone (halts in
       phase 1, corruptions in phase 2), preserving ascending order. *)
    if !compact_needed then begin
      let w = ref 0 in
      for k = 0 to !n_active - 1 do
        let i = Array.unsafe_get active_ids k in
        if Bytes.unsafe_get active_b i = '\001' then begin
          active_ids.(!w) <- i;
          incr w
        end
      done;
      n_active := !w;
      compact_needed := false
    end;
    if !n_active = 0 then running := false
  done;
  let outputs = Array.map proto.output states in
  let corrupt = Array.init n (Corruption.is_corrupt tracker) in
  let halt_rounds =
    Array.init n (fun i ->
        let hr = halt_rounds_a.(i) in
        if hr < 0 then None else Some hr)
  in
  let all_honest_decided =
    let ok = ref true in
    for i = 0 to n - 1 do
      if not corrupt.(i) then
        if not (proto.halted states.(i)) || outputs.(i) = None then ok := false
    done;
    !ok
  in
  res_close ~round:(!round - 1);
  ( env,
    { outputs;
      corrupt;
      corruptions = Corruption.count tracker;
      rounds_used = !round;
      metrics;
      all_honest_decided;
      halt_rounds } )

let run ?tracer ?resource ?labeler ?sparse ?step_audit proto ~adversary ~n
    ~budget ~inputs ~max_rounds ~seed =
  snd
    (run_env ?tracer ?resource ?labeler ?sparse ?step_audit proto ~adversary
       ~n ~budget ~inputs ~max_rounds ~seed)
