open Basim

type ('env, 'state, 'msg) instance = {
  protocol : ('env, 'state, 'msg) Engine.protocol;
  compiler : ('env, 'msg) Schedule.compiler;
  model : Corruption.model;
  n : int;
  budget : int;
  inputs : bool array;
  max_rounds : int;
  exec_seed : int64;
}

type outcome = {
  verdict : Properties.verdict;
  lint : Trace_lint.finding list;
  rounds_used : int;
  corruptions : int;
}

let run_schedule inst sched =
  let adversary = Schedule.to_adversary ~compiler:inst.compiler sched in
  let collector = Trace.collector () in
  let result =
    Engine.run ~tracer:(Trace.observe collector) inst.protocol ~adversary
      ~n:inst.n ~budget:inst.budget ~inputs:inst.inputs
      ~max_rounds:inst.max_rounds ~seed:inst.exec_seed
  in
  { verdict = Properties.agreement ~inputs:inst.inputs result;
    lint =
      Trace_lint.verify ~metrics:result.Engine.metrics
        ~model:sched.Schedule.model ~budget:inst.budget
        (Trace.events collector);
    rounds_used = result.Engine.rounds_used;
    corruptions = result.Engine.corruptions }

type violation = Consistency | Validity | Termination | Trace_invariant

let violation_name = function
  | Consistency -> "consistency"
  | Validity -> "validity"
  | Termination -> "termination"
  | Trace_invariant -> "trace-invariant"

let violations_of o =
  (if o.verdict.Properties.consistent then [] else [ Consistency ])
  @ (if o.verdict.Properties.valid then [] else [ Validity ])
  @ (if o.verdict.Properties.terminated then [] else [ Termination ])
  @ if o.lint = [] then [] else [ Trace_invariant ]

let violates o = violations_of o <> []

(* {2 Minimization}

   Greedy delta-debugging: flatten the schedule into atomic items (one
   setup corruption or one (round, action) pair each), repeatedly try
   dropping a single item, keep any drop that preserves "the schedule
   still violates some property", restart until no single drop
   survives. Deterministic, and O(k^2) schedule executions for a k-item
   schedule — tiny for the bounded schedules search produces. *)

type mini_item = I_setup of int | I_step of int * Schedule.action

let flatten (s : Schedule.t) =
  List.map (fun i -> I_setup i) s.setup
  @ List.concat_map
      (fun (r, acts) -> List.map (fun a -> I_step (r, a)) acts)
      s.steps

let rebuild ~name ~model items =
  let setup =
    List.filter_map
      (function I_setup i -> Some i | I_step _ -> None)
      items
  in
  let steps =
    List.fold_right
      (fun it acc ->
        match it with
        | I_setup _ -> acc
        | I_step (r, a) -> (
            match acc with
            | (r', acts) :: tl when r' = r -> (r, a :: acts) :: tl
            | [] | _ :: _ -> (r, [ a ]) :: acc))
      items []
  in
  { Schedule.name; model; setup; steps }

let minimize inst (sched : Schedule.t) =
  let viol s = violates (run_schedule inst s) in
  if not (viol sched) then sched
  else begin
    let current = ref (flatten sched) in
    let progress = ref true in
    while !progress do
      progress := false;
      let k = List.length !current in
      let i = ref 0 in
      while (not !progress) && !i < k do
        let without = List.filteri (fun j _ -> j <> !i) !current in
        let candidate =
          rebuild ~name:sched.Schedule.name ~model:sched.Schedule.model without
        in
        if viol candidate then begin
          current := without;
          progress := true
        end;
        incr i
      done
    done;
    rebuild ~name:sched.Schedule.name ~model:sched.Schedule.model !current
  end

(* {2 Findings} *)

type finding = {
  schedule : Schedule.t;
  minimized : Schedule.t;
  violations : violation list;
  verdict : Properties.verdict;
  lint : Trace_lint.finding list;
}

type stats = { explored : int; violating : int; node_cap_hit : bool }

let finding_of inst ~shrink sched =
  let minimized = if shrink then minimize inst sched else sched in
  let o = run_schedule inst minimized in
  { schedule = sched;
    minimized;
    violations = violations_of o;
    verdict = o.verdict;
    lint = o.lint }

let verdict_to_json (v : Properties.verdict) =
  Baobs.Json.Obj
    [ ("consistent", Baobs.Json.Bool v.Properties.consistent);
      ("valid", Baobs.Json.Bool v.Properties.valid);
      ("terminated", Baobs.Json.Bool v.Properties.terminated) ]

let finding_to_json f =
  Baobs.Json.Obj
    [ ( "violations",
        Baobs.Json.List
          (List.map
             (fun v -> Baobs.Json.String (violation_name v))
             f.violations) );
      ("verdict", verdict_to_json f.verdict);
      ("schedule", Schedule.to_json f.schedule);
      ("minimized", Schedule.to_json f.minimized);
      ("trace_lint", Trace_lint.findings_to_json f.lint) ]

let stats_to_json s =
  Baobs.Json.Obj
    [ ("explored", Baobs.Json.Int s.explored);
      ("violating", Baobs.Json.Int s.violating);
      ("node_cap_hit", Baobs.Json.Bool s.node_cap_hit) ]

let to_report_items findings =
  List.map
    (fun f ->
      let label =
        match f.violations with
        | [] -> "none"
        | vs -> String.concat "+" (List.map violation_name vs)
      in
      { Report.label;
        detail =
          Format.asprintf "%s violated by %a (%d action(s))" label Schedule.pp
            f.minimized
            (Schedule.action_count f.minimized);
        data = finding_to_json f })
    findings

(* {2 Search space} *)

type space = {
  max_round : int;
  max_actions : int;
  actions_per_round : int;
  dsts : Schedule.dst list;
  remove_indices : int list;
  allow_setup : bool;
}

let default_space ~max_round =
  { max_round;
    max_actions = 4;
    actions_per_round = 4;
    dsts = [ Schedule.Everyone ];
    remove_indices = [ 0 ];
    allow_setup = false }

(* {2 Exhaustive DFS}

   Schedules are enumerated in a canonical form that quotients away
   order symmetries without losing adversary behaviours:

   - within a round, actions appear in strictly increasing rank —
     corruptions (by node), then removals (by victim, index), then
     injections (by src, kind, bit, dst). Reordering actions within a
     round never changes semantics beyond legality, and corruptions
     first maximizes legality, so one order per set suffices — and
     strict monotonicity also drops duplicate actions, which are no-ops;
   - only feasible actions are generated: corrupting an already-corrupt
     node or past the budget, removing from a node not corrupted this
     round, and injecting from an honest node are all skipped by the
     interpreter, so schedules containing them are equivalent to
     schedules already enumerated without them;
   - [Halt] is never generated: a schedule with a [Halt] is equivalent
     to the truncated schedule, which is enumerated on its own;
   - rounds with no actions are never represented, and a violating
     schedule is not extended further (its extensions would rediscover
     the same violation).

   Every node of the tree IS a schedule and is executed when first
   reached, so search order is by construction deterministic: same
   instance, same space, same seed, same findings. *)

let dfs ~space ?(stop_at_first = true) ?(max_nodes = 200_000)
    ?(shrink = true) inst =
  let kinds = Array.of_list inst.compiler.Schedule.kinds in
  let dsts = Array.of_list space.dsts in
  let nkinds = Array.length kinds in
  let ndsts = Array.length dsts in
  let explored = ref 0 in
  let violating = ref 0 in
  let cap_hit = ref false in
  let findings = ref [] in
  let budget_cap = min inst.budget inst.n in
  let exception Stop in
  (* State-independent canonical rank; classes are spaced far apart so
     component encodings never collide across classes. *)
  let rank_of = function
    | Schedule.Corrupt i -> i
    | Schedule.Remove { victim; index } ->
        (1 lsl 20) + (victim * 1024) + index
    | Schedule.Inject { src; kind; bit; dst } ->
        let kidx =
          let rec find i =
            if i >= nkinds then 0 else if kinds.(i) = kind then i else find (i + 1)
          in
          find 0
        in
        let didx =
          let rec find i =
            if i >= ndsts then 0
            else if dsts.(i) = dst then i
            else find (i + 1)
          in
          find 0
        in
        (2 lsl 20)
        + (((((src * nkinds) + kidx) * 2) + if bit then 1 else 0) * ndsts)
        + didx
    | Schedule.Halt -> 3 lsl 20
  in
  (* All feasible actions for [round], in canonical (ascending-rank)
     order. [corrupt] is everyone corrupted so far (ascending);
     [this_round] is the subset corrupted in this very round. *)
  let candidates ~round ~corrupt ~this_round ~used =
    let acc = ref [] in
    let add a = acc := a :: !acc in
    if
      used < budget_cap
      && (round < 0 || Corruption.allows_dynamic_corruption inst.model)
    then
      for i = 0 to inst.n - 1 do
        if not (List.mem i corrupt) then add (Schedule.Corrupt i)
      done;
    if round >= 0 && Corruption.allows_removal inst.model then
      List.iter
        (fun victim ->
          List.iter
            (fun index -> add (Schedule.Remove { victim; index }))
            space.remove_indices)
        this_round;
    if round >= 0 then
      List.iter
        (fun src ->
          Array.iter
            (fun kind ->
              List.iter
                (fun bit ->
                  Array.iter
                    (fun dst -> add (Schedule.Inject { src; kind; bit; dst }))
                    dsts)
                [ false; true ])
            kinds)
        corrupt;
    List.rev !acc
  in
  let corrupts_in acts =
    List.filter_map
      (function
        | Schedule.Corrupt i -> Some i
        | Schedule.Remove _ | Schedule.Inject _ | Schedule.Halt -> None)
      acts
  in
  (* [steps_rev]: rounds in reverse order, each with actions in forward
     order. [corrupt]: ascending. *)
  let rec explore ~setup ~steps_rev ~corrupt ~used ~total =
    if !explored >= max_nodes then begin
      cap_hit := true;
      raise Stop
    end;
    incr explored;
    let sched =
      { Schedule.name = Printf.sprintf "dfs-%d" !explored;
        model = inst.model;
        setup;
        steps = List.rev steps_rev }
    in
    let o = run_schedule inst sched in
    if violates o then begin
      incr violating;
      findings := finding_of inst ~shrink sched :: !findings;
      if stop_at_first then raise Stop
      (* pruning: extensions of a violating schedule are not explored *)
    end
    else if total < space.max_actions then begin
      (* Extend the setup set (canonical: ascending, and only before any
         mid-round step exists). *)
      if space.allow_setup && steps_rev = [] && used < budget_cap then begin
        let last = match List.rev setup with [] -> -1 | i :: _ -> i in
        for i = last + 1 to inst.n - 1 do
          explore ~setup:(setup @ [ i ])
            ~steps_rev:[]
            ~corrupt:(List.sort Int.compare (i :: corrupt))
            ~used:(used + 1) ~total:(total + 1)
        done
      end;
      (* Extend the current round (strictly increasing rank). *)
      (match steps_rev with
      | (r, acts) :: tl when List.length acts < space.actions_per_round ->
          let last_rank =
            match List.rev acts with [] -> -1 | a :: _ -> rank_of a
          in
          let this_round = corrupts_in acts in
          List.iter
            (fun a ->
              if rank_of a > last_rank then begin
                let corrupt', used' =
                  match a with
                  | Schedule.Corrupt i ->
                      (List.sort Int.compare (i :: corrupt), used + 1)
                  | Schedule.Remove _ | Schedule.Inject _ | Schedule.Halt ->
                      (corrupt, used)
                in
                explore ~setup
                  ~steps_rev:((r, acts @ [ a ]) :: tl)
                  ~corrupt:corrupt' ~used:used' ~total:(total + 1)
              end)
            (candidates ~round:r ~corrupt ~this_round ~used)
      | (_, _) :: _ | [] -> ());
      (* Open a later round. *)
      let first_round =
        match steps_rev with (r, _) :: _ -> r + 1 | [] -> 0
      in
      for r = first_round to space.max_round do
        List.iter
          (fun a ->
            let corrupt', used' =
              match a with
              | Schedule.Corrupt i ->
                  (List.sort Int.compare (i :: corrupt), used + 1)
              | Schedule.Remove _ | Schedule.Inject _ | Schedule.Halt ->
                  (corrupt, used)
            in
            explore ~setup
              ~steps_rev:((r, [ a ]) :: steps_rev)
              ~corrupt:corrupt' ~used:used' ~total:(total + 1))
          (candidates ~round:r ~corrupt ~this_round:[] ~used)
      done
    end
  in
  (try explore ~setup:[] ~steps_rev:[] ~corrupt:[] ~used:0 ~total:0
   with Stop -> ());
  ( List.rev !findings,
    { explored = !explored; violating = !violating; node_cap_hit = !cap_hit }
  )

(* {2 Budgeted random search}

   Uniform schedules over the same vocabulary, relying on the
   interpreter's skip semantics for legality. Deterministic in [seed]
   (a dedicated SplitMix64 stream; the engine seed stays [exec_seed]). *)

let random_search ~space ?(samples = 1_000) ?(stop_at_first = true)
    ?(shrink = true) ~seed inst =
  let rng = Bacrypto.Rng.create seed in
  let kinds = Array.of_list inst.compiler.Schedule.kinds in
  let dsts = Array.of_list space.dsts in
  let remove_indices = Array.of_list space.remove_indices in
  let explored = ref 0 in
  let violating = ref 0 in
  let findings = ref [] in
  let budget_cap = min inst.budget inst.n in
  (* Only draw action classes the corruption model permits: the
     interpreter would skip e.g. every [Remove] under a model without
     removal, so such a draw is wasted. *)
  let gen_corrupt () = Schedule.Corrupt (Bacrypto.Rng.int rng inst.n) in
  let gen_remove () =
    Schedule.Remove
      { victim = Bacrypto.Rng.int rng inst.n;
        index = Bacrypto.Rng.choose rng remove_indices }
  in
  let gen_inject () =
    Schedule.Inject
      { src = Bacrypto.Rng.int rng inst.n;
        kind = Bacrypto.Rng.choose rng kinds;
        bit = Bacrypto.Rng.bool rng;
        dst = Bacrypto.Rng.choose rng dsts }
  in
  let gen_halt () = Schedule.Halt in
  let action_gens =
    Array.of_list
      (List.concat
         [ (if Corruption.allows_dynamic_corruption inst.model then
              [ gen_corrupt ]
            else []);
           (if Corruption.allows_removal inst.model then [ gen_remove ]
            else []);
           [ gen_inject; gen_halt ] ])
  in
  let random_action () = (Bacrypto.Rng.choose rng action_gens) () in
  let random_schedule i =
    let setup =
      if space.allow_setup && budget_cap > 0 then
        Bacrypto.Rng.sample_without_replacement rng
          (Bacrypto.Rng.int rng (budget_cap + 1))
          inst.n
      else []
    in
    let total = 1 + Bacrypto.Rng.int rng space.max_actions in
    let acts =
      List.init total (fun _ ->
          (Bacrypto.Rng.int rng (space.max_round + 1), random_action ()))
    in
    let sorted =
      List.stable_sort (fun (r1, _) (r2, _) -> Int.compare r1 r2) acts
    in
    let steps =
      List.fold_right
        (fun (r, a) acc ->
          match acc with
          | (r', acts') :: tl when r' = r -> (r, a :: acts') :: tl
          | [] | _ :: _ -> (r, [ a ]) :: acc)
        sorted []
    in
    { Schedule.name = Printf.sprintf "random-%d" i;
      model = inst.model;
      setup;
      steps }
  in
  (try
     for i = 1 to samples do
       let sched = random_schedule i in
       incr explored;
       let o = run_schedule inst sched in
       if violates o then begin
         incr violating;
         findings := finding_of inst ~shrink sched :: !findings;
         if stop_at_first then raise Exit
       end
     done
   with Exit -> ());
  ( List.rev !findings,
    { explored = !explored; violating = !violating; node_cap_hit = false } )
