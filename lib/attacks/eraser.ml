open Basim

(* Every node that sends this round, ascending, with its send count. *)
let speakers view =
  List.init view.Engine.n_speakers (fun k ->
      let node = view.Engine.speakers.(k) in
      (node, List.length view.Engine.intents.(node)))

let make () =
  { Engine.adv_name = "eraser";
    model = Corruption.Strongly_adaptive;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
    intervene =
      (fun view ->
        let budget = ref (Corruption.budget_left view.Engine.tracker) in
        List.concat_map
          (fun (node, count) ->
            if !budget > 0 then begin
              decr budget;
              Engine.Corrupt node
              :: List.init count (fun index ->
                     Engine.Remove { victim = node; index })
            end
            else [])
          (speakers view)) }

let silencer () =
  { Engine.adv_name = "silencer";
    model = Corruption.Adaptive;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
    intervene =
      (fun view ->
        let budget = ref (Corruption.budget_left view.Engine.tracker) in
        List.filter_map
          (fun (node, _) ->
            if !budget > 0 then begin
              decr budget;
              Some (Engine.Corrupt node)
            end
            else None)
          (speakers view)) }
