open Basim
open Babaselines

let make ~force () =
  let taken = ref [] in
  { Engine.adv_name = "committee-takeover";
    model = Corruption.Adaptive;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
    intervene =
      (fun view ->
        let env = view.Engine.env in
        match view.Engine.round with
        | 0 ->
            (* The committee is public: grab as much of it as the budget
               allows, before its Result round. *)
            let budget = ref (Corruption.budget_left view.Engine.tracker) in
            taken :=
              List.filter
                (fun _c ->
                  if !budget > 0 then begin
                    decr budget;
                    true
                  end
                  else false)
                env.Static_committee.committee;
            List.map (fun c -> Engine.Corrupt c) !taken
        | 1 ->
            List.map
              (fun c ->
                Engine.Inject
                  { src = c;
                    dst = Engine.All;
                    payload =
                      Static_committee.sign_result env ~signer:c ~bit:force })
              !taken
        | _ -> []) }
