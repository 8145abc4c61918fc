open Basim
open Bacore

let make () =
  { Engine.adv_name = "equivocator";
    model = Corruption.Adaptive;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> []);
    intervene =
      (fun view ->
        let env = view.Engine.env in
        let budget = ref (Corruption.budget_left view.Engine.tracker) in
        let actions = ref [] in
        Array.iteri
          (fun node intents ->
            List.iter
              (fun { Engine.payload; _ } ->
                match payload with
                | Third.Ack { epoch; bit; cred } when !budget > 0 ->
                    decr budget;
                    actions := Engine.Corrupt node :: !actions;
                    (* Avenue 1: replay the revealed credential on the
                       opposite bit (works only with bit-agnostic
                       eligibility). *)
                    actions :=
                      Engine.Inject
                        { src = node;
                          dst = Engine.All;
                          payload =
                            Sub_third.make_ack ~epoch ~bit:(not bit) ~cred }
                      :: !actions;
                    (* Avenue 2: legitimate fresh mining with the stolen
                       key — rarely eligible, by design. *)
                    (match
                       env.Sub_third.elig.Bafmine.Eligibility.mine ~node
                         ~msg:
                           (Sub_third.ack_mining_string env.Sub_third.mode
                              ~epoch ~bit:(not bit))
                         ~p:(Sub_third.ack_probability env)
                     with
                    | Some fresh ->
                        actions :=
                          Engine.Inject
                            { src = node;
                              dst = Engine.All;
                              payload =
                                Sub_third.make_ack ~epoch ~bit:(not bit)
                                  ~cred:fresh }
                          :: !actions
                    | None -> ())
                | Third.Ack _ | Third.Propose _ -> ())
              intents)
          view.Engine.intents;
        List.rev !actions) }
