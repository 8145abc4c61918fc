open Basim
open Babaselines

let make () =
  { Engine.adv_name = "cm-equivocator";
    model = Corruption.Adaptive;
    caps =
      { Capability.caps =
          [ Capability.Midround_corruption; Capability.Injection ];
        budget_bound = None };
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
                | Bacore.Third.Ack { epoch; bit; cred = cred, _ }
                  when !budget > 0 ->
                    decr budget;
                    actions := Engine.Corrupt node :: !actions;
                    (* The ticket is round-specific: it replays for free.
                       The forgery stands or falls with the slot key. *)
                    let capability =
                      Bacrypto.Forward_secure.corrupt env.Chen_micali.fs
                        ~erasure:env.Chen_micali.erasure node
                    in
                    (match
                       Bacrypto.Forward_secure.adversary_sign
                         env.Chen_micali.fs ~capability ~signer:node
                         ~slot:epoch
                         (Chen_micali.ack_bit_stmt ~epoch ~bit:(not bit))
                     with
                    | Some forged ->
                        actions :=
                          Engine.Inject
                            { src = node;
                              dst = Engine.All;
                              payload =
                                Chen_micali.make_ack ~epoch ~bit:(not bit)
                                  ~cred ~fs_sig:forged }
                          :: !actions
                    | None ->
                        (* Memory-erasure model: the slot key is gone;
                           corrupting the node bought nothing. *)
                        ())
                | Bacore.Third.Ack _ | Bacore.Third.Propose _ -> ())
              intents)
          view.Engine.intents;
        List.rev !actions) }
