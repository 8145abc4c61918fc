open Basim
open Babaselines

let predecessors ~n ~d victim =
  List.init d (fun k -> (victim - 1 - k + n) mod n)

let make ~victim () =
  let corrupt_set = ref [] in
  let forwarded : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  { Engine.adv_name = "dolev-reischuk-isolate";
    model = Corruption.Static;
    setup =
      (fun env ~n:_ ~budget ~rng:_ ->
        (* Corrupt the victim's d ring predecessors — the only nodes that
           ever address it — as far as the budget allows. *)
        let n = env.Sparse_relay.n and d = env.Sparse_relay.d in
        let preds = predecessors ~n ~d victim in
        let take = min budget (List.length preds) in
        corrupt_set := List.filteri (fun i _ -> i < take) preds;
        !corrupt_set);
    intervene =
      (fun view ->
        let env = view.Engine.env in
        let n = env.Sparse_relay.n and d = env.Sparse_relay.d in
        (* Simulate each corrupted predecessor honestly, minus the victim:
           once it has received the bit and not yet forwarded, send to all
           its successors except the victim. *)
        let actions = ref [] in
        List.iter
          (fun c ->
            if not (Hashtbl.mem forwarded c) then
              match
                List.find_map
                  (fun (_src, m) ->
                    match m with Sparse_relay.Payload b -> Some b)
                  view.Engine.inboxes.(c)
              with
              | Some bit ->
                  Hashtbl.replace forwarded c ();
                  let targets =
                    List.filter
                      (fun j -> j <> victim)
                      (Sparse_relay.successors ~n ~d c)
                  in
                  if targets <> [] then
                    actions :=
                      Engine.Inject
                        { src = c;
                          dst = Engine.Only targets;
                          payload = Sparse_relay.Payload bit }
                      :: !actions
              | None -> ())
          !corrupt_set;
        List.rev !actions) }
