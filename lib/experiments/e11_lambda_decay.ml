open Basim
open Bacore

let n = 200

let budget = 80 (* f/n = 0.4: inside the tolerated region, ε = 0.1 *)

let run ?(reps = 20) ?(seed = 113L) () =
  let table =
    Bastats.Table.create
      ~title:
        (Printf.sprintf
           "E11: safety-failure decay in λ (sub-hm, n = %d, f = %d, \
            double-voting adversary)"
           n budget)
      ~columns:
        [ "λ"; "quorum λ/2"; "safety fail"; "non-term";
          "Chernoff envelope exp(-δ²μ/3)" ]
  in
  List.iter
    (fun lambda ->
      let params = Params.make ~lambda ~max_epochs:40 () in
      let proto = Sub_hm.protocol ~params ~world:`Hybrid in
      let rates =
        Common.measure ~reps ~seed (fun s ->
            let inputs = Scenario.unanimous_inputs ~n true in
            let result =
              Engine.run ~sparse:(Sub_hm.sparse_step ()) proto
                ~adversary:(Baattacks.Split_vote.sub_hm ())
                ~n ~budget ~inputs ~max_rounds:170 ~seed:s
            in
            (result, Properties.agreement ~inputs result))
      in
      let safety = max rates.Common.consistency_fail rates.Common.validity_fail in
      (* The dominant bad event: the corrupt coalition's lone vote
         committee, mean μ = f·λ/n = 0.4λ, reaching the λ/2 quorum — an
         upper-tail deviation of δ = 0.25; the displayed envelope is
         exp(-δ²μ/3). *)
      let bound = exp (-.(0.25 *. 0.25) *. (0.4 *. float_of_int lambda) /. 3.0) in
      Bastats.Table.add_row table
        [ string_of_int lambda;
          string_of_int (Params.hm_quorum params);
          Common.rate safety rates.Common.trials;
          Common.rate rates.Common.termination_fail rates.Common.trials;
          Printf.sprintf "%.3f" bound ])
    [ 10; 20; 30; 40; 60; 80 ];
  Bastats.Table.add_note table
    "the failure rate decays geometrically as λ grows at fixed corruption \
     0.4n — the executable meaning of the paper's exp(-Ω(ε²λ)) error terms \
     (Lemmas 10-15) and of choosing λ = ω(log κ).";
  [ table ]
