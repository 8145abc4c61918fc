open Basim
open Bacore

let run ?(reps = 10) ?(seed = 109L) () =
  let n = 200 and committee = 12 and budget = 24 in
  let table =
    Bastats.Table.create
      ~title:
        (Printf.sprintf
           "E8 (§1): adaptive takeover of a public committee (n = %d, \
            committee = %d, budget = %d)"
           n committee budget)
      ~columns:
        [ "protocol"; "validity fail"; "consistency fail"; "corruptions used" ]
  in
  let static =
    Common.measure ~reps ~seed (fun s ->
        let proto = Babaselines.Static_committee.protocol ~committee_size:committee in
        let inputs = Scenario.unanimous_inputs ~n false in
        let result =
          Engine.run proto
            ~adversary:(Baattacks.Takeover.make ~force:true ())
            ~n ~budget ~inputs ~max_rounds:6 ~seed:s
        in
        (result, Properties.agreement ~inputs result))
  in
  Bastats.Table.add_row table
    [ "static-committee + takeover";
      Common.rate static.Common.validity_fail static.Common.trials;
      Common.rate static.Common.consistency_fail static.Common.trials;
      Bastats.Table.fmt_float (Common.mean_corruptions static) ];
  let shm =
    Common.measure ~reps ~seed (fun s ->
        let params = Params.make ~lambda:30 ~max_epochs:40 () in
        let proto = Sub_hm.protocol ~params ~world:`Hybrid in
        let inputs = Scenario.unanimous_inputs ~n false in
        let result =
          Engine.run ~sparse:(Sub_hm.sparse_step ()) proto
            ~adversary:(Baattacks.Split_vote.sub_hm ())
            ~n ~budget ~inputs ~max_rounds:170 ~seed:s
        in
        (result, Properties.agreement ~inputs result))
  in
  Bastats.Table.add_row table
    [ "sub-hm + same budget";
      Common.rate shm.Common.validity_fail shm.Common.trials;
      Common.rate shm.Common.consistency_fail shm.Common.trials;
      Bastats.Table.fmt_float (Common.mean_corruptions shm) ];
  Bastats.Table.add_note table
    "the takeover reads the public CRS committee and corrupts it before its \
     Result round; sub-hm's committees are secret until they speak and \
     bit-specific afterwards, so the same budget is useless.";
  [ table ]
