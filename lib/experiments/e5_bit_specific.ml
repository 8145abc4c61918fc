open Basim
open Bacore

type row = {
  conflict_trials : int;
  mean_conflicts : float;
  inconsistent : int;
  trials : int;
}

let attack_run ~mode ~inputs_of ~n ~budget ~reps ~seed =
  let params = Params.make ~lambda:20 ~max_epochs:5 () in
  let proto = Sub_third.protocol ~params ~world:`Hybrid ~mode in
  let outcomes =
    List.init reps (fun k ->
        let s = Common.seed_of seed k in
        let inputs = inputs_of s in
        let env, result =
          Engine.run_env ~sparse:(Sub_third.sparse_step ()) proto
            ~adversary:(Baattacks.Equivocator.make ())
            ~n ~budget ~inputs ~max_rounds:14 ~seed:s
        in
        (env.Sub_third.conflicts, Properties.agreement ~inputs result))
  in
  { conflict_trials = List.length (List.filter (fun (c, _) -> c > 0) outcomes);
    mean_conflicts =
      List.fold_left (fun acc (c, _) -> acc +. float_of_int c) 0.0 outcomes
      /. float_of_int reps;
    inconsistent =
      List.length
        (List.filter (fun (_, v) -> not v.Properties.consistent) outcomes);
    trials = reps }

let run ?(reps = 10) ?(seed = 106L) () =
  let table =
    Bastats.Table.create
      ~title:
        "E5 (§3.3 Remark): the equivocator vs bit-specific and bit-agnostic \
         eligibility (n = 360, λ = 20, 5 epochs)"
      ~columns:
        [ "eligibility"; "inputs"; "trials w/ ample-ACKs-both-bits";
          "mean conflict events"; "inconsistent outputs" ]
  in
  let add label mode inputs_label inputs_of =
    let r = attack_run ~mode ~inputs_of ~n:360 ~budget:110 ~reps ~seed in
    Bastats.Table.add_row table
      [ label;
        inputs_label;
        Common.rate r.conflict_trials r.trials;
        Bastats.Table.fmt_float r.mean_conflicts;
        Common.rate r.inconsistent r.trials ]
  in
  add "bit-agnostic (broken)" Sub_third.Bit_agnostic "unanimous" (fun _ ->
      Scenario.unanimous_inputs ~n:360 true);
  add "bit-specific (paper)" Sub_third.Bit_specific "unanimous" (fun _ ->
      Scenario.unanimous_inputs ~n:360 true);
  add "bit-agnostic (broken)" Sub_third.Bit_agnostic "split" (fun _ ->
      Scenario.split_inputs ~n:360);
  add "bit-specific (paper)" Sub_third.Bit_specific "split" (fun _ ->
      Scenario.split_inputs ~n:360);
  Bastats.Table.add_note table
    "the identical adversary: with bit-agnostic tickets the revealed \
     credential replays onto the opposite bit and every committee is \
     mirrored; with bit-specific tickets the replay fails (the paper's \
     key insight, §3.2), so ample ACKs for both bits need the other bit's \
     own committee to reach the quorum: rare, but not impossible at \
     f/n = 0.306 and λ = 20.";
  [ table ]
