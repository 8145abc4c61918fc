open Basim
open Bacore

let n = 360

let budget = 110

let params () = Params.make ~lambda:20 ~max_epochs:5 ()

type row = { conflict_trials : int; inconsistent : int; trials : int }

let cm_run ~erasure ~reps ~seed =
  let proto = Babaselines.Chen_micali.protocol ~params:(params ()) ~erasure in
  let outcomes =
    List.init reps (fun k ->
        let s = Common.seed_of seed k in
        let inputs = Scenario.split_inputs ~n in
        let env, result =
          Engine.run_env ~sparse:(Babaselines.Chen_micali.sparse_step ())
            proto ~adversary:(Baattacks.Cm_equivocator.make ())
            ~n ~budget ~inputs ~max_rounds:14 ~seed:s
        in
        ( env.Babaselines.Chen_micali.conflicts,
          Properties.agreement ~inputs result ))
  in
  { conflict_trials = List.length (List.filter (fun (c, _) -> c > 0) outcomes);
    inconsistent =
      List.length
        (List.filter (fun (_, v) -> not v.Properties.consistent) outcomes);
    trials = reps }

let bit_specific_run ~reps ~seed =
  let proto =
    Sub_third.protocol ~params:(params ()) ~world:`Hybrid
      ~mode:Sub_third.Bit_specific
  in
  let outcomes =
    List.init reps (fun k ->
        let s = Common.seed_of seed k in
        let inputs = Scenario.split_inputs ~n in
        let env, result =
          Engine.run_env ~sparse:(Sub_third.sparse_step ()) proto
            ~adversary:(Baattacks.Equivocator.make ())
            ~n ~budget ~inputs ~max_rounds:14 ~seed:s
        in
        (env.Sub_third.conflicts, Properties.agreement ~inputs result))
  in
  { conflict_trials = List.length (List.filter (fun (c, _) -> c > 0) outcomes);
    inconsistent =
      List.length
        (List.filter (fun (_, v) -> not v.Properties.consistent) outcomes);
    trials = reps }

let run ?(reps = 10) ?(seed = 111L) () =
  let table =
    Bastats.Table.create
      ~title:
        (Printf.sprintf
           "E5b (§3.2): what assumption protects the vote? (n = %d, λ = 20, \
            split inputs, equivocating adversary)"
           n)
      ~columns:
        [ "design"; "assumption"; "ample-both-bits trials"; "inconsistent \
           outputs" ]
  in
  let add label assumption r =
    Bastats.Table.add_row table
      [ label;
        assumption;
        Common.rate r.conflict_trials r.trials;
        Common.rate r.inconsistent r.trials ]
  in
  add "Chen-Micali (ephemeral keys)" "memory erasure"
    (cm_run ~erasure:true ~reps ~seed);
  add "Chen-Micali, erasure disabled" "(assumption dropped)"
    (cm_run ~erasure:false ~reps ~seed);
  add "bit-specific eligibility (paper)" "none" (bit_specific_run ~reps ~seed);
  Bastats.Table.add_note table
    "all three face the same corrupt-the-ACKer-and-mirror attack: \
     Chen-Micali survives only while nodes can erase ephemeral keys before \
     the adversary arrives; the paper's bit-specific tickets need no such \
     model assumption — that is Theorem 2's 'minimal assumptions' claim.";
  [ table ]
