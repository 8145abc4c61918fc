open Basim
open Bacore

let passive () = Engine.passive ~name:"passive" ~model:Corruption.Adaptive

let run ?(reps = 30) ?(seed = 108L) () =
  let n = 601 and lambda = 40 in
  let params = Params.make ~lambda ~max_epochs:60 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let committee_sizes = ref [] in
  let good_iters = ref 0 and seen_iters = ref 0 in
  let cascade_spreads = ref [] in
  for k = 0 to reps - 1 do
    let s = Common.seed_of seed k in
    let inputs = Scenario.random_inputs ~n s in
    let env, result =
      Engine.run_env ~sparse:(Sub_hm.sparse_step ()) proto
        ~adversary:(passive ()) ~n ~budget:0 ~inputs ~max_rounds:250 ~seed:s
    in
    (match env.Sub_hm.fmine with
    | None -> ()
    | Some fmine ->
        (* Lemma 11: the iteration-1 Vote lottery is a clean Binomial(n, λ/n)
           sample — every node makes exactly one attempt, for its input bit. *)
        let c1 =
          Bafmine.Fmine.successes_for fmine ~prefix:"shm:Vote:1:0"
          + Bafmine.Fmine.successes_for fmine ~prefix:"shm:Vote:1:1"
        in
        committee_sizes := float_of_int c1 :: !committee_sizes;
        (* Lemma 12: iterations whose Propose lottery had exactly one
           winner (counting corrupt attempts too — none here), out of the
           iterations whose Propose round ran: a run that ends on
           iteration i's Status round never draws i's proposers. *)
        let max_iter =
          match Hm.phase_of_round (max 0 (result.Engine.rounds_used - 1)) with
          | Hm.Phase_status i -> i - 1
          | Hm.Phase_propose i | Hm.Phase_vote i | Hm.Phase_commit i -> i
        in
        for iter = 2 to max_iter do
          let winners =
            Bafmine.Fmine.successes_for fmine
              ~prefix:(Printf.sprintf "shm:Propose:%d:" iter)
          in
          incr seen_iters;
          if winners = 1 then incr good_iters
        done);
    (* Lemma 10: spread of honest halt rounds. *)
    let halts =
      Array.to_list result.Engine.halt_rounds
      |> List.filteri (fun i _ -> not result.Engine.corrupt.(i))
      |> List.filter_map (fun h -> h)
    in
    match halts with
    | [] -> ()
    | h :: t ->
        let lo = List.fold_left min h t and hi = List.fold_left max h t in
        cascade_spreads := float_of_int (hi - lo) :: !cascade_spreads
  done;
  let sizes = Bastats.Summary.of_list !committee_sizes in
  let lo, hi =
    Bastats.Chernoff.committee_size_band ~lambda:(float_of_int lambda)
      ~confidence:0.999
  in
  let outside =
    List.length
      (List.filter (fun c -> c < lo || c > hi) !committee_sizes)
  in
  let table =
    Bastats.Table.create
      ~title:
        (Printf.sprintf
           "E7 (Lemmas 10-12): stochastic guarantees, n = %d, λ = %d, %d runs"
           n lambda reps)
      ~columns:[ "quantity"; "measured"; "paper bound" ]
  in
  Bastats.Table.add_row table
    [ "committee size mean (L11)";
      Bastats.Table.fmt_float sizes.Bastats.Summary.mean;
      Printf.sprintf "λ = %d" lambda ];
  Bastats.Table.add_row table
    [ "committee size min..max (L11)";
      Printf.sprintf "%.0f..%.0f" sizes.Bastats.Summary.min
        sizes.Bastats.Summary.max;
      Printf.sprintf "99.9%% Chernoff band %.1f..%.1f" lo hi ];
  Bastats.Table.add_row table
    [ "committees outside band (L11)";
      Common.rate outside (List.length !committee_sizes);
      "≈ 0.1%" ];
  let good_rate =
    if !seen_iters = 0 then 0.0
    else float_of_int !good_iters /. float_of_int !seen_iters
  in
  Bastats.Table.add_row table
    [ "unique-proposer iteration rate (L12)";
      Printf.sprintf "%s (%d/%d)" (Common.pct good_rate) !good_iters !seen_iters;
      "> 1/(2e) ≈ 18.4%" ];
  let spreads = Bastats.Summary.of_list !cascade_spreads in
  Bastats.Table.add_row table
    [ "halt-round spread mean/max (L10)";
      Printf.sprintf "%.1f / %.0f" spreads.Bastats.Summary.mean
        spreads.Bastats.Summary.max;
      "O(1) rounds once εn/2 honest nodes terminate" ];
  [ table ]
