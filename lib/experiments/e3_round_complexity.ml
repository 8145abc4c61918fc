open Basim
open Bacore

let passive () = Engine.passive ~name:"passive" ~model:Corruption.Adaptive

(* [crowd], when given, makes each trial's crowd hook. *)
let round_samples ?crowd proto ~n ~reps ~seed ~max_rounds =
  List.init reps (fun k ->
      let s = Common.seed_of seed k in
      let inputs = Scenario.random_inputs ~n s in
      let result =
        Engine.run ?sparse:(Option.map (fun make -> make ()) crowd) proto
          ~adversary:(passive ()) ~n ~budget:0 ~inputs ~max_rounds ~seed:s
      in
      result.Engine.rounds_used)

let round_stats ?crowd proto ~n ~reps ~seed ~max_rounds =
  Bastats.Summary.of_ints
    (round_samples ?crowd proto ~n ~reps ~seed ~max_rounds)

let run ?(reps = 20) ?(seed = 104L) () =
  let table =
    Bastats.Table.create
      ~title:
        "E3 (Cor. 16): expected-constant rounds vs Nakamoto confirmation depth"
      ~columns:[ "protocol"; "config"; "mean rounds"; "p95"; "max" ]
  in
  let add label config summary =
    Bastats.Table.add_row table
      [ label;
        config;
        Bastats.Table.fmt_float summary.Bastats.Summary.mean;
        Bastats.Table.fmt_float summary.Bastats.Summary.p95;
        Bastats.Table.fmt_float summary.Bastats.Summary.max ]
  in
  let params = Params.make ~lambda:40 ~max_epochs:60 () in
  add "sub-hm" "n=201, λ=40"
    (round_stats ~crowd:Sub_hm.sparse_step
       (Sub_hm.protocol ~params ~world:`Hybrid)
       ~n:201 ~reps ~seed ~max_rounds:250);
  add "quadratic-hm" "n=101"
    (round_stats ~crowd:Quadratic_hm.sparse_step (Quadratic_hm.protocol ())
       ~n:101 ~reps ~seed ~max_rounds:220);
  List.iter
    (fun confirmations ->
      add "nakamoto"
        (Printf.sprintf "n=50, p=0.004, k=%d" confirmations)
        (round_stats
           (Babaselines.Nakamoto.protocol ~p:0.004 ~confirmations)
           ~n:50 ~reps ~seed ~max_rounds:4000))
    [ 2; 4; 8; 16; 32 ];
  Bastats.Table.add_note table
    "sub-hm and quadratic-hm: a constant number of iterations in \
     expectation, independent of any security knob; nakamoto: rounds grow \
     linearly in the confirmation depth k (≈ k/(n·p)) — the paper's point \
     that Nakamoto-style protocols cannot be expected constant round.";
  (* The geometric tail, visibly: a histogram of sub-hm iteration counts
     (rounds bucketed by 4-round iterations). *)
  let hist = Bastats.Histogram.create () in
  Bastats.Histogram.add_many hist
    (List.map
       (fun r -> (r + 2) / 4)
       (round_samples ~crowd:Sub_hm.sparse_step
          (Sub_hm.protocol ~params:(Params.make ~lambda:40 ~max_epochs:60 ())
             ~world:`Hybrid)
          ~n:201 ~reps:(4 * reps) ~seed:(Int64.add seed 1L) ~max_rounds:250));
  Bastats.Table.add_note table
    ("iterations-to-decide distribution (sub-hm, geometric as Lemma 12 \
      predicts):\n" ^ Bastats.Histogram.render ~width:40 hist);
  [ table ]
